"""Run a reduced factorial grid and fit the coded-factor OLS model.

Factors: network depth (2/4/8 hidden layers), learning rate (0.01/0.001)
and channel error rate (0%/20%).  Each factor is coded to {-1, 0, +1} so a
term's influence on mean throughput reads directly as twice its
coefficient.  The two-factor fit pools the error rate into its residual, so
the error rate's large effect inflates every standard error there; the
three-factor fit models it and reads the learning-rate effect far more
sharply.
"""

import os
import sys
import tempfile

from rlcc import cli

REPS = 3  # the real experiment uses 10


def main():
    with tempfile.TemporaryDirectory() as out:
        code = cli.run(["grid", "--reps", str(REPS), "--base-seed", "42",
                        "--out-dir", out])
        if code not in (cli.EXIT_OK, cli.EXIT_PARTIAL):   # 4: some diverged
            return code
        for factors in ("learning_rate,layers",
                        "error_rate,layers,learning_rate"):
            print(f"\nresponse: avg throughput (B/s); factors: {factors}")
            code = cli.run(["analyze", "--runs", os.path.join(out, "runs.csv"),
                            "--factors", factors, "--out-dir", out])
            if code != cli.EXIT_OK:
                return code
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
