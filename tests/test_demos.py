"""The demos run as scripts and print what their narrative says.

Each runs in a fresh interpreter, as a reader would start it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,line", [
    # stop-and-wait: one segment per 19.824 ms round trip
    ("01_simulator_capacity.py",
     "cwnd=1     throughput     50400 B/s   rtt 19.824 ms"),
    # the random policy's run involves no learner, so no BLAS bits
    ("02_train_single_run.py",
     "random  avg throughput    233500 B/s   final cwnd 17"),
    # the header names the factors, whatever bits BLAS gives the fit
    ("03_factorial_regression.py",
     "response: avg throughput (B/s); factors: "
     "error_rate,layers,learning_rate"),
], ids=["01", "02", "03"])
def test_demo_runs(script, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
