"""Run a reduced factorial grid and fit the coded-factor OLS model.

Factors: network depth (2/4/8 hidden layers), learning rate (0.01/0.001)
and channel error rate (0%/20%).  Each factor is coded to {-1, 0, +1} so a
term's influence on mean throughput reads directly as twice its
coefficient.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from rlcc import DqnConfig, EnvConfig
from rlcc.experiments import FactorLevels, enumerate_runs, execute_run
from rlcc.stats import code_level, make_interaction_design, ols_fit, render_table

REPS = 3  # the real experiment uses 10; 3 keeps this demo under a minute


def worker(spec):
    record, _ = execute_run(spec, EnvConfig(), DqnConfig(), policy="dqn")
    return record


def main():
    specs = enumerate_runs(FactorLevels(), reps=REPS, base_seed=42)
    print(f"running {len(specs)} episodes ...")
    with ProcessPoolExecutor(max_workers=4) as pool:
        records = list(pool.map(worker, specs))
    records = [r for r in records if not r.diverged]

    for factors in (("error_rate", "layers"), ("learning_rate", "error_rate")):
        a = [code_level(factors[0], getattr(r.spec, factors[0]))
             for r in records]
        b = [code_level(factors[1], getattr(r.spec, factors[1]))
             for r in records]
        y = np.array([r.avg_throughput_Bps for r in records])
        X, names = make_interaction_design(np.array(a), np.array(b), *factors)
        print(f"\nresponse: avg throughput (B/s); factors: {factors}")
        print(render_table(ols_fit(X, names, y)))


if __name__ == "__main__":
    main()
