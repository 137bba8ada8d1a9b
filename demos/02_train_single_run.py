"""Train one online DQN episode and compare it with the random baseline.

The agent sees six normalized flow observables, picks decrease/hold/increase
for the congestion window each 100 ms, and is rewarded with the interval
throughput as a fraction of bottleneck capacity.
"""

import statistics

from rlcc.dqn import DqnConfig
from rlcc.env import EnvConfig
from rlcc.experiments import execute_run, make_spec


def main():
    # the grid's rep-0 run of the depth-2, lr 0.01, error-free cell
    spec = make_spec(2, 0.01, 0.0, 0, base_seed=42)
    trained, trace = execute_run(spec, EnvConfig(), DqnConfig(), policy="dqn")
    random_, _ = execute_run(spec, EnvConfig(), DqnConfig(), policy="random")

    print(f"trained avg throughput {trained.avg_throughput_Bps:9.0f} B/s   "
          f"final cwnd {trained.final_cwnd}")
    print(f"random  avg throughput {random_.avg_throughput_Bps:9.0f} B/s   "
          f"final cwnd {random_.final_cwnd}")
    print(f"convergence step: {trained.convergence_step}")

    # The learned behaviour shows up as the cwnd trajectory drifting up:
    # compare the median window early vs late in the episode.
    cwnds = [row.cwnd for row in trace]
    early = statistics.median(cwnds[:50])
    late = statistics.median(cwnds[150:])
    print(f"median cwnd steps 1-50: {early}, steps 151-200: {late}")

    # Coarse reward curve, 20-step buckets.
    rewards = [row.reward for row in trace]
    for start in range(0, 200, 20):
        bucket = rewards[start:start + 20]
        bar = "#" * int(40 * statistics.mean(bucket))
        print(f"steps {start + 1:3d}-{start + 20:3d}  {bar}")


if __name__ == "__main__":
    main()
