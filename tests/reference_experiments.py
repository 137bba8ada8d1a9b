"""Test-only reference: ``rlcc.experiments.execute_run`` as it was before a
run's player became one object.

The loop asks which policy runs: the control draws from an RNG built on
every run, the agent's transition is pushed into ``DqnAgent.buffer`` and
learned from here, and the non-finite ``theta`` check follows the loop.
``tests/test_experiments_differential.py`` runs it side by side with the
package's ``execute_run`` and requires equal records and traces.  Kept as it
was; the agent, the env and the metrics come from the package.
"""

from __future__ import annotations

import time
from dataclasses import replace
from statistics import mean

import numpy as np

from rlcc.dqn import OUTPUT_DIM, DqnAgent, TrainingDivergedError
from rlcc.env import Env, normalize
from rlcc.experiments import CONVERGENCE_WINDOW, convergence_step
from rlcc.schema import DqnConfig, EnvConfig, RunRecord, RunSpec, Step


def execute_run(spec: RunSpec, env_cfg: EnvConfig, dqn_cfg: DqnConfig,
                policy: str = "dqn"):
    if policy not in ("dqn", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    t_start = time.monotonic()
    bn = replace(env_cfg.sim.bottleneck_link, loss_prob=spec.error_rate)
    env = Env(replace(env_cfg, sim=replace(env_cfg.sim, bottleneck_link=bn)))
    agent = DqnAgent(replace(
        dqn_cfg, hidden_count=spec.layers, learning_rate=spec.learning_rate,
        # decorrelate the agent's stream from the channel noise
        seed=spec.seed ^ 0x5DEECE66D)) if policy == "dqn" else None
    baseline_rng = np.random.default_rng(spec.seed ^ 0x9E3779B9)

    obs = env.reset(spec.seed)
    state = normalize(obs)
    trace: list[Step] = []
    diverged = False

    # the loss and theta checks flag a diverging learner's overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(env_cfg.episode_length):
            if agent is None:
                action = int(baseline_rng.integers(OUTPUT_DIM))
                epsilon = None
            else:
                action = agent.select_action(state)
                epsilon = agent.last_epsilon
            result = env.step(action)
            next_state = normalize(result.observation)
            loss = None
            if agent is not None:
                agent.buffer.push(state, action, result.reward, next_state,
                                  result.done)
                try:
                    for _ in range(dqn_cfg.train_updates_per_step):
                        loss = agent.learn()
                except TrainingDivergedError:
                    diverged = True
            state = next_state
            obs = result.observation
            trace.append(Step(spec.run_id, result.step_index,
                              obs.cwnd_segments, obs.throughput_Bps,
                              obs.avg_rtt_ms, result.reward, epsilon, loss))
            if diverged:
                break
    # train_step checks the loss, which precedes its update, so an update
    # that overflows theta on the last step is caught here.
    if agent is not None and not np.isfinite(agent.net.theta).all():
        diverged = True

    cwnds = [row.cwnd for row in trace]
    throughputs = [row.throughput_Bps for row in trace]
    conv = None
    if not diverged and len(cwnds) >= 2 * CONVERGENCE_WINDOW:
        conv = convergence_step(cwnds)
    record = RunRecord(
        spec=spec,
        avg_throughput_Bps=float(mean(throughputs)),
        max_throughput_Bps=float(max(throughputs)),
        convergence_step=conv,
        cumulative_reward=float(sum(row.reward for row in trace)),
        final_cwnd=cwnds[-1],
        diverged=diverged,
        wall_time_ms=int((time.monotonic() - t_start) * 1000),
    )
    return record, trace
