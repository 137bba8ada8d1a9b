"""Factorial experiment runner: design enumeration, seeded run execution,
and per-run metrics (including the cwnd plateau detector).

The design crosses the paper's fixed levels of depth, learning rate and
channel error rate; the levels cannot be set.

Every run is one 200-step online-training episode.  Seeds derive from
(base_seed, cell, rep) via SHA-256, so the whole grid is reproducible and
runs can execute in any order or in parallel.  A run's trace rows are Step
tuples, whose fields are the steps.csv columns.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from itertools import product
from statistics import mean

import numpy as np

from .dqn import OUTPUT_DIM, DqnAgent, TrainingDivergedError
from .env import Env, normalize
from .schema import (DqnConfig, EnvConfig, FactorLevels, RunRecord, RunSpec,
                     Step)


#: Plateau detector: moving-average window (steps) and band half-width
#: as a fraction of the plateau.
CONVERGENCE_WINDOW = 20
CONVERGENCE_TOLERANCE = 0.10


def derive_seed(base_seed: int, layers: int, learning_rate: float,
                error_rate: float, rep: int) -> int:
    """Pure 64-bit seed for one (cell, rep); stable across platforms."""
    key = f"{base_seed}|{layers}|{learning_rate!r}|{error_rate!r}|{rep}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def make_spec(layers, learning_rate, error_rate, rep, base_seed,
              run_id=None, seed=None) -> RunSpec:
    """One (cell, rep)'s run; run_id and seed default to the grid's."""
    if seed is None:
        seed = derive_seed(base_seed, layers, learning_rate, error_rate, rep)
    return RunSpec(
        run_id=run_id or f"l{layers}-lr{learning_rate}-e{error_rate}-r{rep}",
        layers=layers, learning_rate=learning_rate, error_rate=error_rate,
        rep=rep, seed=seed)


def enumerate_runs(factors: FactorLevels, reps: int = 10,
                   base_seed: int = 42) -> list[RunSpec]:
    """The full factorial design: every combination of the level sets,
    ordered cell-lexicographic then rep."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    cells = product(factors.layers, factors.learning_rate, factors.error_rate)
    return [make_spec(l, lr, e, rep, base_seed)
            for l, lr, e in sorted(cells) for rep in range(reps)]


def convergence_step(cwnd_series):
    """First step at which the cwnd moving average has permanently entered
    the tolerance band around its final plateau.

    Windows cover [s, s+w) with w = CONVERGENCE_WINDOW; the plateau P is
    the final window's mean; a window is in band when
    |mean - P| <= CONVERGENCE_TOLERANCE * P.  The answer is
    the exclusive end index of the last out-of-band window plus one (0 when
    every window is in band).  If that lands within the final window span,
    the plateau was never held for a full window and None is returned.
    """
    series = np.asarray(cwnd_series, dtype=np.float64)
    n = series.size
    w = CONVERGENCE_WINDOW
    if n < 2 * w:
        raise ValueError(f"series length {n} < 2 * window {w}")
    cumsum = np.concatenate([[0.0], np.cumsum(series)])
    means = (cumsum[w:] - cumsum[:-w]) / w      # means[s] for s in [0, n-w]
    plateau = means[-1]
    in_band = np.abs(means - plateau) <= CONVERGENCE_TOLERANCE * abs(plateau)
    bad = np.flatnonzero(~in_band)
    if bad.size == 0:
        return 0
    t = int(bad[-1]) + w + 1
    if t > n - w:
        return None
    return t


def execute_run(spec: RunSpec, env_cfg: EnvConfig, dqn_cfg: DqnConfig,
                policy: str = "dqn"):
    """Run one online episode and return (RunRecord, trace rows).

    policy 'dqn' trains online; 'random' takes uniform actions and builds
    no agent (the control condition).  A diverged training run is truncated
    and flagged rather than raised.
    """
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
