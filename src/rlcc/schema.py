"""The numpy-free configs and row types the command line needs at import
time, each CSV's column list beside its row type.  With only this and
``netsim`` loaded, config resolution, input errors and ``rlcc simulate``
start without numpy."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

from .netsim import SimConfig

ALLOWED_HIDDEN_COUNTS = (2, 4, 8)


@dataclass(frozen=True)
class EnvConfig:
    sim: SimConfig = SimConfig()
    decision_interval_ms: float = 100.0
    episode_length: int = 200

    def validate(self) -> None:
        # in seconds too: advance() divides by the interval in seconds
        if not 0 < self.decision_interval_ms / 1000.0 < float("inf"):
            raise ValueError("decision_interval_ms must be finite and "
                             "positive in seconds")
        if self.episode_length < 1:
            raise ValueError("episode_length must be >= 1")


@dataclass(frozen=True)
class DqnConfig:
    hidden_count: int = 2
    hidden_width: int = 64
    learning_rate: float = 0.01
    gamma: float = 0.95
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.99
    batch_size: int = 32
    buffer_capacity: int = 5000
    target_sync_every: int = 50
    # Replay updates per environment step; >1 compensates for the short
    # 200-step online episode.
    train_updates_per_step: int = 4
    seed: int = 0

    def validate(self) -> None:
        if self.hidden_count not in ALLOWED_HIDDEN_COUNTS:
            raise ValueError(f"hidden_count must be one of {ALLOWED_HIDDEN_COUNTS}")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if not 0 < self.learning_rate < float("inf"):
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        for name in ("epsilon_start", "epsilon_min"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.epsilon_min > self.epsilon_start:
            raise ValueError("epsilon_min must be <= epsilon_start")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must be in (0, 1]")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ValueError("need 1 <= batch_size <= buffer_capacity")
        if self.target_sync_every < 1:
            raise ValueError("target_sync_every must be >= 1")
        if self.train_updates_per_step < 1:
            raise ValueError("train_updates_per_step must be >= 1")


@dataclass(frozen=True)
class RunSpec:
    run_id: str
    layers: int
    learning_rate: float
    error_rate: float
    rep: int
    seed: int


@dataclass(frozen=True)
class RunRecord:
    spec: RunSpec
    avg_throughput_Bps: float
    max_throughput_Bps: float
    convergence_step: int | None
    cumulative_reward: float
    final_cwnd: int
    diverged: bool
    wall_time_ms: int


#: runs.csv: the RunSpec fields, then the record's metrics without the
#: wall time, which varies from run to run.
RUNS_HEADER = [f.name for f in fields(RunSpec)] + [
    f.name for f in fields(RunRecord)
    if f.name not in ("spec", "wall_time_ms")]


class Step(NamedTuple):
    """One steps.csv row, a decision step; the fields are the columns."""
    run_id: str
    step: int
    cwnd: int
    throughput_Bps: float
    avg_rtt_ms: float
    reward: float
    epsilon: float | None
    loss: float | None


STEPS_HEADER = list(Step._fields)


@dataclass(frozen=True)
class RegressionRow:
    term: str
    influence: float | None   # 2 * coefficient; None for the intercept
    coefficient: float
    std_error: float
    t_value: float | None     # None flags a perfect fit (SE = 0)
    p_value: float | None


REGRESSION_HEADER = [f.name for f in fields(RegressionRow)]
