"""Episodic gym-style environment around one simulator instance.

Each episode starts at the simulator's window of 1 segment.  Each step
applies a discrete congestion-window action (-1 / 0 / +1 segment, clamped to
[1, sim.cwnd_max], the simulator's own range), advances the simulator by one
decision interval, and returns the six flow observables plus a reward equal
to the interval throughput normalized by bottleneck capacity, clamped to
[0, 1].  Episodes run a fixed number of steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .netsim import SimConfig, Simulator

#: Fixed normalization constants: cwnd, segment bytes, bytes sent, RTT ms,
#: segments acked, throughput B/s.
DEFAULT_SCALES = (200.0, 1500.0, 1e7, 1000.0, 1e4, 250000.0)
_SCALES = np.array(DEFAULT_SCALES, dtype=np.float64)


class EpisodeDoneError(RuntimeError):
    """step() was called on a finished episode."""


class Action(enum.IntEnum):
    DECREASE = 0
    HOLD = 1
    INCREASE = 2

    @property
    def delta(self) -> int:
        return int(self) - 1


@dataclass(frozen=True)
class Observation:
    cwnd_segments: int
    segment_bytes: int
    bytes_sent_total: int
    avg_rtt_ms: float
    segments_acked_total: int
    throughput_Bps: float


@dataclass(frozen=True)
class StepResult:
    observation: Observation
    reward: float
    done: bool
    step_index: int


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


def compute_reward(throughput_Bps: float, bottleneck_rate_bps: int) -> float:
    """Interval throughput as a fraction of bottleneck capacity in [0, 1]."""
    capacity_Bps = bottleneck_rate_bps / 8.0
    return min(1.0, max(0.0, throughput_Bps / capacity_Bps))


def normalize(obs: Observation) -> np.ndarray:
    """The six observables, in field order, divided by DEFAULT_SCALES."""
    return np.array([obs.cwnd_segments, obs.segment_bytes,
                     obs.bytes_sent_total, obs.avg_rtt_ms,
                     obs.segments_acked_total, obs.throughput_Bps],
                    dtype=np.float64) / _SCALES


class Env:
    """One agent, one flow; call reset() before stepping."""

    def __init__(self, cfg: EnvConfig):
        cfg.validate()
        self.cfg = cfg
        self._sim: Simulator | None = None
        self._step_count = 0
        self._done = True
        self._throughput_Bps = 0.0

    def reset(self, seed: int) -> Observation:
        self._sim = Simulator(replace(self.cfg.sim, seed=seed))
        self._step_count = 0
        self._done = False
        self._throughput_Bps = 0.0
        return self._observe()

    def step(self, action: Action) -> StepResult:
        if self._sim is None or self._done:
            raise EpisodeDoneError("episode is finished; call reset()")
        self._sim.set_cwnd(min(self.cfg.sim.cwnd_max,
                               max(1, self._sim.cwnd + Action(action).delta)))
        self._throughput_Bps = self._sim.advance(self.cfg.decision_interval_ms)
        self._step_count += 1
        self._done = self._step_count >= self.cfg.episode_length
        return StepResult(
            observation=self._observe(),
            reward=compute_reward(self._throughput_Bps,
                                  self.cfg.sim.bottleneck_link.rate_bps),
            done=self._done,
            step_index=self._step_count,
        )

    def _observe(self) -> Observation:
        c = self._sim.counters()
        return Observation(
            cwnd_segments=c.cwnd_segments,
            segment_bytes=self.cfg.sim.segment_bytes,
            bytes_sent_total=c.bytes_sent_total,
            avg_rtt_ms=c.rtt_ewma_ms,
            segments_acked_total=c.segments_acked_total,
            throughput_Bps=self._throughput_Bps,
        )
