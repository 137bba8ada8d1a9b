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
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .netsim import Simulator
from .schema import EnvConfig


class Action(enum.IntEnum):
    DECREASE = 0
    HOLD = 1
    INCREASE = 2

    @property
    def delta(self) -> int:
        return int(self) - 1


class Observation(NamedTuple):
    """The six flow observables; normalize keeps this field order."""
    cwnd_segments: int
    segment_bytes: int
    bytes_sent_total: int
    avg_rtt_ms: float
    segments_acked_total: int
    throughput_Bps: float


#: Fixed normalization constants, one per observable.
DEFAULT_SCALES = Observation(
    cwnd_segments=200.0, segment_bytes=1500.0, bytes_sent_total=1e7,
    avg_rtt_ms=1000.0, segments_acked_total=1e4, throughput_Bps=250000.0)
_SCALES = np.array(DEFAULT_SCALES, dtype=np.float64)


class StepResult(NamedTuple):
    observation: Observation
    reward: float
    done: bool
    step_index: int


def compute_reward(throughput_Bps: float, bottleneck_rate_bps: int) -> float:
    """Interval throughput as a fraction of bottleneck capacity in [0, 1]."""
    capacity_Bps = bottleneck_rate_bps / 8.0
    return min(1.0, max(0.0, throughput_Bps / capacity_Bps))


def normalize(obs: Observation) -> np.ndarray:
    """The six observables, in field order, divided by DEFAULT_SCALES."""
    return np.array(obs, dtype=np.float64) / _SCALES


class Env:
    """One agent, one flow; call reset() before stepping."""

    def __init__(self, cfg: EnvConfig):
        cfg.validate()
        self.cfg = cfg
        self._sim: Simulator | None = None
        self._step_count = cfg.episode_length   # no episode until reset()

    def reset(self, seed: int) -> Observation:
        self._sim = Simulator(replace(self.cfg.sim, seed=seed))
        self._step_count = 0
        return self._observe(0.0)

    def step(self, action: Action | int) -> StepResult:
        if self._step_count >= self.cfg.episode_length:
            raise RuntimeError("episode is finished; call reset()")
        # Action() would take True as HOLD and 2.0 as INCREASE
        if type(action) is bool or not isinstance(action, (int, np.integer)):
            raise ValueError(f"action must be an integer, got {action!r}")
        self._sim.set_cwnd(min(self.cfg.sim.cwnd_max,
                               max(1, self._sim.cwnd + Action(action).delta)))
        throughput_Bps = self._sim.advance(self.cfg.decision_interval_ms)
        self._step_count += 1
        return StepResult(
            observation=self._observe(throughput_Bps),
            reward=compute_reward(throughput_Bps,
                                  self.cfg.sim.bottleneck_link.rate_bps),
            done=self._step_count >= self.cfg.episode_length,
            step_index=self._step_count,
        )

    def _observe(self, throughput_Bps: float) -> Observation:
        c = self._sim.counters()
        return Observation(
            cwnd_segments=c.cwnd_segments,
            segment_bytes=self.cfg.sim.segment_bytes,
            bytes_sent_total=c.bytes_sent_total,
            avg_rtt_ms=c.rtt_ewma_ms,
            segments_acked_total=c.segments_acked_total,
            throughput_Bps=throughput_Bps,
        )
