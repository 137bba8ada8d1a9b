"""Timing spans recorded from outside the rlcc package.

`Tracer.install()` replaces the public calls of each rlcc layer with a thin
wrapper that records one span per call and returns exactly what the wrapped
call returned.  `Tracer.uninstall()` puts the originals back.  Nothing in
rlcc itself is edited; a wrapped function is reached because rlcc looks its
callees up through module and class attributes at call time.

Spans are kept in memory as `Span` records.  A span's parent is the span
that was open when it started.  Its `tag` is inherited from the nearest
tagged ancestor: `execute_run` tags its run with ("run", network depth).
Self time is a span's duration minus the durations of its direct children;
calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    tag: object
    start_ns: int
    end_ns: int
    parent: int          # index into Tracer.spans, -1 for a root
    child_ns: int = 0    # summed duration of direct children

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


def _first_arg_layers(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return ("run", spec.layers)


def layer_targets():
    """(span name, owner, attribute, tag function) for every wrapped call."""
    from rlcc import cli, dqn, env, experiments, netsim, stats
    return [
        ("cli.run", cli, "run", None),
        ("cli.write_csv", cli, "write_csv_atomic", None),
        ("experiments.execute_run", experiments, "execute_run",
         _first_arg_layers),
        ("env.reset", env.Env, "reset", None),
        ("env.step", env.Env, "step", None),
        ("netsim.advance", netsim.Simulator, "advance", None),
        ("dqn.select_action", dqn.DqnAgent, "select_action", None),
        ("dqn.learn", dqn.DqnAgent, "learn", None),
        ("dqn.sample", dqn.ReplayBuffer, "sample", None),
        ("dqn.train_step", dqn, "train_step", None),
        ("dqn.td_targets", dqn, "td_targets", None),
        ("dqn.loss_and_grads", dqn, "loss_and_grads", None),
        ("stats.ols_fit", stats, "ols_fit", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, tag) -> int:
        parent = self._stack[-1] if self._stack else -1
        if tag is None and parent >= 0:
            tag = self.spans[parent].tag
        idx = len(self.spans)
        self.spans.append(Span(name, tag, time.perf_counter_ns(), 0, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.dur_ns

    def call(self, name: str, tag, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        idx = self._open(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, tag_fn=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tag_fn(args, kwargs) if tag_fn else None
            return self.call(name, tag, fn, *args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, tag_fn in layer_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, tag_fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
