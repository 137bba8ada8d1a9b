"""rlcc benchmark: end-to-end and per-layer numbers from rlcc's public entry
points.

    python3 bench/run.py --workload grid-full --seed 1 --seconds 40 --trace 0

Every operation is one closed-loop `rlcc.cli.run` command sequence issued
from this single process; the program sees only seeds derived from --seed.
Operations come in three families:

  grid   `rlcc grid --design full` over the paper's 12 cells at reps 1 and
         --jobs $(nproc), then `rlcc analyze` on its runs.csv
  train  `rlcc train` at depth 2/4/8 x error rate 0/0.2, in-process
  sim    `rlcc simulate` at fixed cwnd 8/64/200 x bottleneck loss 0/0.2;
         no DQN, clean points on the in-order path, lossy ones on the
         RTO retransmission path

A run repeats its workload's cycle of rounds until --seconds have passed
(at least MIN_CYCLES times):

  grid-full     the grid, then twice a train probe (depth 2/4/8 at error
                0) and a sim probe (cwnd 64 at loss 0 and 0.2).  The only
                workload that starts the process pool; the probes supply
                the train and simulator metrics, measured between grids.
  train-depths  train only, so nothing but sequential in-process single
                runs: the path a batched trainer must not slow.  With no
                grid or simulate commands, its runs_per_s counts train
                runs, and sim_speed_clean / sim_speed_lossy are the
                simulated seconds its error 0 / error 0.2 train runs
                advance per wall second.

Inputs are derived once per run, so every cycle repeats the same
operations, and each repeat must reproduce the first one's output digests
and exact counts.  The report gives each family's measured share of the
run's operation time.

Host-speed normalisation: on a shared 2-vCPU host each vCPU runs the same
operation up to 1.8x slower for stretches of under a second to minutes,
independently of the other vCPU.  CPU time grows with wall time and the
kernel reports no steal, so the vCPU itself runs slower (the host gives it
no performance counters to check why).  A run's median or best-of then
measures how much of it fell in a slow stretch: their spreads over 50 s
windows of one trace reached 0.12-0.28.  So every untraced operation is
bracketed by a fixed reference kernel (a pure-Python heap loop, a small
numpy MLP and random reads from a 4 MiB table, all in this file and never
changed by rlcc), and its time is reported at the reference host speed:

    time = wall time x REFERENCE_S / (mean of the reference times just
                                      before and just after the operation)

In-process operations, fresh-interpreter set-ups and their references run
on one CPU; a grid's reference is the mean over every CPU, one at a time,
since its pool workers use them all.  REFERENCE_S is the kernel's time in
the host's fast state, so on a quiet host the figure is the wall time.
The ratio stays when the host slows: over the same windows the spreads of
these times were 0.03-0.06.  Without the table reads, ops slowed more
than the kernel when the host was busiest.  A change to rlcc moves the numerator alone.
Speed changes within an operation remain as noise of about 0.12 an
operation, which the medians over an operation's repeats, then over
operations, average out.  The report keeps every raw wall time and
reference time.

The train tail is a percentile of train times, which is reported with the
per-layer numbers, from TAIL_ROUNDS untraced train rounds of the
--trace 1 run.

peak_rss_mb is the peak, over samples taken while operations run, of the
summed proportional set size (PSS) of this process and its live children.
PSS divides each shared page among the processes that map it, so pages a
forked pool worker still shares with this process count once.  It
includes the reference kernel's 5 MiB of arrays.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same
operations for either workload: each family untraced and then traced
(spans recorded by bench/spans.py around each layer's public calls), and
prints the per-layer metrics.  The last line of stdout is the result
object; the lines before it are a JSON report with provenance, counts,
digests, family shares and tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import heapq
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CPUS = frozenset(os.sched_getaffinity(0))
NPROC = len(CPUS)

DEPTHS = (2, 4, 8)
ERRORS = (0.0, 0.2)
# (cwnd, bottleneck loss, simulated ms).  Durations are sized so each point
# takes comparable wall time (0.05-0.15 s on a 2-vCPU 2.1 GHz Xeon VM): clean
# points run at ~400 simulated s per wall s, while the lossy ones stall on
# RTOs and run faster the smaller the window.
SIM_POINTS = ((8, 0.0, 50_000.0), (64, 0.0, 50_000.0), (200, 0.0, 50_000.0),
              (8, 0.2, 400_000.0), (64, 0.2, 150_000.0), (200, 0.2, 60_000.0))
DECISION_INTERVAL_MS = 100.0
EPISODE_LENGTH = 200

FAMILIES = ("grid", "train", "sim")
TRAIN_POINTS = tuple((d, e) for d in DEPTHS for e in ERRORS)
# grid-full's short train and simulate probes, twice a cycle, so that each
# probe op repeats 10-20 times in a run between the grids.
TRAIN_PROBE = tuple((d, 0.0) for d in DEPTHS)
SIM_PROBE = ((64, 0.0, 50_000.0), (64, 0.2, 150_000.0))
# The rounds of one cycle, per workload, as (family, inputs).
WORKLOADS = {
    "grid-full": (("grid", None), ("train", TRAIN_PROBE), ("sim", SIM_PROBE),
                  ("train", TRAIN_PROBE), ("sim", SIM_PROBE)),
    "train-depths": (("train", TRAIN_POINTS),),
}
# reps=1 rather than the paper's 10 keeps a grid at 2-4 s, so a grid-full
# run holds 5-10.
GRID_REPS = 1
MIN_CYCLES = 4
# 9 rounds x 6 commands = 54 samples, so p81 has ten samples beyond it.
TAIL_ROUNDS = 9
TAIL_PERCENTILE = 81
# setup_s samples per run, spread over the run.
SETUP_SAMPLES = 7
# Seconds between memory samples while an operation runs.
MEMORY_INTERVAL_S = 0.2
# reference_s() in the fast state of a 2-vCPU 2.1 GHz Xeon VM (Python
# 3.11, numpy 2); timings are reported at this host speed.
REFERENCE_S = 0.00195

SETUP_CODE = ("import rlcc\n"
              "from rlcc.cli import build_configs\n"
              "from rlcc.netsim import Simulator\n"
              "sim_cfg, env_cfg, dqn_cfg = build_configs({})\n"
              "Simulator(sim_cfg)\n")

LEARN_SHARE_L8_BASELINE = 0.86   # ROADMAP re-anchor cProfile figure

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "train_l2_p50_ms": "ms",
    "train_l4_p50_ms": "ms",
    "train_l8_p50_ms": "ms",
    "sim_speed_clean": "s/s",
    "sim_speed_lossy": "s/s",
    "peak_rss_mb": "MB",
}

_DQN_CALLS = ("select_action", "learn", "train_step", "td_targets",
              "loss_and_grads", "sample")
_SHARES = ("sim", "act", "learn", "self")
PER_LAYER = {
    "netsim.advance_us": "us",
    "netsim.us_per_acked_segment": "us",
    "netsim.us_per_transmission": "us",
    "netsim.transmissions_per_acked": "ratio",
    "netsim.retransmissions": "count",
    "netsim.drops_error": "count",
    "netsim.drops_queue": "count",
    "env.step_us": "us",
    "env.step_self_us": "us",
    "env.reset_us": "us",
    **{f"dqn.{call}_us.l{d}": "us" for call in _DQN_CALLS for d in DEPTHS},
    "dqn.learn_useful_frac": "ratio",
    **{f"experiments.run_ms.l{d}": "ms" for d in DEPTHS},
    **{f"experiments.{part}_share.l{d}": "ratio"
       for part in _SHARES for d in DEPTHS},
    "experiments.diverged_runs": "count",
    "stats.ols_fit_us": "us",
    "cli.write_csv_ms": "ms",
    "cli.parallel_efficiency": "ratio",
    "train_tail_ms": "ms",
}


class CheckError(Exception):
    """An operation's output failed a correctness check."""


@dataclass
class Op:
    family: str
    key: tuple           # identifies the inputs; equal keys must agree
    params: dict
    round: int
    traced: bool
    wall_s: float = math.nan
    ref_s: float = math.nan   # reference_s() around the op, untraced only
    ok: bool = False
    error: str = ""
    sig: dict = field(default_factory=dict)   # digests and exact counts
    info: dict = field(default_factory=dict)
    spans: tuple = (0, 0)                     # tracer.spans[a:b]

    @property
    def norm_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s * REFERENCE_S / self.ref_s


def derive_seed(seed: int, *parts) -> int:
    key = "|".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:4], "big")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path, header: list[str]) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise CheckError(f"{path.name}: header {got} != {header}")
        return [dict(zip(header, row)) for row in reader]


def finite(rows, column: str, where: str) -> None:
    for row in rows:
        if not math.isfinite(float(row[column])):
            raise CheckError(f"{where}: non-finite {column} {row[column]!r}")


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_or_none(values):
    values = list(values)
    return statistics.median(values) if values else None


def _reference_python() -> int:
    """Interpreter-bound work like netsim's event loop: heap and dict ops."""
    heap, slots, total = [], {}, 0
    for i in range(4000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        slots[i & 255] = i
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    return total


_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((32, 8))
_REF_W1 = _REF_RNG.standard_normal((8, 64))
_REF_W2 = _REF_RNG.standard_normal((64, 64))


def _reference_numpy() -> np.ndarray:
    """Small-array numpy work like the DQN's: an MLP layer and its update."""
    w2 = _REF_W2.copy()
    for _ in range(200):
        hidden = np.maximum(_REF_X @ _REF_W1, 0.0)
        w2 -= 1e-6 * ((hidden @ w2).T @ hidden)
    return w2


_REF_TABLE = _REF_RNG.standard_normal(1 << 19)          # 4 MiB
_REF_INDEX = _REF_RNG.integers(0, 1 << 19, 200_000, dtype=np.int32)


def _reference_gather() -> float:
    """Cache-missing reads like the replay buffer's, over a table larger
    than a core's private caches."""
    return float(_REF_TABLE[_REF_INDEX].sum())


def reference_s() -> float:
    """The host's current speed, as the time of a fixed kernel: the
    geometric mean of the best of two runs of each reference part."""
    best = []
    for part in (_reference_python, _reference_numpy, _reference_gather):
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    return math.prod(best) ** (1 / len(best))


def host_speed(cpus: frozenset) -> float:
    """Mean reference_s() over `cpus`, run on each in turn, then puts the
    calling thread on all of `cpus`.  The vCPUs of a shared host slow down
    independently of each other."""
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times.append(reference_s())
    os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def pss_kib(pid: int) -> int:
    """Proportional set size of a process, 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(parent: int) -> list[int]:
    """Live direct children of `parent`, found by scanning /proc."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the fields after the parenthesised command are: state, ppid, ...
        if int(stat.rsplit(b")", 1)[1].split()[1]) == parent:
            pids.append(int(name))
    return pids


class MemorySampler:
    """Peak summed PSS of this process and its live children, sampled every
    MEMORY_INTERVAL_S while `measuring()` is active and once as it ends.

    The sampling thread runs while rlcc forks its pool workers; a forked
    worker never touches the sampler or the files it opens."""

    def __init__(self):
        self.peak_kib = 0
        self.samples = 0
        self._lock = threading.Lock()
        self._active = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def sample(self) -> None:
        me = os.getpid()
        total = sum(pss_kib(pid) for pid in (me, *child_pids(me)))
        self.peak_kib = max(self.peak_kib, total)
        self.samples += 1

    def _loop(self) -> None:
        while not self._stop.wait(MEMORY_INTERVAL_S):
            with self._lock:
                if self._active:
                    self.sample()

    @contextlib.contextmanager
    def measuring(self):
        with self._lock:
            self._active = True
        try:
            yield
        finally:
            with self._lock:
                self.sample()
                self._active = False

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


class Bench:
    def __init__(self, cli, seed: int, workload: str, tracer=None):
        self.cli = cli
        self.seed = seed
        self.workload = workload
        self.tracer = tracer          # spans are recorded while installed
        self.tracing = False
        self.memory = None            # a MemorySampler in untraced runs
        self._ref = (None, None)      # (cpus, host_speed) after last op
        self.ops: list[Op] = []
        self.errors: list[str] = []
        self._first_sig: dict[tuple, dict] = {}
        self.report: dict = {}

    # -- one operation -----------------------------------------------------

    def _cli(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.run([str(a) for a in argv])
        return rc, buf.getvalue()

    def _op(self, op: Op, out: Path, body, check) -> Op:
        """Time body(), then check the outputs it wrote to `out`; a failed
        check or an exception marks the op failed and drops its time."""
        shutil.rmtree(out, ignore_errors=True)   # never check stale files
        tracer = self.tracer if self.tracing else None
        if tracer is not None:
            a = len(tracer.spans)
        elif self.memory is not None:
            cpus = self.op_cpus(op)
            # the reference just after the previous op serves as this one's
            # reference before it
            before = (self._ref[1] if self._ref[0] == cpus
                      else host_speed(cpus))
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                raw = tracer.call("op." + op.family, None, body)
            elif self.memory is not None:
                with self.memory.measuring():
                    raw = body()
            else:
                raw = body()
            op.wall_s = time.perf_counter() - t0
            if tracer is not None:
                op.spans = (a, len(tracer.spans))
                self._span_counts(op)
            elif self.memory is not None:
                self._ref = (cpus, host_speed(cpus))
                op.ref_s = (before + self._ref[1]) / 2
            check(op, raw)
            self._compare(op)
            op.ok = True
        except CheckError as exc:
            op.error = str(exc)
        except Exception:   # the program raised: record it and carry on
            op.error = traceback.format_exc(limit=4)
        if not op.ok:
            op.wall_s = math.nan
            self.errors.append(f"{op.family} {op.params}: {op.error}")
        self.ops.append(op)
        return op

    def _span_counts(self, op: Op) -> None:
        a, b = op.spans
        names = [s.name for s in self.tracer.spans[a:b]]
        op.sig["dqn.learn_calls"] = names.count("dqn.learn")
        op.sig["dqn.train_steps"] = names.count("dqn.train_step")

    def _compare(self, op: Op) -> None:
        """Equal inputs must give equal digests and counts."""
        first = self._first_sig.setdefault(op.key, {})
        diff = sorted(k for k in op.sig.keys() & first.keys()
                      if op.sig[k] != first[k])
        for k in op.sig.keys() - first.keys():
            first[k] = op.sig[k]
        if diff:
            raise CheckError("nondeterminism: " + ", ".join(
                f"{k} {first[k]!r} then {op.sig[k]!r}" for k in diff))

    # -- the three families ------------------------------------------------

    def grid_op(self, rnd: int, reps: int, jobs: int) -> Op:
        base_seed = derive_seed(self.seed, "grid", reps)
        out = WORK / "grid"
        op = Op("grid", ("grid", reps), {"reps": reps, "jobs": jobs,
                                            "base_seed": base_seed},
                rnd, self.tracing)
        cli = self.cli

        def body():
            grid = self._cli(["grid", "--design", "full", "--reps", reps,
                              "--jobs", jobs, "--base-seed", base_seed,
                              "--out-dir", out])
            analyze = self._cli(["analyze", "--runs", out / "runs.csv",
                                 "--out-dir", out])
            return grid, analyze

        def check(op, raw):
            (rc, _), (arc, _) = raw
            runs = read_csv(out / "runs.csv", cli.RUNS_HEADER)
            steps = read_csv(out / "steps.csv", cli.STEPS_HEADER)
            regression = read_csv(out / "regression.csv",
                                  cli.REGRESSION_HEADER)
            diverged = sum(r["diverged"] == "true" for r in runs)
            if rc != (cli.EXIT_PARTIAL if diverged else cli.EXIT_OK):
                raise CheckError(f"grid exit {rc} with {diverged} diverged")
            if arc != cli.EXIT_OK:
                raise CheckError(f"analyze exit {arc}")
            if len(runs) != 12 * reps:
                raise CheckError(f"runs.csv has {len(runs)} rows")
            _check_steps(steps, runs, "grid steps.csv")
            finite(runs, "avg_throughput_Bps", "grid runs.csv")
            if len(regression) != 4:
                raise CheckError(f"regression.csv has {len(regression)} rows")
            finite(regression, "coefficient", "regression.csv")
            op.info["runs"] = len(runs)
            op.sig.update({
                "runs.csv": digest(out / "runs.csv"),
                "steps.csv": digest(out / "steps.csv"),
                "regression.csv": digest(out / "regression.csv"),
                "experiments.diverged_runs": diverged,
            })

        return self._op(op, out, body, check)

    def train_op(self, rnd: int, depth: int, error: float) -> Op:
        seed = derive_seed(self.seed, "train", depth, error)
        out = WORK / "train"
        op = Op("train", ("train", depth, error),
                {"layers": depth, "error_rate": error, "seed": seed},
                rnd, self.tracing)
        cli = self.cli

        def body():
            return self._cli(["train", "--layers", depth, "--lr", 0.01,
                              "--error-rate", error, "--seed", seed,
                              "--out-dir", out])

        def check(op, raw):
            rc, _ = raw
            runs = read_csv(out / "runs.csv", cli.RUNS_HEADER)
            steps = read_csv(out / "steps.csv", cli.STEPS_HEADER)
            if len(runs) != 1:
                raise CheckError(f"runs.csv has {len(runs)} rows")
            diverged = runs[0]["diverged"] == "true"
            if rc != (cli.EXIT_DIVERGED if diverged else cli.EXIT_OK):
                raise CheckError(f"train exit {rc}, diverged={diverged}")
            _check_steps(steps, runs, "train steps.csv")
            finite(runs, "avg_throughput_Bps", "train runs.csv")
            op.info["sim_s"] = len(steps) * DECISION_INTERVAL_MS / 1000.0
            op.info["lossy"] = error > 0
            op.sig.update({
                "runs.csv": digest(out / "runs.csv"),
                "steps.csv": digest(out / "steps.csv"),
                "experiments.diverged_runs": int(diverged),
            })

        return self._op(op, out, body, check)

    def sim_op(self, rnd: int, cwnd: int, loss: float,
               duration_ms: float) -> Op:
        base_seed = derive_seed(self.seed, "sim", cwnd, loss)
        out = WORK / "sim"
        op = Op("sim", ("sim", cwnd, loss),
                {"cwnd": cwnd, "loss": loss, "duration_ms": duration_ms,
                 "base_seed": base_seed}, rnd, self.tracing)
        cli = self.cli

        def body():
            return self._cli(["simulate", "--cwnd", cwnd,
                              "--duration-ms", duration_ms,
                              "--override",
                              f"sim.bottleneck_link.loss_prob={loss}",
                              "--base-seed", base_seed, "--out-dir", out])

        def check(op, raw):
            rc, stdout = raw
            if rc != cli.EXIT_OK:
                raise CheckError(f"simulate exit {rc}")
            steps = read_csv(out / "steps.csv", cli.STEPS_HEADER)
            expected = round(duration_ms / DECISION_INTERVAL_MS)
            if len(steps) != expected:
                raise CheckError(f"steps.csv has {len(steps)} rows, "
                                 f"expected {expected}")
            finite(steps, "throughput_Bps", "simulate steps.csv")
            printed = dict(line.split("=", 1)
                           for line in stdout.splitlines() if "=" in line)
            throughput = float(printed["throughput_Bps"])
            if not math.isfinite(throughput) or throughput <= 0:
                raise CheckError(f"simulate throughput {throughput}")
            counts = {name: int(printed[name]) for name in (
                "bytes_sent_total", "segments_acked_total",
                "retransmissions", "drops_error", "drops_queue")}
            op.info["sim_s"] = duration_ms / 1000.0
            op.info["lossy"] = loss > 0
            op.sig.update({"steps.csv": digest(out / "steps.csv"),
                           **{f"netsim.{n}": v for n, v in counts.items()}})

        return self._op(op, out, body, check)

    def run_round(self, family: str, rnd: int, inputs=None,
                  jobs: int = NPROC) -> list[Op]:
        """One op per input; `inputs` defaults to the family's full set."""
        if family == "grid":
            return [self.grid_op(rnd, GRID_REPS, jobs)]
        if family == "train":
            return [self.train_op(rnd, d, e) for d, e in inputs or TRAIN_POINTS]
        return [self.sim_op(rnd, c, loss, dur)
                for c, loss, dur in inputs or SIM_POINTS]

    def traced(self, fn, *args, **kwargs):
        self.tracer.install()
        self.tracing = True
        try:
            return fn(*args, **kwargs)
        finally:
            self.tracing = False
            self.tracer.uninstall()

    # -- the two kinds of run ----------------------------------------------

    def run_untraced(self, seconds: float) -> dict:
        setup = []
        cycle = 0
        self.memory = MemorySampler()
        t0 = time.perf_counter()
        try:
            while (elapsed := time.perf_counter() - t0) < seconds \
                    or cycle < MIN_CYCLES:
                if len(setup) <= elapsed / seconds * SETUP_SAMPLES:
                    setup.append(self.setup_sample())
                for family, inputs in WORKLOADS[self.workload]:
                    self.run_round(family, cycle, inputs)
                cycle += 1
        finally:
            self.memory.close()
            os.sched_setaffinity(0, CPUS)
        self.report["cycles"] = cycle
        return self.end_to_end(setup)

    @staticmethod
    def op_cpus(op: Op) -> frozenset:
        """The CPUs an untraced op runs on.  An in-process op is held on one
        CPU, so that the reference times around it are taken where it ran;
        the grid's pool workers fork onto every CPU, and the reference is
        taken on each."""
        return CPUS if op.family == "grid" else frozenset({min(CPUS)})

    def setup_sample(self) -> tuple[float, float]:
        """(wall time, reference time) of one fresh-interpreter set-up."""
        cpus = frozenset({min(CPUS)})
        before = host_speed(cpus)
        wall = measure_setup()
        self._ref = (cpus, host_speed(cpus))
        return wall, (before + self._ref[1]) / 2

    def run_traced(self) -> dict:
        """Each family runs its inputs untraced, then traced; the overhead
        compares the last untraced round with the first traced one.  Grid
        traces at --jobs 1 so every span is recorded in this process."""
        overhead = {}
        for family in FAMILIES:
            if family == "grid":
                self.run_round("grid", 0)
                plain = self.run_round("grid", 1, jobs=1)
                traced = self.traced(self.run_round, "grid", 2, jobs=1)
            else:
                rounds = TAIL_ROUNDS if family == "train" else 1
                for r in range(rounds):
                    plain = self.run_round(family, r)
                traced = self.traced(self.run_round, family, rounds)
                self.traced(self.run_round, family, rounds + 1)
            overhead[family] = _overhead(plain, traced)
        self.report["tracing_overhead"] = {
            **overhead, "workload_s": _sum_or_none(
                o["traced_minus_untraced_s"] for o in overhead.values())}
        return self.per_layer()

    # -- metrics -----------------------------------------------------------

    def _ok(self, family: str, traced: bool | None = None) -> list[Op]:
        return [op for op in self.ops if op.ok and op.family == family
                and (traced is None or op.traced == traced)]

    def typical(self, family: str) -> dict[tuple, float]:
        """Each operation's median time over its ok untraced repeats, at
        the reference host speed."""
        times: dict[tuple, list] = {}
        for op in self._ok(family, traced=False):
            times.setdefault(op.key, []).append(op.norm_s)
        return {key: statistics.median(v) for key, v in times.items()}

    def end_to_end(self, setup: list[tuple[float, float]]) -> dict:
        params = {op.key: op for op in self.ops}
        train = self.typical("train")
        m = {"setup_s": statistics.median(
            wall * REFERENCE_S / ref for wall, ref in setup)}
        if self.workload == "grid-full":
            m["runs_per_s"] = median_or_none(
                params[key].info["runs"] / s
                for key, s in self.typical("grid").items())
            speed = self.typical("sim")
        else:
            m["runs_per_s"] = (len(train) / sum(train.values())
                               if train else None)
            speed = train
        for d in DEPTHS:
            m[f"train_l{d}_p50_ms"] = median_or_none(
                s * 1e3 for key, s in train.items()
                if params[key].params["layers"] == d)
        for name, lossy in (("sim_speed_clean", False),
                            ("sim_speed_lossy", True)):
            points = [key for key in speed
                      if params[key].info["lossy"] == lossy]
            m[name] = (sum(params[key].info["sim_s"] for key in points)
                       / sum(speed[key] for key in points)) if points else None
        m["peak_rss_mb"] = (self.memory.peak_kib / 1024.0
                            if self.memory.samples else None)
        self.report["memory_samples"] = self.memory.samples
        self.report["setup_s_samples"] = [
            {"wall_s": round(wall, 4), "reference_ms": round(ref * 1e3, 3)}
            for wall, ref in setup]
        walls: dict[str, list] = {}
        refs: dict[str, list] = {}
        for op in self.ops:
            if op.ok:
                key = " ".join(map(str, op.key))
                walls.setdefault(key, []).append(round(op.wall_s, 4))
                refs.setdefault(key, []).append(round(op.ref_s * 1e3, 3))
        self.report["wall_s"] = walls
        self.report["reference_ms"] = {"fast_state": REFERENCE_S * 1e3,
                                       **refs}
        busy = {f: sum(op.wall_s for op in self._ok(f)) for f in FAMILIES}
        total = sum(busy.values())
        self.report["family_share"] = {
            f: t / total if total else None for f, t in busy.items()}
        return m

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        by_name: dict[str, list] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        def med_us(name, tag=None, attr="dur_ns"):
            return median_or_none(getattr(s, attr) / 1e3
                                  for s in by_name.get(name, ())
                                  if tag is None or s.tag == tag)

        m: dict = {}
        m["netsim.advance_us"] = median_or_none(
            s.dur_ns / 1e3 for s in by_name.get("netsim.advance", ())
            if isinstance(s.tag, tuple) and s.tag[0] == "run")
        # per simulate op: advance time over acked segments / transmissions
        segment_bytes = self.cli.SimConfig().segment_bytes
        per_acked, per_tx = [], []
        for op in self._ok("sim", traced=True):
            a, b = op.spans
            adv_us = sum(s.dur_ns for s in spans[a:b]
                         if s.name == "netsim.advance") / 1e3
            if op.params["loss"] > 0:
                tx = op.sig["netsim.bytes_sent_total"] / segment_bytes
                per_tx.append(adv_us / tx)
            else:
                per_acked.append(adv_us / op.sig["netsim.segments_acked_total"])
        m["netsim.us_per_acked_segment"] = median_or_none(per_acked)
        m["netsim.us_per_transmission"] = median_or_none(per_tx)
        first_round = [op for op in self._ok("sim", traced=False)
                       if op.round == 0]
        if len(first_round) == len(SIM_POINTS):
            tx = sum(op.sig["netsim.bytes_sent_total"] for op in first_round)
            acked = sum(op.sig["netsim.segments_acked_total"]
                        for op in first_round)
            m["netsim.transmissions_per_acked"] = \
                tx / segment_bytes / acked
            for name in ("retransmissions", "drops_error", "drops_queue"):
                m[f"netsim.{name}"] = sum(op.sig[f"netsim.{name}"]
                                          for op in first_round)
            self.report["netsim_counts"] = {
                f"cwnd{op.params['cwnd']}_loss{op.params['loss']}":
                    {k: v for k, v in op.sig.items()
                     if k.startswith("netsim.")}
                for op in first_round}

        m["env.step_us"] = med_us("env.step")
        m["env.step_self_us"] = med_us("env.step", attr="self_ns")
        m["env.reset_us"] = med_us("env.reset")
        for call in _DQN_CALLS:
            for d in DEPTHS:
                m[f"dqn.{call}_us.l{d}"] = med_us(f"dqn.{call}", ("run", d))
        learn_calls = len(by_name.get("dqn.learn", ()))
        m["dqn.learn_useful_frac"] = (
            len(by_name.get("dqn.train_step", ())) / learn_calls
            if learn_calls else None)

        parts = {"sim": ("env.step", "env.reset"),
                 "act": ("dqn.select_action",),
                 "learn": ("dqn.learn",)}
        for d in DEPTHS:
            tag = ("run", d)
            runs = [s for s in by_name.get("experiments.execute_run", ())
                    if s.tag == tag]
            m[f"experiments.run_ms.l{d}"] = median_or_none(
                s.dur_ns / 1e6 for s in runs)
            total = sum(s.dur_ns for s in runs)
            for part, names in parts.items():
                m[f"experiments.{part}_share.l{d}"] = (sum(
                    s.dur_ns for n in names for s in by_name.get(n, ())
                    if s.tag == tag) / total) if total else None
            m[f"experiments.self_share.l{d}"] = (
                sum(s.self_ns for s in runs) / total) if total else None
        grids = self._ok("grid")
        m["experiments.diverged_runs"] = (
            grids[0].sig["experiments.diverged_runs"] if grids else None)

        m["stats.ols_fit_us"] = med_us("stats.ols_fit")
        write_ms, efficiency = [], []
        wide = {op.key: op.wall_s for op in grids
                if op.params["jobs"] == NPROC}
        for op in self._ok("grid", traced=True):
            a, b = op.spans
            write_ms.append(sum(s.dur_ns for s in spans[a:b]
                                if s.name == "cli.write_csv") / 1e6)
            run_s = sum(s.dur_ns for s in spans[a:b]
                        if s.name == "experiments.execute_run") / 1e9
            if op.key in wide:
                efficiency.append(run_s / (NPROC * wide[op.key]))
        m["cli.write_csv_ms"] = median_or_none(write_ms)
        m["cli.parallel_efficiency"] = median_or_none(efficiency)

        train_ms = [op.wall_s * 1e3 for op in self._ok("train", traced=False)]
        if train_ms:
            m["train_tail_ms"] = percentile(train_ms, TAIL_PERCENTILE)
            self.report["train_tail"] = {
                "percentile": TAIL_PERCENTILE, "samples": len(train_ms),
                "samples_beyond": sum(v > m["train_tail_ms"]
                                      for v in train_ms)}

        self.report["learn_share_l8"] = {
            "traced": m["experiments.learn_share.l8"],
            "roadmap_baseline": LEARN_SHARE_L8_BASELINE,
            "attributed_to_named_spans": (
                1.0 - m["experiments.self_share.l8"]
                if m["experiments.self_share.l8"] is not None else None)}
        self.report["spans"] = len(spans)
        return m


def _check_steps(steps: list[dict], runs: list[dict], where: str) -> None:
    """Every run has a full episode of steps, or at most one if it
    diverged; throughputs are finite."""
    per_run: dict[str, int] = {}
    for row in steps:
        per_run[row["run_id"]] = per_run.get(row["run_id"], 0) + 1
    for run in runs:
        n = per_run.pop(run["run_id"], 0)
        full = n == EPISODE_LENGTH
        if not (full or (run["diverged"] == "true" and 0 < n <= EPISODE_LENGTH)):
            raise CheckError(f"{where}: run {run['run_id']} has {n} steps")
    if per_run:
        raise CheckError(f"{where}: steps for unknown runs {sorted(per_run)}")
    finite(steps, "throughput_Bps", where)


def _overhead(plain: list[Op], traced: list[Op]) -> dict:
    untraced_s = _sum_or_none(op.wall_s for op in plain)
    traced_s = _sum_or_none(op.wall_s for op in traced)
    diff = (traced_s - untraced_s
            if untraced_s is not None and traced_s is not None else None)
    return {"untraced_s": untraced_s, "traced_s": traced_s,
            "traced_minus_untraced_s": diff,
            "share": diff / untraced_s if diff is not None else None}


def _sum_or_none(values):
    values = list(values)
    if not values or any(v is None or math.isnan(v) for v in values):
        return None
    return sum(values)


def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports rlcc, resolves the
    default configs and builds one Simulator."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def provenance() -> dict:
    import numpy
    import scipy
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        build = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    loc = sum(len(p.read_text().splitlines())
              for p in sorted((SRC / "rlcc").glob("*.py")))
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": build,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_rlcc_loc": loc,
    }


def import_rlcc():
    """Import rlcc from this checkout's src/, never from elsewhere."""
    if not (SRC / "rlcc" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'rlcc'} not found; run the "
                         "benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rlcc.cli
    if Path(rlcc.__file__).resolve().parent != (SRC / "rlcc").resolve():
        raise SystemExit(f"error: imported rlcc from {rlcc.__file__}")
    return rlcc.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        parser.error("--seconds must be positive")

    cli = import_rlcc()
    from spans import Tracer   # bench/ is on sys.path as the script's dir

    shutil.rmtree(WORK, ignore_errors=True)
    bench = Bench(cli, args.seed, args.workload,
                  tracer=Tracer() if args.trace else None)
    bench.report.update(workload=args.workload, seed=args.seed,
                        trace=args.trace, provenance=provenance())
    try:
        if args.trace:
            metrics, units = bench.run_traced(), PER_LAYER
        else:
            metrics, units = bench.run_untraced(args.seconds), END_TO_END
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    missing = sorted(k for k in units if metrics.get(k) is None)
    if missing:
        bench.errors.append(f"metrics not measured: {missing}")
    failed = sum(not op.ok for op in bench.ops)
    bench.report["ops"] = {f: {"attempted": sum(op.family == f
                                                 for op in bench.ops),
                               "failed": sum(op.family == f and not op.ok
                                             for op in bench.ops)}
                           for f in FAMILIES}
    bench.report["digests"] = {" ".join(map(str, k)): v
                               for k, v in bench._first_sig.items()
                               if k[0] == "grid"}
    bench.report["errors"] = bench.errors
    print(json.dumps(bench.report, indent=1, default=str))
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
