"""Tests of the benchmark itself, on a tiny config (40-step episodes).

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
from spans import Tracer, layer_targets  # noqa: E402

cli = bench.import_rlcc()
from rlcc import dqn, experiments  # noqa: E402

TINY = ["--override", "env.episode_length=40"]


def _grid(out: Path, jobs: int) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["grid", "--design", "full", "--reps", "1",
                        "--jobs", str(jobs), "--base-seed", "7",
                        "--out-dir", str(out), *TINY]) == cli.EXIT_OK
        assert cli.run(["analyze", "--runs", str(out / "runs.csv"),
                        "--out-dir", str(out)]) == cli.EXIT_OK
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("runs.csv", "steps.csv", "regression.csv")}


@pytest.fixture(scope="module")
def traced_grid(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grid")
    untraced = _grid(tmp / "untraced", jobs=2)
    tracer = Tracer()
    with tracer:
        traced = _grid(tmp / "traced", jobs=1)
    return untraced, traced, tracer


def test_digests_equal_traced_and_untraced(traced_grid):
    untraced, traced, _ = traced_grid
    assert traced == untraced


def test_spans_nest_and_self_time_is_non_negative(traced_grid):
    spans = traced_grid[2].spans
    names = {s.name for s in spans}
    assert {name for name, *_ in layer_targets()} <= names
    for s in spans:
        assert s.end_ns >= s.start_ns
        assert s.self_ns >= 0
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start_ns <= s.start_ns and s.end_ns <= p.end_ns
    runs = [s for s in spans if s.name == "experiments.execute_run"]
    assert len(runs) == 12
    assert {s.tag for s in runs} == {("run", 2), ("run", 4), ("run", 8)}
    for s in spans:
        if s.name.startswith("dqn."):
            assert s.tag[0] == "run"


def test_wrapped_calls_return_what_unwrapped_calls_return():
    _, env_cfg, dqn_cfg = cli.build_configs({"env.episode_length": "40"})
    spec = experiments.enumerate_runs(experiments.FactorLevels(),
                                      reps=1, base_seed=3)[-1]
    plain = experiments.execute_run(spec, env_cfg, dqn_cfg)
    with Tracer():
        traced = experiments.execute_run(spec, env_cfg, dqn_cfg)
    without_time = lambda rec: dataclasses.replace(rec, wall_time_ms=0)
    assert without_time(traced[0]) == without_time(plain[0])
    assert traced[1] == plain[1]

    agent = dqn.DqnAgent(dqn.DqnConfig(seed=5))
    batch = [dqn.Transition(np.full(6, i / 10), i % 3, 0.5, np.full(6, i / 9),
                            i % 2 == 0) for i in range(8)]
    expected = dqn.td_targets(batch, agent.target_net, 0.9)
    with Tracer():
        got = dqn.td_targets(batch, agent.target_net, 0.9)
    assert np.array_equal(got, expected)

    sentinel = object()
    assert Tracer().wrap("x", lambda: sentinel)() is sentinel


def test_uninstall_restores_every_original():
    before = [owner.__dict__[attr] for _, owner, attr, _ in layer_targets()]
    with Tracer():
        during = [owner.__dict__[attr] for _, owner, attr, _ in layer_targets()]
    after = [owner.__dict__[attr] for _, owner, attr, _ in layer_targets()]
    assert after == before
    assert all(a is not b for a, b in zip(during, before))


def test_memory_sampler_counts_live_children():
    sampler = bench.MemorySampler()
    try:
        with sampler.measuring():
            alone = sum(map(bench.pss_kib, [os.getpid()]))
            child = subprocess.Popen(
                [sys.executable, "-c",
                 "import sys; b = b\"x\" * (64 << 20); sys.stdin.read()"],
                stdin=subprocess.PIPE)
            try:
                deadline = time.monotonic() + 30
                while bench.pss_kib(child.pid) < 60 << 10:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                assert child.pid in bench.child_pids(os.getpid())
                sampler.sample()
            finally:
                child.communicate(b"")
    finally:
        sampler.close()
    assert sampler.peak_kib >= alone + (60 << 10)
    assert bench.pss_kib(child.pid) == 0


def test_host_speed_pins_the_thread_and_scales_times():
    one = frozenset({min(bench.CPUS)})
    try:
        assert bench.host_speed(one) > 0
        assert os.sched_getaffinity(0) == one
    finally:
        bench.host_speed(bench.CPUS)
    assert os.sched_getaffinity(0) == bench.CPUS
    op = bench.Op("train", ("train",), {}, 0, False, wall_s=0.3,
                  ref_s=2 * bench.REFERENCE_S)
    assert op.norm_s == pytest.approx(0.15)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-full",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
