import ast
import builtins
import concurrent.futures
import csv
import gc
import itertools
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rlcc
from rlcc import cli, experiments, schema
from rlcc.cli import (CONFIG_KEYS, FACTOR_KEYS, REGRESSION_HEADER, RUNS_HEADER,
                      STEPS_HEADER, CliError, build_configs, int64,
                      parse_config_file, run, write_csv_atomic)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_cli(*argv):
    return run(list(argv))


FAST = ["--override", "env.episode_length=40",
        "--override", "dqn.train_updates_per_step=1"]


def write_runs_csv(path, edit=None):
    """A well-formed 12-run runs.csv; `edit` may alter its rows of cells
    (header first) before they are written."""
    table = [list(RUNS_HEADER)]
    for i, (layers, error_rate, rep) in enumerate(
            itertools.product((2, 4, 8), (0.0, 0.2), (0, 1))):
        row = dict.fromkeys(RUNS_HEADER, "1")
        row.update(layers=str(layers), learning_rate="0.01",
                   error_rate=repr(error_rate), rep=str(rep),
                   avg_throughput_Bps=repr(1e4 + 10 * layers
                                           - 500 * error_rate + i),
                   convergence_step="", diverged="false")
        table.append([row[col] for col in RUNS_HEADER])
    if edit is not None:
        edit(table)
    # latin-1 writes a cell "\xff" as the byte 0xff, which is not UTF-8
    with open(path, "w", newline="", encoding="latin-1") as fh:
        csv.writer(fh).writerows(table)


def set_cell(column, value, row=3):
    def edit(table):
        table[row][RUNS_HEADER.index(column)] = value
    return edit


def drop_column(column):
    def edit(table):
        for row in table:
            del row[RUNS_HEADER.index(column)]
    return edit


def truncate_row(table):
    del table[3][RUNS_HEADER.index("error_rate") + 1:]


MALFORMED_RUNS = {
    "non-numeric factor": set_cell("layers", "two"),
    "non-numeric response": set_cell("avg_throughput_Bps", "fast"),
    "empty response": set_cell("avg_throughput_Bps", ""),
    "nan response": set_cell("avg_throughput_Bps", "nan"),
    "inf response": set_cell("avg_throughput_Bps", "-inf"),
    # finite, but its sum of squares is not
    "overflowing response": set_cell("avg_throughput_Bps", "1e300"),
    "unknown diverged flag": set_cell("diverged", "yes"),
    "no diverged column": drop_column("diverged"),
    # the pooled factor of the default --factors error_rate,layers
    "no pooled column": drop_column("learning_rate"),
    "short row": truncate_row,
    "undecodable byte": set_cell("layers", "\xff"),
    # one character over the csv module's default field size limit
    "oversized cell": set_cell("avg_throughput_Bps", "1" * 131_073),
}


def assert_exits_2(capsys, *argv):
    """The command exits 2 with an error line and no traceback."""
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


def flat_config(sim_cfg, env_cfg, dqn_cfg) -> dict:
    """Dotted key -> value for every leaf field; env.sim is the sim section."""
    out = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            for name, inner in value.items():
                walk(f"{prefix}.{name}", inner)
        else:
            out[prefix] = value

    walk("sim", asdict(sim_cfg))
    walk("env", {k: v for k, v in asdict(env_cfg).items() if k != "sim"})
    walk("dqn", asdict(dqn_cfg))
    return out


class TestConfigParsing:
    def test_key_value_with_comments(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            "# comment line\n"
            "sim.segment_bytes = 500\n"
            "dqn.gamma=0.9  # trailing comment\n"
            "\n"
            "env.episode_length=100\n")
        settings = parse_config_file(str(cfg))
        assert settings == {"sim.segment_bytes": "500", "dqn.gamma": "0.9",
                            "env.episode_length": "100"}
        sim_cfg, env_cfg, dqn_cfg = build_configs(settings)
        assert sim_cfg.segment_bytes == 500
        assert env_cfg.sim.segment_bytes == 500
        assert env_cfg.episode_length == 100
        assert dqn_cfg.gamma == 0.9

    def test_unknown_key_rejected(self):
        with pytest.raises(CliError):
            build_configs({"sim.mtu": "1500"})

    @pytest.mark.parametrize("key", ["sim.seed", "dqn.seed"])
    def test_seed_keys_rejected(self, key):
        # seeds come from --base-seed / --seed, never from a config key
        with pytest.raises(CliError, match="unknown configuration key"):
            build_configs({key: "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(CliError):
            build_configs({"dqn.gamma": "fast"})

    def test_invalid_config_value_rejected(self):
        with pytest.raises(CliError):
            build_configs({"sim.queue_capacity_segments": "0"})

    #: Valid non-default values for keys where "40" / "0.5" alone is not.
    ONE_KEY_VALUES = {"sim.ack_bytes": "20", "sim.rto_ms": "900",
                      "sim.cwnd_max": "300", "dqn.hidden_count": "4"}

    def test_every_registered_key_applies(self):
        default = flat_config(*build_configs({}))
        assert list(CONFIG_KEYS) == [
            key for key, value in default.items()
            if not key.endswith(".seed") and type(value) in (int, float)]
        for key, cast in CONFIG_KEYS.items():
            raw = self.ONE_KEY_VALUES.get(key,
                                          "40" if cast is int64 else "0.5")
            sim_cfg, env_cfg, dqn_cfg = build_configs({key: raw})
            assert env_cfg.sim == sim_cfg
            resolved = flat_config(sim_cfg, env_cfg, dqn_cfg)
            assert {k for k in default if resolved[k] != default[k]} == {key}
            assert resolved[key] == cast(raw)

        settings = {key: "40" if cast is int64 else "0.5"
                    for key, cast in CONFIG_KEYS.items()}
        settings["sim.segment_bytes"] = "1000"
        settings["sim.rto_ms"] = "1000"
        settings["dqn.hidden_count"] = "4"
        settings["dqn.batch_size"] = "16"
        build_configs(settings)

    @pytest.mark.parametrize("key", ["sim.bottleneck_link.rate_bps",
                                     "sim.segment_bytes"])
    def test_largest_int64_accepted(self, key):
        resolved = flat_config(*build_configs({key: str(2 ** 63 - 1)}))
        assert resolved[key] == 2 ** 63 - 1


class TestInvalidInput:
    @pytest.mark.parametrize("argv", [
        ("simulate", "--duration-ms", "-5"),
        ("simulate", "--duration-ms", "nan"),
        ("simulate", "--duration-ms", "inf"),
        ("simulate", "--override", "sim.rto_ms=nan"),
        ("simulate", "--override", "sim.bottleneck_link.prop_delay_ms=nan"),
        ("train", "--override", "env.decision_interval_ms=inf"),
        ("train", "--error-rate", "1.5"),
        ("baseline", "--error-rate", "-0.1"),
        ("train", "--lr", "0"),
        ("train", "--seed", "-1"),
        ("baseline", "--seed", "-1"),
        ("grid", "--jobs", "0", "--reps", "1"),
        ("grid", "--jobs", "-3", "--reps", "1"),
        ("grid", "--reps", "0"),
        ("grid", "--reps", "-1"),
        # a cell past MAX_STEPS steps: 501 * 200, then one that would run
        # until it is killed
        ("grid", "--reps", "501", "--jobs", "1"),
        ("grid", "--reps", str(2 ** 63 - 1), "--jobs", "1"),
        ("simulate", "--base-seed", "-1"),
        ("train", "--base-seed", "-1"),
        ("baseline", "--base-seed", "-1"),
        ("grid", "--reps", "1", "--base-seed", "-1"),
        ("simulate", "--duration-ms", "1e12"),
        ("simulate", "--duration-ms", "10000100"),
        ("simulate", "--duration-ms", "200000",
         "--override", "env.decision_interval_ms=1"),
        ("simulate", "--duration-ms", "1",
         "--override", "env.decision_interval_ms=1e12"),
        ("simulate", "--duration-ms", "1",
         "--override", "env.decision_interval_ms=5e-324"),
        ("train", "--override", "env.decision_interval_ms=1e12"),
        ("train", "--override", "env.episode_length=100001",
         "--override", "env.decision_interval_ms=0.01"),
        ("baseline", "--override", "env.decision_interval_ms=50001"),
        ("grid", "--reps", "1", "--override", "env.decision_interval_ms=1e12"),
        # positive in ms but 0 in seconds, and within the step budget
        ("train", "--override", "env.decision_interval_ms=5e-324"),
        ("baseline", "--override", "env.decision_interval_ms=5e-324"),
        ("grid", "--reps", "1", "--jobs", "1",
         "--override", "env.decision_interval_ms=5e-324"),
        ("simulate", "--duration-ms", "1e-321",
         "--override", "env.decision_interval_ms=5e-324"),
        # channel error is a bottleneck field only
        ("simulate", "--override", "sim.access_link.loss_prob=0.5"),
        # the agent's window range is the simulator's [1, sim.cwnd_max]
        ("train", "--override", "env.cwnd_min=1"),
        ("train", "--override", "env.cwnd_max=200"),
        # integer keys must fit in int64
        pytest.param(("train", "--override",
                      "sim.bottleneck_link.rate_bps=1" + "0" * 400),
                     id="train rate_bps=1e400"),
        pytest.param(("simulate", "--override",
                      "sim.segment_bytes=1" + "0" * 400,
                      "--override", "sim.ack_bytes=1"),
                     id="simulate segment_bytes=1e400 ack_bytes=1"),
        ("train", "--override", f"sim.bottleneck_link.rate_bps={2 ** 63}"),
        # arrays of hundreds of TiB: the allocation fails at once
        ("train", "--override", "dqn.buffer_capacity=10000000000000"),
        ("train", "--override", "dqn.hidden_width=10000000"),
        ("grid", "--reps", "1", "--jobs", "2",
         "--override", "dqn.buffer_capacity=10000000000000"),
        # past intp numpy raises ValueError, not MemoryError
        ("train", "--override", f"dqn.hidden_width={2 ** 63 - 1}"),
        ("train", "--override", "dqn.hidden_width=3037000500"),
        ("train", "--override", f"dqn.buffer_capacity={2 ** 63 - 1}"),
        ("grid", "--reps", "1", "--jobs", "2",
         "--override", f"dqn.buffer_capacity={2 ** 63 - 1}"),
        # simulate's first advance makes a record per window segment
        ("simulate", "--cwnd", "100001",
         "--override", "sim.cwnd_max=100001"),
        ("simulate", "--cwnd", str(2 ** 63 - 1),
         "--override", f"sim.cwnd_max={2 ** 63 - 1}"),
        # past 4 * MAX_STEPS learner updates a run; under 32 steps fill no
        # batch, so a run that slipped past the check would still be quick
        ("train", "--override", "env.episode_length=31",
         "--override", "dqn.train_updates_per_step=12904"),
        ("grid", "--reps", "1", "--jobs", "1",
         "--override", "env.episode_length=1",
         "--override", "dqn.train_updates_per_step=400001"),
    ], ids=" ".join)
    def test_exits_2_with_error_line(self, tmp_path, capsys, argv):
        assert_exits_2(capsys, *argv, "--out-dir", str(tmp_path))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["simulate", "train", "baseline",
                                         "grid"])
    def test_negative_base_seed_names_the_flag(self, tmp_path, capsys,
                                               command):
        assert run_cli(command, "--base-seed", "-1",
                       "--out-dir", str(tmp_path)) == 2
        assert capsys.readouterr().err == "error: --base-seed must be >= 0\n"

    def test_learner_update_budget(self, tmp_path, capsys):
        # one step fills no batch, so the run at the budget learns nothing
        argv = ("train", "--override", "env.episode_length=1")
        assert run_cli(*argv, "--override", "dqn.train_updates_per_step=400000",
                       "--out-dir", str(tmp_path / "at")) == 0
        capsys.readouterr()
        assert run_cli(*argv, "--override", "dqn.train_updates_per_step=400001",
                       "--out-dir", str(tmp_path / "past")) == 2
        assert capsys.readouterr().err == (
            "error: env.episode_length * dqn.train_updates_per_step = "
            "1 * 400001 exceeds the budget of 400000 updates\n")
        assert os.listdir(tmp_path / "past") == []

    def test_grid_cell_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_STEPS", 80)
        argv = ("grid", *FAST, "--jobs", "1")   # 40 steps a run
        assert run_cli(*argv, "--reps", "2",
                       "--out-dir", str(tmp_path / "at")) == 0
        capsys.readouterr()
        assert run_cli(*argv, "--reps", "3",
                       "--out-dir", str(tmp_path / "past")) == 2
        assert capsys.readouterr().err == (
            "error: --reps * env.episode_length = 3 * 40 exceeds 80 steps\n")
        assert os.listdir(tmp_path / "past") == []

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"sim.rto_ms=\xff\n")
        out_dir = tmp_path / "out"
        assert_exits_2(capsys, "simulate", "--config", str(cfg),
                       "--out-dir", str(out_dir))
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize("key", sorted(FACTOR_KEYS.values()))
    def test_grid_rejects_factor_key(self, tmp_path, capsys, key):
        code = run_cli("grid", *FAST, "--reps", "1", "--jobs", "1",
                       "--override", f"{key}=0.1", "--out-dir", str(tmp_path))
        assert code == 2
        assert "set by the grid design" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


# values at the edges of what a config key or flag reads, and text that is
# no number
EDGE_VALUES = ["nan", "inf", "-inf", "-0.0", "0", "1", "0.5", "1e300",
               "5e-324", "-1", str(2 ** 63 - 1), "abc"]
# each command's flags for a short run, before FAST
SHORT = {"simulate": ("--duration-ms", "1000"), "train": (), "baseline": (),
         "grid": ("--reps", "1", "--jobs", "1")}
# the flags each command reads a value from, drawn after SHORT's
FLAGS = {"simulate": ("--cwnd", "--duration-ms", "--base-seed"),
         "train": ("--layers", "--lr", "--error-rate", "--seed",
                   "--base-seed"),
         "baseline": ("--error-rate", "--seed", "--base-seed"),
         "grid": ("--reps", "--base-seed")}


def edge_edits(names, most):
    return st.lists(st.tuples(st.sampled_from(names),
                              st.sampled_from(EDGE_VALUES)), max_size=most)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=st.one_of([st.tuples(st.just(command), edge_edits(flags, 2))
                       for command, flags in FLAGS.items()]),
       overrides=edge_edits(sorted(CONFIG_KEYS), 3))
# few drawn runs get past the checks; these two diverge (exits 3 and 4)
@example(case=("train", []), overrides=[("dqn.learning_rate", "1e300")])
@example(case=("grid", []), overrides=[("sim.segment_bytes", str(2 ** 63 - 1))])
# a grid past its budget, which would run until it is killed
@example(case=("grid", [("--reps", str(2 ** 63 - 1))]), overrides=[])
def test_exit_code_is_in_the_contract(case, overrides):
    """Every command, under any 0-2 of its flags and 0-3 overrides set to
    edge values, returns 0, 2, 3 or 4 with nothing escaping run() and no
    numpy warning.  An exit 2 writes no file and ends stderr with its one
    error line, or argparse's usage and error; exits 0, 3 and 4 write the
    command's CSVs, each headed by its schema's columns."""
    import io
    import warnings
    from contextlib import redirect_stderr, redirect_stdout

    command, flags = case
    argv = [command, *SHORT[command], *FAST]
    for flag, value in flags:
        argv += [flag, value]
    for key, value in overrides:
        argv += ["--override", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as out_dir, \
            warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        code = run_cli(*argv, "--out-dir", out_dir)
        headers = {name: read_csv(os.path.join(out_dir, name))[0]
                   for name in os.listdir(out_dir)}
    assert code in (0, 2, 3, 4)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code == 2:
        assert headers == {}
        *before, last = err.getvalue().splitlines()
        if before and before[0].startswith("usage:"):
            assert last.startswith(f"rlcc {command}: error:")
        else:
            assert last.startswith("error:")
            assert all(line.startswith("warning:") for line in before)
    else:
        assert headers == ({"steps.csv": STEPS_HEADER} if command == "simulate"
                           else {"runs.csv": RUNS_HEADER,
                                 "steps.csv": STEPS_HEADER})


#: write_runs_csv's cells, in its row order, as analyze labels them
RUNS_CSV_CELLS = [f"cell error_rate={error_rate} layers={layers}"
                  for layers in (2, 4, 8) for error_rate in (0.0, 0.2)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(row=st.integers(1, 12), column=st.sampled_from(RUNS_HEADER),
       value=st.sampled_from([*EDGE_VALUES, ""]))
# another spelling of a declared level, and a response that overflows
@example(row=1, column="error_rate", value="-0.0")
@example(row=1, column="avg_throughput_Bps", value="1e300")
def test_analyze_exit_code_is_in_the_contract(row, column, value):
    """analyze on a runs.csv with any one cell set to an edge value returns
    0 or 2 with nothing escaping run().  An exit 2 prints one error line and
    writes no regression.csv; an exit 0 writes one headed REGRESSION_HEADER
    with every standard error positive, and labels the file's six cells."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    import numpy as np

    def edit(table):
        table[row][RUNS_HEADER.index(column)] = value
    with tempfile.TemporaryDirectory() as out_dir, np.errstate(all="ignore"), \
            redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()) as err:
        runs = os.path.join(out_dir, "runs.csv")
        write_runs_csv(runs, edit)
        code = run_cli("analyze", "--runs", runs, "--out-dir", out_dir)
        regression = os.path.join(out_dir, "regression.csv")
        table = read_csv(regression) if os.path.exists(regression) else None
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
        assert table is None
    else:
        header, *rows = table
        assert header == REGRESSION_HEADER
        std_error = header.index("std_error")
        assert all(float(r[std_error]) > 0 for r in rows)
        assert [line.split(":")[0] for line in err.getvalue().splitlines()] \
            == RUNS_CSV_CELLS


class TestOutDir:
    @pytest.fixture(params=["a file", "under a file", "unwritable"])
    def unusable_out_dir(self, request, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        if request.param == "unwritable":
            # root ignores mode bits, so the write check is made to fail
            access = os.access
            monkeypatch.setattr(os, "access", lambda path, mode, **kw: (
                path != str(tmp_path) and access(path, mode, **kw)))
            return tmp_path
        return blocker if request.param == "a file" else blocker / "sub"

    @pytest.mark.parametrize("argv", [
        ("simulate", "--duration-ms", "100"),
        ("train", *FAST),
        ("grid", *FAST, "--reps", "1", "--jobs", "1"),
    ], ids=lambda argv: argv[0])
    def test_exits_2_before_any_run(self, unusable_out_dir, capsys,
                                    monkeypatch, argv):
        calls = []
        monkeypatch.setattr(experiments, "execute_run",
                            lambda *a, **kw: calls.append(a))
        assert run_cli(*argv, "--out-dir", str(unusable_out_dir)) == 2
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: cannot use --out-dir")
        assert calls == []


def _reference_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_write_csv(path, header, rows) -> None:
    """The cell-by-cell writer that write_csv_atomic replaced: rows are dicts
    keyed by header, and each cell is formatted before csv sees it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_reference_fmt(row[col]) for col in header])


def reference_record_row(rec) -> dict:
    """runs.csv's row as the reference writer took it."""
    row = asdict(rec.spec)
    row.update((col, getattr(rec, col)) for col in RUNS_HEADER
               if col not in row)
    return row


CSV_CELLS = st.one_of(
    st.none(),
    st.integers(-(2 ** 63 - 1), 2 ** 63 - 1),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1,
                     1e16]),
    st.floats(),
    st.sampled_from(["", ",", '"', "\n", 'a,"b"\r\nc']),
    st.text(max_size=12))


def assert_writers_agree(directory, header, rows):
    new = os.path.join(directory, "new.csv")
    ref = os.path.join(directory, "ref.csv")
    write_csv_atomic(new, header, rows)
    reference_write_csv(ref, header, [dict(zip(header, row)) for row in rows])
    with open(new, "rb") as a, open(ref, "rb") as b:
        assert a.read() == b.read()


class TestAtomicCsv:
    def test_write_and_content(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv_atomic(str(path), ["a", "b"], [(1, None), [2.5, "x"]])
        assert read_csv(path) == [["a", "b"], ["1", ""], ["2.5", "x"]]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 8).flatmap(lambda width: st.lists(
        st.lists(CSV_CELLS, min_size=width, max_size=width), max_size=6)))
    def test_matches_reference_writer(self, rows):
        header = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
        with tempfile.TemporaryDirectory() as directory:
            assert_writers_agree(directory, header, rows)

    def test_lone_empty_cell_is_quoted(self, tmp_path):
        assert_writers_agree(str(tmp_path), ["a"], [[None], [""]])
        assert (tmp_path / "new.csv").read_bytes() == b'a\r\n""\r\n""\r\n'

    def test_runs_csv_diverged_reads_true_or_false(self, tmp_path):
        spec = schema.RunSpec(run_id="r", layers=2, learning_rate=0.01,
                              error_rate=0.2, rep=0, seed=7)
        records = [schema.RunRecord(
            spec=spec, avg_throughput_Bps=1.5, max_throughput_Bps=2.0,
            convergence_step=conv, cumulative_reward=0.1, final_cwnd=4,
            diverged=diverged, wall_time_ms=3)
            for conv, diverged in ((None, True), (25, False))]
        path = tmp_path / "runs.csv"
        write_csv_atomic(str(path), RUNS_HEADER,
                         [cli.record_to_row(r) for r in records])
        rows = read_csv(path)
        assert [row[RUNS_HEADER.index("diverged")] for row in rows[1:]] \
            == ["true", "false"]
        reference_write_csv(tmp_path / "ref.csv", RUNS_HEADER,
                            [reference_record_row(r) for r in records])
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv_atomic(str(path), ["a"], [[1]])
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_mode_is_what_open_gives(self, tmp_path, capsys, umask):
        # 0o666 less the umask, as open(path, "w") creates a file
        old = os.umask(umask)
        try:
            write_csv_atomic(str(tmp_path / "out.csv"), ["a"], [[1]])
            assert run_cli("simulate", "--duration-ms", "500",
                           "--out-dir", str(tmp_path / "sim")) == 0
        finally:
            os.umask(old)
        for path in (tmp_path / "out.csv", tmp_path / "sim" / "steps.csv"):
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failure_leaves_previous_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv_atomic(str(path), ["a"], [[1]])

        def bad_rows():
            yield [2]
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_csv_atomic(str(path), ["a"], bad_rows())
        assert read_csv(path) == [["a"], ["1"]]
        assert os.listdir(tmp_path) == ["out.csv"]


def test_every_csv_goes_through_write_csv_atomic(tmp_path, capsys,
                                                 monkeypatch):
    # the bench times CSV writes by wrapping this module attribute, so a
    # command that bypassed it would read as writing nothing
    written = []
    original = cli.write_csv_atomic

    def recorder(path, header, rows):
        written.append(os.path.abspath(path))
        original(path, header, rows)

    monkeypatch.setattr(cli, "write_csv_atomic", recorder)
    grid = tmp_path / "grid"
    for argv in (("simulate", "--duration-ms", "500"),
                 ("train", *FAST),
                 ("baseline", "--override", "env.episode_length=40"),
                 ("grid", *FAST, "--reps", "1", "--jobs", "1"),
                 ("analyze", "--runs", str(grid / "runs.csv"))):
        out = grid if argv[0] == "grid" else tmp_path / argv[0]
        assert run_cli(*argv, "--out-dir", str(out)) == 0
    on_disk = sorted(str(path) for path in tmp_path.rglob("*.csv"))
    assert len(on_disk) == 8
    assert sorted(written) == on_disk


def test_every_exception_class_is_caught_in_src():
    # a package exception class earns its name only where the package
    # itself catches it by type; every other raise is a builtin exception
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(
            node, "attr", None)

    nodes = [node for path in Path(rlcc.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))]
    caught = {name(n) for handler in nodes
              if isinstance(handler, ast.ExceptHandler) and handler.type
              for n in ast.walk(handler.type)}
    exceptions = {key for key, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}
    classes = [n for n in nodes if isinstance(n, ast.ClassDef)]
    defined = []
    while True:   # until subclasses of package exception classes are in
        found = [cls.name for cls in classes if cls.name not in exceptions
                 and any(name(base) in exceptions for base in cls.bases)]
        if not found:
            break
        defined += found
        exceptions.update(found)
    assert defined
    assert [cls for cls in defined if cls not in caught] == []


def assert_unread_keys_named(tmp_path, capsys, argv, read, unread):
    """With `unread` added to a config file of `read` keys, the command
    writes the same exit code, stdout and CSVs, and names exactly the
    unread keys in one stderr line."""
    results = []
    for name, settings in (("read", read), ("both", {**read, **unread})):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        out = tmp_path / name
        code = run_cli(*argv, "--config", str(cfg), "--out-dir", str(out))
        captured = capsys.readouterr()
        csvs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        results.append((code, captured.out, csvs, captured.err))
    (code, out, csvs, err), (code2, out2, csvs2, err2) = results
    assert code == code2 == 0
    assert (out2, csvs2) == (out, csvs)
    assert err == ""
    assert err2 == f"warning: {argv[0]} ignores {', '.join(sorted(unread))}\n"


def test_csv_column_lists():
    # the headers derive from dataclass fields; reordering a field must not
    # silently reorder a CSV
    assert STEPS_HEADER == ["run_id", "step", "cwnd", "throughput_Bps",
                            "avg_rtt_ms", "reward", "epsilon", "loss"]
    assert RUNS_HEADER == ["run_id", "layers", "learning_rate", "error_rate",
                           "rep", "seed", "avg_throughput_Bps",
                           "max_throughput_Bps", "convergence_step",
                           "cumulative_reward", "final_cwnd", "diverged"]
    assert REGRESSION_HEADER == ["term", "influence", "coefficient",
                                 "std_error", "t_value", "p_value"]
    assert all(type(header) is list
               for header in (STEPS_HEADER, RUNS_HEADER, REGRESSION_HEADER))


class TestSimulate:
    def test_steps_csv_schema_and_summary(self, tmp_path, capsys):
        code = run_cli("simulate", "--cwnd", "64", "--duration-ms", "3000",
                       "--out-dir", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput_Bps=" in out
        rows = read_csv(tmp_path / "steps.csv")
        assert rows[0] == STEPS_HEADER
        assert len(rows) == 31
        # reward/epsilon/loss are agent columns, blank here
        assert rows[1][5:] == ["", "", ""]

    def test_avg_rtt_reads_zero_before_first_sample(self, tmp_path, capsys):
        # a 200 ms bottleneck delay puts the first RTT sample past 400 ms
        assert run_cli("simulate", "--cwnd", "4", "--duration-ms", "1000",
                       "--override", "sim.bottleneck_link.prop_delay_ms=200",
                       "--out-dir", str(tmp_path)) == 0
        rtts = [row[STEPS_HEADER.index("avg_rtt_ms")]
                for row in read_csv(tmp_path / "steps.csv")[1:]]
        assert rtts[:4] == ["0.0"] * 4
        assert float(rtts[-1]) > 400

    def test_invalid_cwnd_exits_2(self, tmp_path, capsys):
        assert run_cli("simulate", "--cwnd", "0",
                       "--out-dir", str(tmp_path)) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_override_exits_2(self, tmp_path, capsys):
        assert run_cli("simulate", "--override", "sim.what=1",
                       "--out-dir", str(tmp_path)) == 2

    def test_unread_keys_named_on_stderr(self, tmp_path, capsys):
        assert_unread_keys_named(
            tmp_path, capsys, ["simulate", "--duration-ms", "2000"],
            read={"sim.rto_ms": "900"},
            unread={"dqn.gamma": "0.5", "dqn.hidden_count": "8",
                    "env.episode_length": "3"})


class TestTrainAndBaseline:
    def test_train_outputs(self, tmp_path, capsys):
        code = run_cli("train", *FAST, "--out-dir", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "avg_throughput_Bps=" in out
        steps = read_csv(tmp_path / "steps.csv")
        runs = read_csv(tmp_path / "runs.csv")
        assert steps[0] == STEPS_HEADER
        assert len(steps) == 41
        assert runs[0] == RUNS_HEADER
        assert len(runs) == 2
        row = dict(zip(runs[0], runs[1]))
        assert row["layers"] == "2"
        assert row["diverged"] == "false"

    def test_train_rejects_bad_layers(self, tmp_path):
        assert run_cli("train", "--layers", "3",
                       "--out-dir", str(tmp_path)) == 2

    def test_lr_flag_is_an_override(self, tmp_path, capsys):
        outs = [tmp_path / name for name in ("flag", "override", "both")]
        assert run_cli("train", *FAST, "--lr", "0.001",
                       "--out-dir", str(outs[0])) == 0
        assert run_cli("train", *FAST, "--override", "dqn.learning_rate=0.001",
                       "--out-dir", str(outs[1])) == 0
        # the flag wins over an --override of the same key
        assert run_cli("train", *FAST, "--override", "dqn.learning_rate=0.5",
                       "--lr", "0.001", "--out-dir", str(outs[2])) == 0
        for name in ("runs.csv", "steps.csv"):
            assert len({(out / name).read_bytes() for out in outs}) == 1
        runs = read_csv(outs[0] / "runs.csv")
        assert dict(zip(runs[0], runs[1]))["learning_rate"] == "0.001"

    def test_train_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("train", *FAST, "--out-dir", str(a))
        run_cli("train", *FAST, "--out-dir", str(b))
        assert (a / "steps.csv").read_bytes() == (b / "steps.csv").read_bytes()
        assert (a / "runs.csv").read_bytes() == (b / "runs.csv").read_bytes()

    def test_diverged_training_exits_3(self, tmp_path, capsys):
        import numpy as np
        with np.errstate(all="ignore"):
            code = run_cli("train", *FAST, "--lr", "1e12",
                           "--out-dir", str(tmp_path))
        assert code == 3
        runs = read_csv(tmp_path / "runs.csv")
        assert dict(zip(runs[0], runs[1]))["diverged"] == "true"
        # partial trace retained
        assert len(read_csv(tmp_path / "steps.csv")) >= 2

    def test_float32_overflow_exits_3(self, tmp_path, capsys, monkeypatch):
        """At --lr 100 the third update's loss is past float32's largest
        value (3.4e38), so the agent's float32 loss is inf and train exits 3;
        a float64 agent keeps every loss of the same run finite."""
        import numpy as np
        from rlcc.dqn import DqnAgent
        argv = ("train", *FAST, "--lr", "100")
        with np.errstate(all="ignore"):
            assert run_cli(*argv, "--out-dir", str(tmp_path / "f32")) == 3
            monkeypatch.setattr(DqnAgent, "dtype", np.float64)
            assert run_cli(*argv, "--out-dir", str(tmp_path / "f64")) == 0
        runs = read_csv(tmp_path / "f32" / "runs.csv")
        assert dict(zip(runs[0], runs[1]))["diverged"] == "true"
        steps = read_csv(tmp_path / "f64" / "steps.csv")
        column = STEPS_HEADER.index("loss")
        losses = [float(row[column]) for row in steps[1:] if row[column]]
        assert all(map(math.isfinite, losses))
        assert max(losses) > np.finfo(np.float32).max
        assert len(read_csv(tmp_path / "f32" / "steps.csv")) \
            < len(steps) == 41

    def test_nonfinite_theta_after_last_update_exits_3(
            self, tmp_path, capsys, poison_last_train_step):
        code = poison_last_train_step(lambda: run_cli(
            "train", *FAST, "--out-dir", str(tmp_path)))
        assert code == 3
        runs = read_csv(tmp_path / "runs.csv")
        assert dict(zip(runs[0], runs[1]))["diverged"] == "true"
        assert len(read_csv(tmp_path / "steps.csv")) == 41

    def test_window_capped_by_simulator_ceiling(self, tmp_path, capsys):
        code = run_cli("train", *FAST, "--override", "sim.cwnd_max=2",
                       "--out-dir", str(tmp_path))
        assert code == 0
        steps = read_csv(tmp_path / "steps.csv")
        cwnds = [int(r[STEPS_HEADER.index("cwnd")]) for r in steps[1:]]
        assert len(cwnds) == 40 and max(cwnds) == 2

    def test_baseline_has_no_agent_columns(self, tmp_path, capsys):
        code = run_cli("baseline", *FAST, "--out-dir", str(tmp_path))
        assert code == 0
        steps = read_csv(tmp_path / "steps.csv")
        assert all(r[6] == "" and r[7] == "" for r in steps[1:])

    def test_baseline_unread_keys_named_on_stderr(self, tmp_path, capsys):
        # the two factor keys are read: they name the run's cell and seed
        assert_unread_keys_named(
            tmp_path, capsys, ["baseline", "--error-rate", "0.2"],
            read={"env.episode_length": "40", "dqn.hidden_count": "4",
                  "dqn.learning_rate": "0.001"},
            unread={"dqn.gamma": "0.5", "dqn.batch_size": "16",
                    "dqn.epsilon_decay": "0.9",
                    # past the learner-update budget, which baseline skips
                    "dqn.train_updates_per_step": "1000000"})


class TestGrid:
    def test_full_grid_csvs(self, tmp_path, capsys):
        grid = tmp_path / "grid"
        code = run_cli("grid", *FAST, "--reps", "1", "--jobs", "2",
                       "--base-seed", "7", "--out-dir", str(grid))
        assert code == 0
        runs = read_csv(grid / "runs.csv")
        assert runs[0] == RUNS_HEADER
        assert len(runs) == 13  # 12 cells x 1 rep + header
        steps = read_csv(grid / "steps.csv")
        assert len(steps) == 12 * 40 + 1
        cells = {(r[1], r[2], r[3]) for r in runs[1:]}
        assert len(cells) == 12
        # train alone gives its cell's rep-0 grid run, but for the run_id
        alone = tmp_path / "alone"
        assert run_cli("train", *FAST, "--layers", "8", "--lr", "0.001",
                       "--error-rate", "0.2", "--base-seed", "7",
                       "--out-dir", str(alone)) == 0
        run_id = "l8-lr0.001-e0.2-r0"
        [grid_run] = [r[1:] for r in runs[1:] if r[0] == run_id]
        assert [r[1:] for r in read_csv(alone / "runs.csv")[1:]] == [grid_run]
        assert [r[1:] for r in read_csv(alone / "steps.csv")[1:]] \
            == [r[1:] for r in steps[1:] if r[0] == run_id]

    def test_pairwise_design_rejected(self, tmp_path, capsys):
        # argparse's usage error comes back as run()'s return value
        assert run_cli("grid", "--design", "pairwise", "--reps", "1",
                       "--out-dir", str(tmp_path)) == 2
        assert "invalid choice: 'pairwise'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_help_returns_0(self, capsys):
        assert run_cli("grid", "--help") == 0
        assert capsys.readouterr().out.startswith("usage: rlcc grid")

    def test_jobs_do_not_change_output(self, tmp_path, capsys):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        run_cli("grid", *FAST, "--reps", "1", "--jobs", "1",
                "--out-dir", str(serial))
        run_cli("grid", *FAST, "--reps", "1", "--jobs", "4",
                "--out-dir", str(parallel))
        assert (serial / "runs.csv").read_bytes() \
            == (parallel / "runs.csv").read_bytes()
        assert (serial / "steps.csv").read_bytes() \
            == (parallel / "steps.csv").read_bytes()

    def test_one_run_per_task_and_no_idle_workers(self, tmp_path, capsys,
                                                  monkeypatch):
        pools = []

        class InlinePool:
            """Records how cmd_grid sizes and feeds its pool; runs inline."""

            def __init__(self, max_workers):
                pools.append({"max_workers": max_workers})

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize):
                pools[-1]["chunksize"] = chunksize
                return map(fn, iterable)

        def usable_cpus(n):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(n)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: n)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        pooled, serial = tmp_path / "pooled", tmp_path / "serial"
        # runs < CPUs: one worker per run
        usable_cpus(16)
        assert run_cli("grid", *FAST, "--reps", "1", "--jobs", "64",
                       "--out-dir", str(pooled)) == 0
        assert pools == [{"max_workers": 12, "chunksize": 1}]
        # --jobs > CPUs, and no --jobs: one worker per CPU
        usable_cpus(3)
        for jobs in (["--jobs", "64"], []):
            assert run_cli("grid", *FAST, "--reps", "1", *jobs,
                           "--out-dir", str(tmp_path / "capped")) == 0
            assert pools[-1] == {"max_workers": 3, "chunksize": 1}
        assert run_cli("grid", *FAST, "--reps", "1", "--jobs", "1",
                       "--out-dir", str(serial)) == 0
        assert len(pools) == 3
        for name in ("runs.csv", "steps.csv"):
            assert (pooled / name).read_bytes() == (serial / name).read_bytes()

    def test_heap_frozen_while_workers_live(self, tmp_path, capsys,
                                            monkeypatch):
        freeze_counts = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                freeze_counts.append(gc.get_freeze_count())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert gc.get_freeze_count() == 0
        assert run_cli("grid", *FAST, "--reps", "1", "--jobs", "2",
                       "--out-dir", str(tmp_path / "ok")) == 0
        assert freeze_counts[0] > 0 and gc.get_freeze_count() == 0

        def boom(*args, **kwargs):
            raise RuntimeError("worker failed")

        # The forked workers inherit the patched run function.
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "execute_run", boom)
            with pytest.raises(RuntimeError, match="worker failed"):
                run_cli("grid", *FAST, "--reps", "1", "--jobs", "2",
                        "--out-dir", str(tmp_path / "failed"))
        assert len(freeze_counts) == 2 and freeze_counts[1] > 0
        assert gc.get_freeze_count() == 0
        # --jobs 1 starts no pool and freezes nothing.
        assert run_cli("grid", *FAST, "--reps", "1", "--jobs", "1",
                       "--out-dir", str(tmp_path / "serial")) == 0
        assert len(freeze_counts) == 2

    def test_base_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("grid", *FAST, "--reps", "1", "--jobs", "2",
                "--base-seed", "1", "--out-dir", str(a))
        run_cli("grid", *FAST, "--reps", "1", "--jobs", "2",
                "--base-seed", "2", "--out-dir", str(b))
        assert (a / "runs.csv").read_bytes() != (b / "runs.csv").read_bytes()


class TestAnalyze:
    @pytest.fixture()
    def runs_csv(self, tmp_path, capsys):
        run_cli("grid", *FAST, "--reps", "2", "--jobs", "4",
                "--out-dir", str(tmp_path))
        capsys.readouterr()
        return tmp_path / "runs.csv"

    def test_regression_csv_structure(self, runs_csv, tmp_path, capsys):
        code = run_cli("analyze", "--runs", str(runs_csv),
                       "--factors", "error_rate,layers",
                       "--out-dir", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "Influence" in out and "P-Value" in out
        rows = read_csv(tmp_path / "regression.csv")
        assert rows[0] == REGRESSION_HEADER
        assert [r[0] for r in rows[1:]] == [
            "constant", "error_rate", "layers", "error_rate*layers"]
        # intercept has no influence; every term has a coefficient
        assert rows[1][1] == ""
        assert all(r[2] != "" for r in rows[1:])
        # influence = 2 * coefficient on non-intercept terms
        for r in rows[2:]:
            assert float(r[1]) == pytest.approx(2.0 * float(r[2]))

    def test_second_factor_pair(self, runs_csv, tmp_path, capsys):
        code = run_cli("analyze", "--runs", str(runs_csv),
                       "--factors", "learning_rate,error_rate",
                       "--out-dir", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "regression.csv")
        assert [r[0] for r in rows[1:]] == [
            "constant", "learning_rate", "error_rate",
            "learning_rate*error_rate"]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run_cli("analyze", "--runs", str(tmp_path / "nope.csv"),
                       "--out-dir", str(tmp_path)) == 2

    def test_bad_factor_exits_2(self, runs_csv, tmp_path, capsys):
        assert run_cli("analyze", "--runs", str(runs_csv),
                       "--factors", "error_rate,flux",
                       "--out-dir", str(tmp_path)) == 2

    def test_single_factor_exits_2(self, runs_csv, tmp_path, capsys):
        assert run_cli("analyze", "--runs", str(runs_csv),
                       "--factors", "error_rate",
                       "--out-dir", str(tmp_path)) == 2

    def test_three_factors_fit_every_interaction(self, runs_csv, tmp_path,
                                                 capsys):
        code = run_cli("analyze", "--runs", str(runs_csv),
                       "--factors", "error_rate,layers,learning_rate",
                       "--out-dir", str(tmp_path))
        assert code == 0
        rows = read_csv(tmp_path / "regression.csv")
        assert [r[0] for r in rows[1:]] == [
            "constant", "error_rate", "layers", "learning_rate",
            "error_rate*layers", "error_rate*learning_rate",
            "layers*learning_rate", "error_rate*layers*learning_rate"]
        cells = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("cell ")]
        assert len(cells) == 12
        assert all("error_rate=" in c and "layers=" in c
                   and "learning_rate=" in c for c in cells)

    def test_four_factors_exit_2(self, runs_csv, tmp_path, capsys):
        assert run_cli("analyze", "--runs", str(runs_csv),
                       "--factors", "error_rate,layers,learning_rate,rep",
                       "--out-dir", str(tmp_path)) == 2
        assert "expects 2 to 3 comma-separated names" in capsys.readouterr().err
        assert not (tmp_path / "regression.csv").exists()

    @pytest.mark.parametrize("factors", ["layers,layers",
                                         "error_rate,error_rate,layers"])
    def test_repeated_factor_exit_2(self, tmp_path, capsys, factors):
        # rejected before the runs file is read: this one does not exist
        assert run_cli("analyze", "--runs", str(tmp_path / "missing.csv"),
                       "--factors", factors, "--out-dir", str(tmp_path)) == 2
        name = factors.split(",")[0]
        assert capsys.readouterr().err == (
            f"error: --factors names {name!r} more than once\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("factors, name", [("error_rate,rep", "rep"),
                                               ("flux,layers", "flux")])
    def test_unknown_factor_exit_2(self, tmp_path, capsys, factors, name):
        # rejected before the runs file is read: this one does not exist
        assert run_cli("analyze", "--runs", str(tmp_path / "missing.csv"),
                       "--factors", factors, "--out-dir", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"error: --factors names {name!r}, not a design factor\n")

    def test_three_factors_need_two_levels_each(self, tmp_path, capsys):
        # write_runs_csv holds one learning rate
        write_runs_csv(tmp_path / "runs.csv")
        assert run_cli("analyze", "--runs", str(tmp_path / "runs.csv"),
                       "--factors", "error_rate,layers,learning_rate",
                       "--out-dir", str(tmp_path)) == 2
        assert "needs at least two levels" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--config", "run.cfg"),
                                      ("--override", "bogus.key=1"),
                                      ("--base-seed", "7")],
                             ids=lambda flag: flag[0])
    def test_configuration_flags_rejected(self, tmp_path, capsys, flag):
        # analyze reads no configuration, so argparse refuses these flags
        write_runs_csv(tmp_path / "runs.csv")
        assert run_cli("analyze", "--runs", str(tmp_path / "runs.csv"), *flag,
                       "--out-dir", str(tmp_path)) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" \
            in capsys.readouterr().err

    def test_unbalanced_fit_exits_2(self, runs_csv, tmp_path, capsys):
        # every depth-8 run at lr 0.01 diverged: the depth-8 cells keep
        # only lr 0.001 runs, so their means would not pool over lr
        table = read_csv(runs_csv)
        layers, lr, diverged = (RUNS_HEADER.index(name) for name in
                                ("layers", "learning_rate", "diverged"))
        for row in table[1:]:
            if row[layers] == "8" and row[lr] == "0.01":
                row[diverged] = "true"
        with open(runs_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(table)
        out_dir = tmp_path / "out"
        assert run_cli("analyze", "--runs", str(runs_csv),
                       "--out-dir", str(out_dir)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unbalanced fit: cell error_rate=0.0 layers=8 keeps "
            "learning_rate=0.001: 2, learning_rate=0.01: 0"]
        assert not (out_dir / "regression.csv").exists()

    def test_handwritten_runs_csv_fits(self, tmp_path, capsys):
        write_runs_csv(tmp_path / "runs.csv")
        assert run_cli("analyze", "--runs", str(tmp_path / "runs.csv"),
                       "--out-dir", str(tmp_path)) == 0
        assert (tmp_path / "regression.csv").exists()

    def test_cell_counts_on_stderr(self, tmp_path, capsys):
        def mark_diverged(table):
            # rows 1-12 are layers x error_rate x rep in product order
            for i in (1, 11, 12):
                table[i][RUNS_HEADER.index("diverged")] = "true"
            table[12][RUNS_HEADER.index("avg_throughput_Bps")] = ""
        write_runs_csv(tmp_path / "runs.csv", mark_diverged)
        assert run_cli("analyze", "--runs", str(tmp_path / "runs.csv"),
                       "--out-dir", str(tmp_path)) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "cell error_rate=0.0 layers=2: kept 1, dropped 1",
            "cell error_rate=0.2 layers=2: kept 2, dropped 0",
            "cell error_rate=0.0 layers=4: kept 2, dropped 0",
            "cell error_rate=0.2 layers=4: kept 2, dropped 0",
            "cell error_rate=0.0 layers=8: kept 2, dropped 0",
            "cell error_rate=0.2 layers=8: kept 0, dropped 2",
        ]
        # the counts go to stderr only: stdout is the table alone
        assert captured.out.splitlines()[0].split()[0] == "Term"
        assert "cell" not in captured.out

    @pytest.mark.parametrize("cell, message", [
        ("banana", "'banana' is not a finite number"),
        ("nan", "'nan' is not a finite number"),
        ("0.5", "0.5 is not a declared level of 'learning_rate'")],
        ids=["text", "nan", "undeclared"])
    def test_pooled_cells_are_declared_levels(self, tmp_path, capsys, cell,
                                              message):
        # every run again at a second learning rate, each of its cells
        # `cell`: the pooled fit stays balanced
        def add_pool(table):
            lr = RUNS_HEADER.index("learning_rate")
            table += [row[:lr] + [cell] + row[lr + 1:] for row in table[1:]]
        runs = tmp_path / "runs.csv"
        write_runs_csv(runs, add_pool)
        out_dir = tmp_path / "out"
        assert run_cli("analyze", "--runs", str(runs),
                       "--out-dir", str(out_dir)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {runs} row 13: learning_rate: {message}"]
        assert not (out_dir / "regression.csv").exists()

    @pytest.mark.parametrize("column, value", [
        ("error_rate", "-0.0"), ("error_rate", "0.00"), ("layers", "2.0")])
    def test_other_spellings_join_the_declared_cell(self, tmp_path, capsys,
                                                    column, value):
        # row 1 runs at layers 2 and error_rate 0.0
        outputs = {}
        for name, edit in (("declared", None),
                           ("respelled", set_cell(column, value, row=1))):
            runs = tmp_path / f"{name}.csv"
            write_runs_csv(runs, edit)
            assert run_cli("analyze", "--runs", str(runs),
                           "--out-dir", str(tmp_path / name)) == 0
            outputs[name] = ((tmp_path / name / "regression.csv").read_bytes(),
                             capsys.readouterr())
        assert outputs["respelled"] == outputs["declared"]

    @pytest.mark.parametrize("column, value, message", [
        ("layers", "banana", "'banana' is not a finite number"),
        ("layers", "3", "3.0 is not a declared level of 'layers'"),
        ("learning_rate", "banana", "'banana' is not a finite number"),
        ("learning_rate", "0.5",
         "0.5 is not a declared level of 'learning_rate'")])
    def test_dropped_runs_cells_are_declared_levels(self, tmp_path, capsys,
                                                    column, value, message):
        # a diverged run's fitted (layers) or pooled (learning_rate) cell
        def edit(table):
            set_cell(column, value)(table)
            set_cell("diverged", "true")(table)
        runs = tmp_path / "runs.csv"
        write_runs_csv(runs, edit)
        out_dir = tmp_path / "out"
        assert run_cli("analyze", "--runs", str(runs),
                       "--out-dir", str(out_dir)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {runs} row 3: {column}: {message}"]
        assert not (out_dir / "regression.csv").exists()

    @pytest.mark.parametrize("edit", MALFORMED_RUNS.values(),
                             ids=MALFORMED_RUNS.keys())
    def test_malformed_runs_csv_exits_2(self, tmp_path, capsys, edit):
        write_runs_csv(tmp_path / "runs.csv", edit)
        out_dir = tmp_path / "out"
        assert_exits_2(capsys, "analyze", "--runs", str(tmp_path / "runs.csv"),
                       "--out-dir", str(out_dir))
        assert not (out_dir / "regression.csv").exists()


#: modules a fresh command may load only where it needs them
WATCHED = ("numpy", "concurrent.futures", "scipy", "rlcc.experiments",
           "rlcc.dqn", "rlcc.env")
LEARNER = ["numpy", "rlcc.experiments", "rlcc.dqn", "rlcc.env"]


@pytest.mark.parametrize("body, loaded", [
    ("assert rlcc.cli.run(['simulate', '--duration-ms', '500', "
     "'--out-dir', out]) == 0", []),
    ("assert rlcc.cli.run(['train', '--override', 'x.y=1', "
     "'--out-dir', out]) == 2", []),
    # the set-up steps the bench times as setup_s
    ("from rlcc.netsim import Simulator\n"
     "sim_cfg, env_cfg, dqn_cfg = rlcc.cli.build_configs({})\n"
     "Simulator(sim_cfg)", []),
    ("assert rlcc.cli.run(['train', '--override', 'env.episode_length=40', "
     "'--out-dir', out]) == 0", LEARNER),
    ("assert rlcc.cli.run(['analyze', '--factors', 'error_rate,rep', "
     "'--runs', out + '/runs.csv', '--out-dir', out]) == 2", []),
    # p-values are computed in rlcc.stats, so not even analyze loads scipy
    ("assert rlcc.cli.run(['analyze', '--runs', out + '/runs.csv', "
     "'--out-dir', out]) == 0\n"
     "assert os.path.exists(out + '/regression.csv')", ["numpy"]),
], ids=["simulate", "config error", "set-up", "train", "factors error",
        "analyze"])
def test_startup_leaves_numpy_and_the_pool_unloaded(tmp_path, body, loaded):
    # only the commands that run the agent or fit a regression import
    # numpy, only the ones that run the agent import the learner, only a
    # pool of workers imports concurrent.futures, and none imports scipy
    write_runs_csv(tmp_path / "runs.csv")
    src = os.path.dirname(os.path.dirname(rlcc.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import os, sys, rlcc.cli\nout = sys.argv[1]\n{body}\n"
         f"print(*[m for m in {WATCHED!r} if m in sys.modules])",
         str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1].split() == loaded
