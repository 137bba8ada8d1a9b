"""Command-line entry point.

Subcommands
-----------
simulate   fixed-cwnd run of the bare simulator (no agent)
train      one 200-step online DQN episode
grid       the factorial experiment grid -> runs.csv + steps.csv
analyze    coded-factor OLS on a runs.csv -> regression.csv + printed table
baseline   one episode with uniform-random actions (control condition)

Configuration is a flat key=value file with dotted namespaces
(sim.segment_bytes=1000, dqn.gamma=0.95, '#' comments allowed).  --override
flags win over file values, and the train/baseline shorthands --layers, --lr
and --error-rate win over both.  Unknown keys, non-finite numbers, integers
outside int64, a negative --base-seed or --seed, runs past the MAX_STEPS /
MAX_SIM_MS budget (or, for train and grid, past 4 * MAX_STEPS learner
updates) and a grid whose --reps * env.episode_length passes MAX_STEPS, its
budget per cell, are rejected.
Keys that a command validates but does not read (simulate: dqn.* and
env.episode_length; baseline: dqn.* but for the two factor keys) are named in
one stderr warning line, and the command runs as without them.
analyze reads no configuration (its flags are --runs, --factors, --response and
--out-dir) and fits two or three factors with all their interactions.  Every
design factor cell of every run, dropped or pooled too, must read as a declared
level, which keys the run's cell; analyze prints each cell's kept and dropped
run counts to stderr and refuses a cell keeping unequal run counts at a pooled
factor's levels, or a response that overflows the fit.  grid starts at most one
worker per usable CPU.
--out-dir is created, and must be writable and hold no directory where a
CSV goes, before a command starts; CSVs are written atomically, and every
output is fully determined by --base-seed.  steps.csv rows are schema.Step
tuples, whose fields are its columns.

Exit codes: 0 success, 2 invalid input (including a configuration too large
to allocate or an unbalanced fit), 3 training divergence (train), 4 partial
grid failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
import math
import os
import sys
from collections import Counter
from dataclasses import astuple, fields, is_dataclass, replace

from .netsim import SimConfig, Simulator
from .schema import (REGRESSION_HEADER, RUNS_HEADER, STEPS_HEADER, DqnConfig,
                     EnvConfig, FactorLevels, RunRecord, Step)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DIVERGED = 3
EXIT_PARTIAL = 4

#: Simulated-work budget of a simulate command or a train/baseline/grid run.
MAX_SIM_MS = 1e7
MAX_STEPS = 100_000


class CliError(Exception):
    """Invalid input: run() prints it as an error line and exits 2."""


# -- configuration -----------------------------------------------------------

def finite_float(raw) -> float:
    """float() that rejects nan and +-inf."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def int64(raw) -> int:
    """int() that rejects values outside [-2**63, 2**63)."""
    value = int(raw)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(raw)
    return value


_KINDS = {int64: "an integer in [-2**63, 2**63)",
          finite_float: "a finite number"}


def _scalar_keys(prefix: str, cfg) -> dict:
    """Dotted key -> cast for every int/float field of a config dataclass,
    nested dataclasses flattened.  Seeds come from --base-seed/--seed and
    env.sim is the sim section, so neither is a key."""
    keys = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        key = f"{prefix}.{f.name}"
        if f.name == "seed" or isinstance(value, SimConfig):
            continue
        if is_dataclass(value):
            keys.update(_scalar_keys(key, value))
        elif type(value) in (int, float):
            keys[key] = int64 if type(value) is int else finite_float
    return keys


_SECTIONS = {"sim": SimConfig, "env": EnvConfig, "dqn": DqnConfig}

#: dotted key -> cast, derived from the config dataclasses; the single
#: registry that makes unknown keys rejectable.
CONFIG_KEYS = {key: cast for section, cls in _SECTIONS.items()
               for key, cast in _scalar_keys(section, cls()).items()}

#: The config key behind each experiment factor.  train/baseline flags are
#: shorthands for these; the grid design sets them itself.
FACTOR_KEYS = {"layers": "dqn.hidden_count",
               "learning_rate": "dqn.learning_rate",
               "error_rate": "sim.bottleneck_link.loss_prob"}

_DQN_KEYS = {key for key in CONFIG_KEYS if key.startswith("dqn.")}
#: Keys a command validates but never reads.  A config file shared across
#: subcommands may set them, so the command names them instead of failing.
UNREAD_KEYS = {
    "simulate": _DQN_KEYS | {"env.episode_length"},
    "baseline": _DQN_KEYS - {FACTOR_KEYS["layers"],
                             FACTOR_KEYS["learning_rate"]},
}


def parse_config_file(path: str) -> dict[str, str]:
    settings: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                settings[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    return settings


def _parse(name: str, cast, raw):
    try:
        return cast(raw)
    except ValueError:
        raise CliError(f"{name}: {raw!r} is not {_KINDS[cast]}") from None


def _replace_path(cfg, path: list[str], value):
    head, *rest = path
    if rest:
        value = _replace_path(getattr(cfg, head), rest, value)
    return replace(cfg, **{head: value})


def build_configs(settings: dict[str, str]):
    """Resolve key=value settings into (SimConfig, EnvConfig, DqnConfig)."""
    cfgs = {section: cls() for section, cls in _SECTIONS.items()}
    for key, raw in settings.items():
        if key not in CONFIG_KEYS:
            raise CliError(f"unknown configuration key {key!r}")
        section, *path = key.split(".")
        cfgs[section] = _replace_path(cfgs[section], path,
                                      _parse(key, CONFIG_KEYS[key], raw))
    sim_cfg, dqn_cfg = cfgs["sim"], cfgs["dqn"]
    env_cfg = replace(cfgs["env"], sim=sim_cfg)
    try:
        sim_cfg.validate()
        env_cfg.validate()
        dqn_cfg.validate()
    except ValueError as exc:
        raise CliError(str(exc))
    return sim_cfg, env_cfg, dqn_cfg


def report_unread(command: str, settings: dict[str, str]) -> None:
    """Name on stderr the given settings that ``command`` does not read."""
    unread = sorted(UNREAD_KEYS.get(command, set()).intersection(settings))
    if unread:
        print(f"warning: {command} ignores {', '.join(unread)}",
              file=sys.stderr)


def check_budget(steps: float, interval_ms: float,
                 updates_per_step: int = 0) -> None:
    """Reject a run past MAX_STEPS, MAX_SIM_MS or, when it learns, four
    updates a step at MAX_STEPS (the default rate at the step budget)."""
    if not (steps <= MAX_STEPS and steps * interval_ms <= MAX_SIM_MS):
        raise CliError(f"{steps:g} steps of {interval_ms:g} ms exceed the "
                       f"budget of {MAX_STEPS} steps and {MAX_SIM_MS:g} ms")
    if steps * updates_per_step > 4 * MAX_STEPS:
        raise CliError("env.episode_length * dqn.train_updates_per_step = "
                       f"{steps} * {updates_per_step} exceeds the budget of "
                       f"{4 * MAX_STEPS} updates")


def gather_settings(args) -> dict[str, str]:
    """Config file, then --override, then shorthand flags; later wins."""
    settings: dict[str, str] = {}
    if args.config:
        settings.update(parse_config_file(args.config))
    for item in args.override or []:
        if "=" not in item:
            raise CliError(f"--override expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        settings[key.strip()] = value.strip()
    # shorthand flags store under their config key (argparse dest)
    settings.update({key: value for key, value in vars(args).items()
                     if key in CONFIG_KEYS and value is not None})
    return settings


# -- output helpers ----------------------------------------------------------

def write_csv_atomic(path: str, header: list[str], rows) -> None:
    """Write rows of cells in header order via a new temp file in the target
    directory, then rename; csv writes a float by repr and None as "".  The
    file gets the mode open(path, "w") would give it, 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fh = open(tmp_path, "x", newline="")   # exclusive: never another's file
    try:
        with fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def record_to_row(rec: RunRecord) -> list:
    """The RUNS_HEADER cells in order: the RunSpec fields, then the record's
    metrics, with diverged written as true or false."""
    cells = {**vars(rec), **vars(rec.spec),
             "diverged": "true" if rec.diverged else "false"}
    return [cells[col] for col in RUNS_HEADER]


# -- subcommands -------------------------------------------------------------

def cmd_simulate(args) -> int:
    settings = gather_settings(args)
    sim_cfg, env_cfg, _ = build_configs(settings)
    report_unread("simulate", settings)
    sim_cfg = replace(sim_cfg, seed=args.base_seed)
    duration_ms = _parse("--duration-ms", finite_float, args.duration_ms)
    if duration_ms <= 0:
        raise CliError("--duration-ms must be positive")
    interval = env_cfg.decision_interval_ms
    # checked before rounding, which overflows on an infinite quotient
    check_budget(max(1.0, duration_ms / interval), interval)
    steps = max(1, int(round(duration_ms / interval)))
    if args.cwnd > MAX_STEPS:   # the first advance makes a record per segment
        raise CliError(f"--cwnd must be <= {MAX_STEPS}")
    try:
        sim = Simulator(sim_cfg)
        sim.set_cwnd(args.cwnd)
    except ValueError as exc:
        raise CliError(str(exc))
    rows = []
    for step in range(1, steps + 1):
        throughput = sim.advance(interval)
        rtt = sim.rtt_ewma_ms   # None until the first sample, as counters()
        rows.append(Step("simulate", step, sim.cwnd, throughput,
                         0.0 if rtt is None else rtt, None, None, None))
    counters = sim.counters()
    duration_s = steps * interval / 1000.0
    throughput = counters.segments_acked_total * sim_cfg.segment_bytes / duration_s
    write_csv_atomic(os.path.join(args.out_dir, "steps.csv"),
                     STEPS_HEADER, rows)
    print(f"throughput_Bps={throughput}")
    print(f"avg_rtt_ms={counters.rtt_ewma_ms}")
    print(f"bytes_sent_total={counters.bytes_sent_total}")
    print(f"segments_acked_total={counters.segments_acked_total}")
    print(f"retransmissions={counters.retransmissions}")
    print(f"drops_error={counters.drops_error}")
    print(f"drops_queue={counters.drops_queue}")
    return EXIT_OK


def _execute(job):
    # module-level, so a pool can pickle it; execute_run is looked up per
    # call, so forked workers run a wrapped or patched one too
    from . import experiments
    return experiments.execute_run(*job)


def run_specs(specs, env_cfg, dqn_cfg, out_dir, policy="dqn", jobs=None):
    """Run the specs, write runs.csv and steps.csv in spec order, and return
    the records.  Workers: min(jobs, usable CPUs, runs), jobs defaulting to
    the CPUs; above one, a pool takes one run per task."""
    work = [(spec, env_cfg, dqn_cfg, policy) for spec in specs]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs or cpus, cpus, len(work))
    if workers > 1:
        # imported here, before the freeze, so its modules are frozen too
        from concurrent.futures import ProcessPoolExecutor
        # The workers fork at the first submit.  A frozen heap keeps a full
        # collection here from writing the headers of objects they share;
        # collecting first keeps the garbage out of what is frozen.
        gc.collect()
        gc.freeze()
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_execute, work, chunksize=1))
        finally:
            gc.unfreeze()
    else:
        results = [_execute(job) for job in work]
    records = [rec for rec, _ in results]
    write_csv_atomic(os.path.join(out_dir, "runs.csv"),
                     RUNS_HEADER, [record_to_row(r) for r in records])
    write_csv_atomic(os.path.join(out_dir, "steps.csv"), STEPS_HEADER,
                     [row for _, trace in results for row in trace])
    return records


def cmd_single_run(args) -> int:
    """train (online DQN) or baseline (uniform-random actions): one episode."""
    policy = args.subcommand
    settings = gather_settings(args)
    _, env_cfg, dqn_cfg = build_configs(settings)
    report_unread(policy, settings)
    check_budget(env_cfg.episode_length, env_cfg.decision_interval_ms,
                 dqn_cfg.train_updates_per_step if policy == "train" else 0)
    if args.seed is not None and args.seed < 0:
        raise CliError("--seed must be >= 0")
    from . import experiments
    spec = experiments.make_spec(
        dqn_cfg.hidden_count, dqn_cfg.learning_rate,
        env_cfg.sim.bottleneck_link.loss_prob, 0, args.base_seed,
        run_id=policy, seed=args.seed)
    [record] = run_specs([spec], env_cfg, dqn_cfg, args.out_dir,
                         policy="random" if policy == "baseline" else "dqn")
    for key, value in zip(RUNS_HEADER, record_to_row(record)):
        print(f"{key}={'' if value is None else value}")
    if record.diverged:
        print("training diverged; partial trace retained", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_grid(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise CliError("--jobs must be >= 1")
    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    settings = gather_settings(args)
    for key in FACTOR_KEYS.values():
        if key in settings:
            raise CliError(f"{key} is set by the grid design and cannot "
                           "be configured")
    _, env_cfg, dqn_cfg = build_configs(settings)
    check_budget(env_cfg.episode_length, env_cfg.decision_interval_ms,
                 dqn_cfg.train_updates_per_step)
    if args.reps * env_cfg.episode_length > MAX_STEPS:
        raise CliError(f"--reps * env.episode_length = {args.reps} * "
                       f"{env_cfg.episode_length} exceeds {MAX_STEPS} steps")
    from . import experiments
    specs = experiments.enumerate_runs(
        FactorLevels(), reps=args.reps, base_seed=args.base_seed)
    records = run_specs(specs, env_cfg, dqn_cfg, args.out_dir,
                        jobs=args.jobs)
    diverged = sum(r.diverged for r in records)
    print(f"runs={len(records)} diverged={diverged}")
    return EXIT_PARTIAL if diverged else EXIT_OK


def _parse_runs_csv(path: str) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            # a short row's missing cells read as "", which no cell check accepts
            return list(csv.DictReader(fh, restval=""))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CliError(f"cannot read runs file: {exc}") from exc


def _labels(names, values) -> str:
    return " ".join(f"{n}={v}" for n, v in zip(names, values))


def cmd_analyze(args) -> int:
    factor_names = [f.strip() for f in args.factors.split(",")]
    design = [f.name for f in fields(FactorLevels)]
    most = len(design)
    if not 2 <= len(factor_names) <= most:
        raise CliError(f"--factors expects 2 to {most} comma-separated names")
    for name in factor_names:
        if name not in design:
            raise CliError(f"--factors names {name!r}, not a design factor")
        if factor_names.count(name) > 1:
            raise CliError(f"--factors names {name!r} more than once")
    rows = _parse_runs_csv(args.runs)
    if not rows:
        raise CliError(f"{args.runs} contains no runs")
    # the design factors the fit pools its runs over
    pooled = [name for name in design if name not in factor_names]
    for column in (*factor_names, *pooled, args.response, "diverged"):
        if column not in rows[0]:
            raise CliError(f"column {column!r} missing from {args.runs}")
    from . import stats
    # Every run's design factors resolve once to declared levels, which key
    # its cell (the fitted factors), its pool (the pooled ones) and the fit.
    counts, kept_at, kept, y = {}, Counter(), [], []
    for i, r in enumerate(rows, 1):
        where = f"{args.runs} row {i}"
        if r["diverged"] not in ("true", "false"):
            raise CliError(f"{where}: diverged: {r['diverged']!r} is not "
                           "true or false")
        levels = []
        for name in (*factor_names, *pooled):
            value = _parse(f"{where}: {name}", finite_float, r[name])
            try:
                levels.append(stats.declared_level(name, value))
            except ValueError as exc:
                raise CliError(f"{where}: {name}: {exc}")
        cell = tuple(levels[:len(factor_names)])
        counts.setdefault(cell, [0, 0])[r["diverged"] == "true"] += 1
        # cell + pool -> kept runs; a dropped run adds 0 but enters its pool
        kept_at[tuple(levels)] += r["diverged"] == "false"
        if r["diverged"] == "false":
            kept.append(cell)
            y.append(_parse(f"{where}: {args.response}", finite_float,
                            r[args.response]))
    for j, name in enumerate(factor_names):
        if len({cell[j] for cell in kept}) < 2:
            raise CliError(f"factor {name!r} needs at least two levels in the data")
    # Each fitted cell must keep as many runs at every pooled level, or its
    # mean weighs the pooled levels unequally.
    pools = dict.fromkeys(run[len(factor_names):] for run in kept_at)
    for cell in counts:
        if len({kept_at[cell + pool] for pool in pools}) > 1:
            raise CliError(
                f"unbalanced fit: cell {_labels(factor_names, cell)} keeps "
                + ", ".join(f"{_labels(pooled, pool)}: {kept_at[cell + pool]}"
                            for pool in pools))
    X, names = stats.make_interaction_design(
        [[stats.code_level(name, cell[j]) for cell in kept]
         for j, name in enumerate(factor_names)], factor_names)
    try:
        table = stats.ols_fit(X, names, y)
    except ValueError as exc:
        raise CliError(str(exc))
    for cell, (n_kept, n_dropped) in counts.items():
        print(f"cell {_labels(factor_names, cell)}: kept {n_kept}, "
              f"dropped {n_dropped}", file=sys.stderr)
    write_csv_atomic(os.path.join(args.out_dir, "regression.csv"),
                     REGRESSION_HEADER, [astuple(row) for row in table])
    print(stats.render_table(table))
    return EXIT_OK


# -- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlcc",
        description="DQN congestion-window control workbench")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--base-seed", type=int, default=42)

    def shorthand(p, flag, factor):
        key = FACTOR_KEYS[factor]
        p.add_argument(flag, dest=key, metavar="VALUE",
                       help=f"same as --override {key}=VALUE")

    p = sub.add_parser("simulate", help="fixed-cwnd simulator run")
    common(p)
    p.add_argument("--cwnd", type=int, default=64)
    p.add_argument("--duration-ms", default=5000.0)
    p.set_defaults(func=cmd_simulate, csvs=("steps.csv",))

    p = sub.add_parser("train", help="one online DQN episode")
    common(p)
    shorthand(p, "--layers", "layers")
    shorthand(p, "--lr", "learning_rate")
    shorthand(p, "--error-rate", "error_rate")
    p.add_argument("--seed", type=int, default=None,
                   help="explicit run seed (default: derived from base seed)")
    p.set_defaults(func=cmd_single_run, csvs=("runs.csv", "steps.csv"))

    p = sub.add_parser("grid", help="factorial experiment grid")
    common(p)
    p.add_argument("--design", choices=("full",), default="full")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes, >= 1 (default: available "
                   "parallelism; never more than the runs)")
    p.set_defaults(func=cmd_grid, csvs=("runs.csv", "steps.csv"))

    p = sub.add_parser("analyze", help="coded-factor OLS on runs.csv")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--runs", default="runs.csv")
    p.add_argument("--factors", default="error_rate,layers",
                   help="two or three comma-separated factor columns; "
                   "a two-factor fit pools the third into its residual")
    p.add_argument("--response", default="avg_throughput_Bps")
    p.set_defaults(func=cmd_analyze, csvs=("regression.csv",))

    p = sub.add_parser("baseline", help="uniform-random action episode")
    common(p)
    shorthand(p, "--error-rate", "error_rate")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_single_run, csvs=("runs.csv", "steps.csv"))

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has written usage and error
        return exc.code
    try:
        if getattr(args, "base_seed", 0) < 0:
            raise CliError("--base-seed must be >= 0")
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot use --out-dir: {exc}") from exc
        if not os.access(args.out_dir, os.W_OK | os.X_OK):
            raise CliError(f"cannot use --out-dir: {args.out_dir!r} is not "
                           "writable")
        for name in args.csvs:   # os.replace can replace a link, not a dir
            path = os.path.join(args.out_dir, name)
            if os.path.isdir(path) and not os.path.islink(path):
                raise CliError(f"cannot use --out-dir: {name} is a directory")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        print(f"error: configuration too large to allocate: {exc}",
              file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
