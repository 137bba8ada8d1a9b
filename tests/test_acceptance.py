"""Acceptance gate: one test per release criterion.

Each test registers a PASS/FAIL verdict (printed in the terminal summary)
and then asserts it, so a red criterion is visible both ways.  The heavy
fixtures (trained/random run sets, the full grid) are session-scoped and
shared across criteria.
"""

import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rlcc.cli import run as cli_run
from rlcc.dqn import DqnAgent, QNetwork, loss_and_grads
from rlcc.experiments import convergence_step, derive_seed, execute_run
from rlcc.netsim import SimConfig, Simulator
from rlcc.schema import DqnConfig, EnvConfig, RunSpec
from rlcc.stats import (make_interaction_design, ols_fit,
                        student_t_two_sided_p)

from conftest import report_criterion


def _check(name, passed, detail=""):
    report_criterion(name, passed, detail)
    assert passed, f"{name}: {detail}"


# -- shared heavy fixtures ---------------------------------------------------

def _spec(rep, error_rate=0.0):
    return RunSpec(
        run_id=f"acc-e{error_rate}-r{rep}", layers=2, learning_rate=0.01,
        error_rate=error_rate, rep=rep,
        seed=derive_seed(42, 2, 0.01, error_rate, rep))


def _run_policy(job):
    spec, policy = job
    return execute_run(spec, EnvConfig(), DqnConfig(), policy=policy)


@pytest.fixture(scope="session")
def tenseed_runs():
    """(policy, error_rate) -> list of (record, trace) over reps 0..9."""
    jobs = ([(_spec(rep, 0.0), "dqn") for rep in range(10)]
            + [(_spec(rep, 0.2), "dqn") for rep in range(10)]
            + [(_spec(rep, 0.0), "random") for rep in range(10)])
    with ProcessPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(_run_policy, jobs))
    return {
        ("dqn", 0.0): results[0:10],
        ("dqn", 0.2): results[10:20],
        ("random", 0.0): results[20:30],
    }


@pytest.fixture(scope="session")
def full_grid(tmp_path_factory):
    """Run the 120-run grid twice with the same base seed; returns the two
    output directories and the first run's wall time."""
    first = tmp_path_factory.mktemp("grid-a")
    second = tmp_path_factory.mktemp("grid-b")
    t0 = time.monotonic()
    code1 = cli_run(["grid", "--reps", "10", "--jobs", "4",
                     "--base-seed", "42", "--out-dir", str(first)])
    elapsed = time.monotonic() - t0
    code2 = cli_run(["grid", "--reps", "10", "--jobs", "4",
                     "--base-seed", "42", "--out-dir", str(second)])
    assert code1 == 0 and code2 == 0
    return first, second, elapsed


# -- criteria ----------------------------------------------------------------

def test_capacity_saturation():
    t0 = time.monotonic()
    sim = Simulator(SimConfig(seed=42))
    sim.set_cwnd(64)
    thr = sim.advance(5000.0)
    elapsed = time.monotonic() - t0
    ok = abs(thr - 250_000) <= 0.02 * 250_000 and elapsed < 1.0
    _check("capacity saturation (cwnd=64 within 2% of 250000 B/s, <1s)",
           ok, f"throughput={thr:.0f} B/s in {elapsed:.2f}s")


def test_hand_trace_oracle():
    t0 = time.monotonic()
    sim = Simulator(SimConfig(seed=42))
    thr = sim.advance(5000.0)
    elapsed = time.monotonic() - t0
    # one segment per 19.824 ms round trip -> 50444 B/s; the published
    # approximation 50400 sits inside the same 1% band
    ok = abs(thr - 50_400) <= 0.01 * 50_400 and elapsed < 1.0
    _check("hand-trace oracle (cwnd=1 within 1% of 50400 B/s, <1s)",
           ok, f"throughput={thr:.0f} B/s in {elapsed:.2f}s")


def _relu_masks(net, states):
    """Sign pattern of every hidden pre-activation for the batch."""
    a = np.asarray(states, dtype=np.float64)
    masks = []
    for w, b in net.layers[:-1]:
        z = a @ w.T + b
        masks.append(z > 0.0)
        a = np.maximum(z, 0.0)
    return masks


def test_gradient_suite():
    t0 = time.monotonic()
    h = 1e-5
    worst = 0.0
    checked = 0
    for hidden in (2, 4, 8):
        for draw in range(20):
            rng = np.random.default_rng(hidden * 100 + draw)
            net = QNetwork(hidden, 8, rng)
            states = rng.normal(size=(6, 6))
            actions = rng.integers(3, size=6)
            targets = rng.normal(size=6)
            _, grads = loss_and_grads(net, states, actions, targets)
            base_masks = _relu_masks(net, states)
            for li, (w, b) in enumerate(net.layers):
                for arr, grad in ((w, grads[li][0]), (b, grads[li][1])):
                    flat = arr.reshape(-1)
                    picks = rng.choice(flat.size,
                                       size=min(4, flat.size), replace=False)
                    for k in picks:
                        orig = flat[k]
                        flat[k] = orig + h
                        lp, _ = loss_and_grads(net, states, actions, targets)
                        masks_p = _relu_masks(net, states)
                        flat[k] = orig - h
                        lm, _ = loss_and_grads(net, states, actions, targets)
                        masks_m = _relu_masks(net, states)
                        flat[k] = orig
                        # central differences are valid only where the loss
                        # is smooth: skip draws sitting on a ReLU kink
                        if any(not np.array_equal(mp, mb)
                               or not np.array_equal(mm, mb)
                               for mp, mm, mb
                               in zip(masks_p, masks_m, base_masks)):
                            continue
                        fd = (lp - lm) / (2 * h)
                        an = grad.reshape(-1)[k]
                        # the 1e-6 floor absorbs the ~1e-11 absolute noise
                        # central differences carry at this h
                        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
                        worst = max(worst, rel)
                        checked += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and checked >= 1000 and elapsed < 30.0
    _check("gradient suite (finite differences, depths 2/4/8, rel err <1e-4, <30s)",
           ok, f"worst rel err={worst:.2e} over {checked} params in {elapsed:.1f}s")


def test_bandit_sanity():
    t0 = time.monotonic()
    accuracies = []
    for seed in range(5):
        agent = DqnAgent(DqnConfig(seed=seed))
        rng = np.random.default_rng(1000 + seed)
        for _ in range(2000):
            s = np.zeros(6)
            s[0] = rng.random()
            a = agent.select_action(s)
            optimal = 2 if s[0] > 0.5 else 0
            agent.buffer.push(s, a, float(a == optimal), s, True)
            agent.learn()
        correct = 0
        for _ in range(500):
            s = np.zeros(6)
            s[0] = rng.random()
            correct += int(np.argmax(agent.net.activations(s)[-1][0])) \
                == (2 if s[0] > 0.5 else 0)
        accuracies.append(correct / 500)
    elapsed = time.monotonic() - t0
    ok = min(accuracies) >= 0.95 and elapsed < 60.0
    _check("bandit sanity (>=95% optimal on 5 seeds within 2000 steps, <1min)",
           ok, f"accuracies={accuracies} in {elapsed:.1f}s")


def test_learning_beats_random(tenseed_runs):
    trained = tenseed_runs[("dqn", 0.0)]
    random_ = tenseed_runs[("random", 0.0)]
    trained_mean = statistics.mean(
        rec.avg_throughput_Bps for rec, _ in trained)
    random_mean = statistics.mean(
        rec.avg_throughput_Bps for rec, _ in random_)
    ratio = trained_mean / random_mean

    up = 0
    for _, trace in trained:
        cwnds = [row.cwnd for row in trace]
        if statistics.median(cwnds[150:200]) > statistics.median(cwnds[0:50]):
            up += 1

    ok = ratio >= 1.5 and up >= 8
    _check("learning beats random (mean avg_throughput +50%, cwnd up in >=8/10 seeds)",
           ok,
           f"trained={trained_mean:.0f} random={random_mean:.0f} "
           f"ratio={ratio:.2f} (need >=1.50), cwnd-up seeds={up}/10")


def test_error_rate_ordering(tenseed_runs):
    clean = statistics.mean(
        rec.avg_throughput_Bps for rec, _ in tenseed_runs[("dqn", 0.0)])
    lossy = statistics.mean(
        rec.avg_throughput_Bps for rec, _ in tenseed_runs[("dqn", 0.2)])
    ok = clean > lossy
    _check("error-rate ordering (mean throughput 0% > 20% error, matched seeds)",
           ok, f"clean={clean:.0f} lossy={lossy:.0f}")


def test_convergence_detector_oracle():
    def brute_force(series, w=20, tol=0.10):
        n = len(series)
        means = [sum(series[s:s + w]) / w for s in range(n - w + 1)]
        plateau = means[-1]
        t = 0
        for s, m in enumerate(means):
            if abs(m - plateau) > tol * abs(plateau):
                t = s + w + 1
        return None if t > n - w else t

    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(40, 220))
        if rng.random() < 0.5:
            series = rng.integers(1, 200, size=n).astype(float)
        else:
            split = int(rng.integers(1, n))
            series = np.concatenate([
                np.full(split, float(rng.integers(1, 100))),
                np.full(n - split, float(rng.integers(1, 100)))])
            series += rng.normal(0, 1.0, size=n)
        if convergence_step(series) != brute_force(list(series)):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _check("convergence detector oracle (1000 series vs brute force, <10s)",
           ok, f"mismatches={mismatches} in {elapsed:.1f}s")


def test_ols_oracle():
    # balanced 2x2 design, 2 reps; +-250 noise flips sign between reps so
    # it is orthogonal to every design column and cancels exactly
    a = np.array([-1.0, -1.0, 1.0, 1.0] * 2)
    b = np.array([-1.0, 1.0, -1.0, 1.0] * 2)
    X, names = make_interaction_design([a, b], ["A", "B"])
    y = 84_320.0 - 8585.0 * a + np.repeat([250.0, -250.0], 4)
    rows = ols_fit(X, names, y)

    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    resid = y - X @ beta
    s2 = float(resid @ resid) / (len(y) - 4)
    se = np.sqrt(s2 * np.diag(xtx_inv))

    coef_ok = all(abs(r.coefficient - beta[j]) < 1e-9
                  for j, r in enumerate(rows))
    se_ok = all(abs(r.std_error - se[j]) < 1e-9 for j, r in enumerate(rows))
    t_ok = all(abs(r.t_value - beta[j] / se[j]) < 1e-9
               for j, r in enumerate(rows))
    p_ok = abs(student_t_two_sided_p(2.776, 4) - 0.050) <= 0.001
    infl_ok = (rows[0].influence is None
               and all(r.influence == 2.0 * r.coefficient for r in rows[1:])
               and rows[1].coefficient == pytest.approx(-8585.0)
               and rows[1].influence == pytest.approx(-17_170.0))
    ok = coef_ok and se_ok and t_ok and p_ok and infl_ok
    _check("OLS oracle (normal equations to 1e-9, p(2.776,4)=0.05, influence=2x)",
           ok, f"coef={coef_ok} se={se_ok} t={t_ok} p={p_ok} influence={infl_ok}")


def test_regression_table_structure(full_grid, tmp_path, capsys):
    first, _, _ = full_grid
    code = cli_run(["analyze", "--runs", str(first / "runs.csv"),
                    "--factors", "error_rate,layers",
                    "--out-dir", str(tmp_path)])
    capsys.readouterr()
    import csv
    with open(tmp_path / "regression.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    terms = [r[0] for r in rows[1:]]
    ok = code == 0 and terms == ["constant", "error_rate", "layers",
                                 "error_rate*layers"]
    _check("regression table structure (constant + two mains + interaction)",
           ok, f"terms={terms}")


def test_end_to_end_determinism_and_scale(full_grid):
    first, second, elapsed = full_grid
    runs_same = (first / "runs.csv").read_bytes() \
        == (second / "runs.csv").read_bytes()
    steps_same = (first / "steps.csv").read_bytes() \
        == (second / "steps.csv").read_bytes()
    ok = runs_same and steps_same and elapsed < 600.0
    _check("end-to-end determinism and scale (120-run grid byte-identical, <10min)",
           ok, f"runs_same={runs_same} steps_same={steps_same} "
               f"grid_time={elapsed:.0f}s")
