import itertools

import numpy as np
import pytest

from rlcc.dqn import DqnAgent
from rlcc.experiments import (FactorLevels, convergence_step, derive_seed,
                              enumerate_runs, execute_run)
from rlcc.schema import (ALLOWED_HIDDEN_COUNTS, DqnConfig, EnvConfig, RunSpec,
                         Step)

FAST_ENV = EnvConfig(episode_length=40)
FAST_DQN = DqnConfig(train_updates_per_step=1)


def brute_force_convergence(series, window=20, tol=0.10):
    """Independent re-derivation by direct window scanning.

    The convergence step is the smallest t such that every window starting
    at or after t stays within tol of the final window's mean, capped so a
    full in-band window must fit before the series ends.
    """
    n = len(series)
    w = window
    means = [sum(series[s:s + w]) / w for s in range(n - w + 1)]
    plateau = means[-1]
    ok = [abs(m - plateau) <= tol * abs(plateau) for m in means]
    t = 0
    for s in range(len(ok)):
        if not ok[s]:
            t = s + w + 1
    if t > n - w:
        return None
    return t


class TestSeedDerivation:
    def test_deterministic(self):
        a = derive_seed(42, 2, 0.01, 0.0, 3)
        assert a == derive_seed(42, 2, 0.01, 0.0, 3)
        assert 0 <= a < 2 ** 64

    def test_distinct_across_inputs(self):
        seeds = {derive_seed(b, l, lr, e, r)
                 for b in (42, 43)
                 for l in (2, 4, 8)
                 for lr in (0.01, 0.001)
                 for e in (0.0, 0.2)
                 for r in range(5)}
        assert len(seeds) == 2 * 3 * 2 * 2 * 5


class TestEnumerateRuns:
    def test_full_design_size_and_order(self):
        specs = enumerate_runs(FactorLevels(), reps=10)
        assert len(specs) == 12 * 10
        cells = [(s.layers, s.learning_rate, s.error_rate) for s in specs]
        assert cells == sorted(cells)
        assert len(set(s.run_id for s in specs)) == 120
        assert len(set(cells)) == 12

    def test_full_design_is_cartesian_product(self):
        specs = enumerate_runs(FactorLevels(), reps=1)
        cells = {(s.layers, s.learning_rate, s.error_rate) for s in specs}
        assert cells == set(itertools.product((2, 4, 8), (0.01, 0.001),
                                              (0.0, 0.2)))

    def test_seeds_differ_per_rep_and_follow_derivation(self):
        specs = enumerate_runs(FactorLevels(), reps=3, base_seed=7)
        assert len({s.seed for s in specs}) == len(specs)
        for s in specs:
            assert s.seed == derive_seed(7, s.layers, s.learning_rate,
                                         s.error_rate, s.rep)

    @pytest.mark.parametrize("kw", [
        dict(reps=-1),
        dict(reps=0),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            enumerate_runs(FactorLevels(), **kw)

    def test_levels_cannot_be_set(self):
        with pytest.raises(TypeError):
            FactorLevels(layers=(2,))

    def test_depths_are_the_allowed_hidden_counts(self):
        assert FactorLevels().layers is ALLOWED_HIDDEN_COUNTS


class TestConvergenceStep:
    def test_constant_series_converges_at_zero(self):
        assert convergence_step([10] * 200) == 0

    def test_step_series(self):
        # 100 steps at 1 then 100 at 50: last window straddling the jump
        # starts at 97 -> answer 97 + 20 + 1 = 118
        series = [1] * 100 + [50] * 100
        assert convergence_step(series) == 118

    def test_late_jump_returns_none(self):
        series = [10] * 190 + [100] * 10
        assert convergence_step(series) is None

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            convergence_step([1] * 39)

    def test_matches_brute_force_on_random_series(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(40, 120))
            kind = rng.integers(3)
            if kind == 0:
                series = rng.integers(1, 200, size=n).astype(float)
            elif kind == 1:
                level = float(rng.integers(1, 100))
                series = level + rng.normal(0, level * 0.03, size=n)
            else:
                split = int(rng.integers(1, n))
                series = np.concatenate([
                    np.full(split, float(rng.integers(1, 100))),
                    np.full(n - split, float(rng.integers(1, 100)))])
            assert convergence_step(series) == brute_force_convergence(series)


class TestExecuteRun:
    def make_spec(self, rep=0, error_rate=0.0):
        return RunSpec(run_id=f"t-{rep}", layers=2, learning_rate=0.01,
                       error_rate=error_rate, rep=rep,
                       seed=derive_seed(1, 2, 0.01, error_rate, rep))

    def test_trace_structure(self):
        record, trace = execute_run(self.make_spec(), FAST_ENV, FAST_DQN)
        assert len(trace) == 40
        assert [row.step for row in trace] == list(range(1, 41))
        assert all(type(row) is Step for row in trace)
        assert Step._fields == ("run_id", "step", "cwnd", "throughput_Bps",
                                "avg_rtt_ms", "reward", "epsilon", "loss")
        assert not record.diverged
        assert record.max_throughput_Bps >= record.avg_throughput_Bps

    def test_record_summaries_match_trace(self):
        record, trace = execute_run(self.make_spec(), FAST_ENV, FAST_DQN)
        thr = [row.throughput_Bps for row in trace]
        assert record.avg_throughput_Bps == pytest.approx(np.mean(thr))
        assert record.max_throughput_Bps == pytest.approx(max(thr))
        assert record.cumulative_reward == pytest.approx(
            sum(row.reward for row in trace))
        assert record.final_cwnd == trace[-1].cwnd

    def test_epsilon_schedule_in_trace(self):
        _, trace = execute_run(self.make_spec(), FAST_ENV, FAST_DQN)
        eps = [row.epsilon for row in trace]
        assert eps[0] == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(eps, eps[1:]))

    def test_deterministic_per_spec(self):
        from dataclasses import replace

        def normalized(run):
            record, trace = run
            return replace(record, wall_time_ms=0), trace

        r1, t1 = normalized(execute_run(self.make_spec(), FAST_ENV, FAST_DQN))
        r2, t2 = normalized(execute_run(self.make_spec(), FAST_ENV, FAST_DQN))
        assert r1 == r2 and t1 == t2
        r3, _ = normalized(execute_run(self.make_spec(rep=1), FAST_ENV,
                                       FAST_DQN))
        assert r3 != r1

    def test_random_policy_has_no_training_columns(self):
        record, trace = execute_run(self.make_spec(), FAST_ENV, FAST_DQN,
                                    policy="random")
        assert all(row.epsilon is None and row.loss is None
                   for row in trace)
        assert not record.diverged

    def test_random_policy_builds_no_agent(self, monkeypatch):
        def refuse(self, cfg):
            raise AssertionError("random policy built a DqnAgent")

        monkeypatch.setattr(DqnAgent, "__init__", refuse)
        _, trace = execute_run(self.make_spec(), FAST_ENV, FAST_DQN,
                               policy="random")
        assert len(trace) == FAST_ENV.episode_length

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            execute_run(self.make_spec(), FAST_ENV, FAST_DQN, policy="greedy")

    def test_error_rate_reaches_simulator(self):
        clean, _ = execute_run(self.make_spec(), FAST_ENV, FAST_DQN,
                               policy="random")
        lossy, _ = execute_run(self.make_spec(error_rate=0.9), FAST_ENV,
                               FAST_DQN, policy="random")
        assert lossy.avg_throughput_Bps < clean.avg_throughput_Bps

    def test_divergence_flagged_not_raised(self):
        # an absurd learning rate reliably blows up the loss
        spec = RunSpec(run_id="boom", layers=2, learning_rate=1e12,
                       error_rate=0.0, rep=0, seed=1)
        with np.errstate(all="ignore"):
            record, trace = execute_run(spec, FAST_ENV, FAST_DQN)
        assert record.diverged
        assert record.convergence_step is None
        assert len(trace) <= 40

    def test_nonfinite_theta_after_last_update_flagged(
            self, poison_last_train_step):
        # the loss check precedes each update, so only the end-of-run check
        # sees theta overflow on the last step
        record, trace = poison_last_train_step(
            lambda: execute_run(self.make_spec(), FAST_ENV, FAST_DQN))
        assert record.diverged
        assert record.convergence_step is None
        assert len(trace) == 40
