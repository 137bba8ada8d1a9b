import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlcc import stats
from rlcc.schema import FactorLevels, RegressionRow
from rlcc.stats import (code_level, make_interaction_design, ols_fit,
                        render_table, student_t_two_sided_p)


def ols_oracle(X, y):
    """Independent fit via explicit normal equations: beta, SE, t."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    n, p = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    resid = y - X @ beta
    s2 = float(resid @ resid) / (n - p)
    se = np.sqrt(s2 * np.diag(xtx_inv))
    return beta, se, beta / se


def t_p_oracle(t, df):
    """Two-sided Student-t tail via arbitrary-precision integration."""
    import mpmath
    t = mpmath.mpf(abs(t))
    df_ = mpmath.mpf(df)
    pdf = lambda x: (mpmath.gamma((df_ + 1) / 2)
                     / (mpmath.sqrt(df_ * mpmath.pi) * mpmath.gamma(df_ / 2))
                     * (1 + x * x / df_) ** (-(df_ + 1) / 2))
    return float(2 * mpmath.quad(pdf, [t, mpmath.inf]))


#: The differential grid against scipy: small to large residual df, and
#: |t| log-spaced over [1e-3, 1e3] plus t = 0.
SCIPY_DFS = [1, 2, 3, 4, 5, 8, 12, 20, 36, 116, 200, 1000, 10**4]
SCIPY_TS = [0.0, *np.logspace(-3, 3, 121)]


def p_tolerance(df):
    """Relative accuracy promised against scipy: 1e-12 up to df 200 and
    1e-9 beyond.  Above df 341, 1/B(a, b) comes from lgamma's difference,
    whose cancellation grows with df."""
    return 1e-12 if df <= 200 else 1e-9


class TestCoding:
    @pytest.mark.parametrize("factor,raw,coded", [
        ("error_rate", 0.0, -1.0),
        ("error_rate", 0.2, 1.0),
        ("learning_rate", 0.001, -1.0),
        ("learning_rate", 0.01, 1.0),
        ("layers", 2, -1.0),
        ("layers", 4, 0.0),
        ("layers", 8, 1.0),
    ])
    def test_levels(self, factor, raw, coded):
        assert code_level(factor, raw) == coded

    def test_codings_follow_factor_levels(self):
        for name, levels in asdict(FactorLevels()).items():
            coded = [code_level(name, level) for level in sorted(levels)]
            assert coded == list(np.linspace(-1.0, 1.0, len(levels)))

    def test_unknown_factor(self):
        with pytest.raises(ValueError, match="unknown factor 'dropout'"):
            code_level("dropout", 0.5)

    def test_unknown_level(self):
        with pytest.raises(ValueError,
                           match="3 is not a declared level of 'layers'"):
            code_level("layers", 3)

    @pytest.mark.parametrize("factor,value,level", [
        ("layers", 2.0, 2), ("error_rate", -0.0, 0.0),
        ("learning_rate", 0.001, 0.001)])
    def test_declared_level_is_the_declared_one(self, factor, value, level):
        found = stats.declared_level(factor, value)
        assert (type(found), repr(found)) == (type(level), repr(level))

    def test_declared_level_refuses_what_code_level_does(self):
        with pytest.raises(ValueError,
                           match="^3.0 is not a declared level of 'layers'$"):
            stats.declared_level("layers", 3.0)
        with pytest.raises(ValueError, match="unknown factor 'dropout'"):
            stats.declared_level("dropout", 0.5)


class TestStudentT:
    @pytest.mark.parametrize("t,df", [
        (0.0, 5), (1.0, 1), (2.776, 4), (2.0, 10), (78.41, 36), (-3.5, 7),
    ])
    def test_matches_numeric_integration(self, t, df):
        assert student_t_two_sided_p(t, df) == pytest.approx(
            t_p_oracle(t, df), rel=1e-8, abs=1e-12)

    def test_textbook_critical_value(self):
        # t = 2.776 is the classic 5% two-sided critical value for df = 4
        assert student_t_two_sided_p(2.776, 4) == pytest.approx(0.05, abs=1e-3)

    def test_symmetry_and_range(self):
        for t in (0.5, 1.7, 9.0):
            p = student_t_two_sided_p(t, 8)
            assert p == student_t_two_sided_p(-t, 8)
            assert 0.0 < p < 1.0

    def test_df_validation(self):
        with pytest.raises(ValueError):
            student_t_two_sided_p(1.0, 0)

    def test_nan_t_rejected_and_infinite_t_most_significant(self):
        with pytest.raises(ValueError):
            student_t_two_sided_p(float("nan"), 5)
        assert student_t_two_sided_p(float("inf"), 5) == 0.0
        assert student_t_two_sided_p(float("-inf"), 5) == 0.0

    @pytest.mark.parametrize("df", SCIPY_DFS)
    def test_matches_scipy_betainc(self, df):
        # scipy is a test-only oracle: the betainc call rlcc made before
        special = pytest.importorskip("scipy.special")
        for t in SCIPY_TS:
            want = float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))
            for signed in (t, -t):
                # below the normal range scipy gives 0 or a subnormal
                assert student_t_two_sided_p(signed, df) == pytest.approx(
                    want, rel=p_tolerance(df), abs=np.finfo(float).tiny)

    @pytest.mark.parametrize("df", [36, 100, 116, 150, 250, 300, 340])
    def test_accurate_where_fraction_swaps(self, df):
        # Just below the swap p is 1 - I_(1-x)(1/2, df/2) near 0.1, so the
        # error of 1/B(a, b) grows about tenfold; as a ratio of gammas it
        # stays within 1e-13 of a 40-digit betainc (lgamma's difference
        # reaches 1.6e-12 here)
        import mpmath
        a = df / 2.0
        t_swap = math.sqrt(df * ((a + 2.5) / (a + 1.0) - 1.0))
        for t in (t_swap * (1 - 1e-12), t_swap * (1 + 1e-12)):
            x = df / (df + t * t)
            with mpmath.workdps(40):
                want = float(mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0,
                                            mpmath.mpf(x), regularized=True))
            assert student_t_two_sided_p(t, df) == pytest.approx(
                want, rel=1e-13, abs=0.0)

    def test_zero_t_is_exactly_one(self):
        for df in SCIPY_DFS:
            assert student_t_two_sided_p(0.0, df) == 1.0
            assert student_t_two_sided_p(-0.0, df) == 1.0

    def test_unconverged_fraction_raises(self, monkeypatch):
        # t = 2 at df 36 needs about 25 steps; one is never enough
        monkeypatch.setattr(stats, "_CF_MAX_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge"):
            student_t_two_sided_p(2.0, 36)

    @settings(max_examples=300, deadline=None)
    @given(df=st.integers(1, 10**4),
           t1=st.floats(-1e3, 1e3, allow_nan=False),
           t2=st.floats(-1e3, 1e3, allow_nan=False))
    def test_in_range_symmetric_and_falls_with_abs_t(self, df, t1, t2):
        if abs(t2) < abs(t1):
            t1, t2 = t2, t1
        p1, p2 = student_t_two_sided_p(t1, df), student_t_two_sided_p(t2, df)
        assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0
        assert p1 == student_t_two_sided_p(-t1, df)
        assert p2 <= p1 * (1.0 + p_tolerance(df))


class TestDesign:
    def test_interaction_design_columns(self):
        a = np.array([-1.0, -1.0, 1.0, 1.0])
        b = np.array([-1.0, 1.0, -1.0, 1.0])
        X, names = make_interaction_design([a, b], ["error_rate", "layers"])
        assert names == ["constant", "error_rate", "layers",
                         "error_rate*layers"]
        np.testing.assert_array_equal(X[:, 0], 1.0)
        np.testing.assert_array_equal(X[:, 1], a)
        np.testing.assert_array_equal(X[:, 2], b)
        np.testing.assert_array_equal(X[:, 3], a * b)

    def test_three_factor_columns(self):
        a, b, c = np.random.default_rng(3).uniform(-1, 1, size=(3, 12))
        X, names = make_interaction_design([a, b, c], ["e", "l", "r"])
        assert names == ["constant", "e", "l", "r", "e*l", "e*r", "l*r",
                         "e*l*r"]
        for column, want in zip(X.T, [np.ones(12), a, b, c, a * b, a * c,
                                      b * c, a * b * c]):
            np.testing.assert_array_equal(column, want)


class TestOlsFit:
    def full_factorial(self, reps, rng=None):
        a, b = [], []
        for ca in (-1.0, 1.0):
            for cb in (-1.0, 0.0, 1.0):
                a += [ca] * reps
                b += [cb] * reps
        return make_interaction_design([a, b], ["A", "B"])

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(0)
        X, names = self.full_factorial(reps=6)
        y = 80_000 - 9000 * X[:, 1] + 3000 * X[:, 2] \
            + 500 * X[:, 3] + rng.normal(0, 1000, size=X.shape[0])
        rows = ols_fit(X, names, y)
        beta, se, t = ols_oracle(X, y)
        for j, row in enumerate(rows):
            assert row.coefficient == pytest.approx(beta[j], rel=1e-10)
            assert row.std_error == pytest.approx(se[j], rel=1e-10)
            assert row.t_value == pytest.approx(t[j], rel=1e-10)
            assert row.p_value == pytest.approx(
                t_p_oracle(t[j], X.shape[0] - 4), rel=1e-6, abs=1e-12)

    def test_three_way_effect_matches_oracle(self):
        # 2 x 3 x 2 cells, 3 reps: the planted a*b*c term needs the
        # three-factor design to be fitted at all
        a, b, c = np.array([(ca, cb, cc) for ca in (-1.0, 1.0)
                            for cb in (-1.0, 0.0, 1.0) for cc in (-1.0, 1.0)
                            for _ in range(3)]).T
        X, names = make_interaction_design([a, b, c], ["A", "B", "C"])
        y = 50_000 - 4000 * a + 1500 * c + 2500 * a * b * c \
            + np.random.default_rng(4).normal(0, 500, size=a.size)
        rows = ols_fit(X, names, y)
        beta, se, t = ols_oracle(X, y)
        assert [row.term for row in rows] == names and len(rows) == 8
        for j, row in enumerate(rows):
            assert row.coefficient == pytest.approx(beta[j], rel=1e-10)
            assert row.std_error == pytest.approx(se[j], rel=1e-10)
            assert row.t_value == pytest.approx(t[j], rel=1e-10)
        assert rows[-1].term == "A*B*C" and rows[-1].p_value < 1e-6

    def test_influence_is_twice_coefficient(self):
        rng = np.random.default_rng(1)
        X, names = self.full_factorial(reps=4)
        y = rng.normal(size=X.shape[0])
        rows = ols_fit(X, names, y)
        assert rows[0].influence is None
        for row in rows[1:]:
            assert row.influence == pytest.approx(2.0 * row.coefficient)

    def test_exact_effect_recovery_balanced_design(self):
        # symmetric +-delta noise cancels exactly in a balanced design, so
        # the fitted coefficient equals the planted half-effect
        X, names = self.full_factorial(reps=2)
        y = 84_320.0 - 8585.0 * X[:, 1]
        noise = np.tile([250.0, -250.0], X.shape[0] // 2)
        rows = ols_fit(X, names, y + noise)
        assert rows[1].coefficient == pytest.approx(-8585.0)
        assert rows[1].influence == pytest.approx(-17_170.0)
        assert rows[0].coefficient == pytest.approx(84_320.0)

    def test_perfect_fit_flags(self):
        X = np.column_stack([np.ones(4), np.array([-1.0, 1.0, -1.0, 1.0])])
        y = np.array([1.0, 3.0, 1.0, 3.0])  # exactly 2 + x
        rows = ols_fit(X, ["constant", "x"], y)
        for row in rows:
            assert row.std_error == 0.0
            assert row.t_value is None
            assert row.p_value is None
        assert rows[0].coefficient == pytest.approx(2.0)
        assert rows[1].coefficient == pytest.approx(1.0)

    @pytest.mark.parametrize("big", [1e300, -1e300, 1.7e308])
    def test_overflowing_response_raises(self, big):
        # ||y||^2 and the residual sum of squares overflow to inf; that is
        # no perfect fit
        X, names = self.full_factorial(reps=2)
        y = np.arange(float(X.shape[0]))
        y[3] = big
        with np.errstate(all="raise"):   # no numpy warning on the way
            with pytest.raises(ValueError, match="^response overflows: "
                               "y @ y = inf, RSS = inf$"):
                ols_fit(X, names, y)

    def test_singular_design_names_column(self):
        a = np.array([-1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
        X, names = make_interaction_design([a, a], ["A", "A2"])
        # A2 repeats A, so the first dependent column is A2
        with pytest.raises(ValueError, match="^design matrix is rank "
                           "deficient at column 'A2'$"):
            ols_fit(X, names, np.arange(6.0))

    def test_shape_validation(self):
        X, names = self.full_factorial(reps=1)
        with pytest.raises(ValueError):
            ols_fit(X, names, np.zeros(5))
        with pytest.raises(ValueError):
            ols_fit(X[:4], names, np.zeros(4))  # df would be zero
        with pytest.raises(ValueError):
            ols_fit(X, names[:-1], np.zeros(X.shape[0]))


class TestRenderTable:
    def test_layout(self):
        rows = [
            RegressionRow("constant", None, 84_320.0, 1075.0, 78.41, 0.0),
            RegressionRow("error_rate", -17_170.0, -8585.0, 1075.0, -7.98,
                          0.000001),
        ]
        text = render_table(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["Term", "Influence", "Coefficient",
                                    "Standard", "Error", "T-Value", "P-Value"]
        assert "constant" in lines[2]
        assert "78.41" in lines[2]
        assert "-17170.0" in lines[3]
        # all rows equally wide
        assert len({len(l) for l in (lines[0], lines[1])} ) == 1

    def test_none_rendered_blank(self):
        rows = [RegressionRow("x", 2.0, 1.0, 0.0, None, None)]
        text = render_table(rows)
        assert text.splitlines()[-1].rstrip().endswith("0.0")
