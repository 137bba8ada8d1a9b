"""Ordinary least squares on coded experiment factors.

Each factor's declared levels are coded, in sorted order, to evenly spaced
points on [-1, +1] ({-1, +1} for two levels, {-1, 0, +1} for three), so a
coefficient reads as a half-effect and the reported influence is twice the
coefficient.  The fit uses a QR decomposition rather than an explicit
normal-equation inverse.  p-values are the two-sided Student-t tail, the
regularized incomplete beta function, computed here by a continued fraction
from the standard library's math functions alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from itertools import combinations

import numpy as np

from .experiments import FactorLevels
from .schema import RegressionRow

#: A residual sum of squares at most this fraction of ||y||^2 (or of 1) is
#: a perfect fit.
PERFECT_FIT_RTOL = 1e-12

#: _betainc stops once a step moves its fraction by at most _CF_EPS and
#: raises after _CF_MAX_STEPS steps (about 60 suffice at any df).
_CF_EPS, _CF_MAX_STEPS, _CF_TINY = 1e-15, 200, 1e-300


#: factor -> {level: coded}: the experiment's declared levels, sorted, by
#: index onto evenly spaced points of [-1, +1].
_CODINGS = {name: {level: 2.0 * i / (len(levels) - 1) - 1.0
                   for i, level in enumerate(sorted(levels))}
            for name, levels in asdict(FactorLevels()).items()}


def code_level(factor: str, raw) -> float:
    if factor not in _CODINGS:
        raise ValueError(f"unknown factor {factor!r}")
    if raw not in _CODINGS[factor]:
        raise ValueError(f"{raw!r} is not a declared level of {factor!r}")
    return _CODINGS[factor][raw]


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), 0 <= x <= 1, by the modified
    Lentz continued fraction (Numerical Recipes 6.4); from x = (a + 1) /
    (a + b + 2) on, where it converges slower, as 1 - I_(1-x)(b, a)."""
    if x == 0.0 or x == 1.0:
        return x
    swap = x >= (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x = b, a, 1.0 - x
    # 1/B(a, b) by gamma's ratio where it fits: lgamma's difference cancels
    front = math.exp(a * math.log(x) + b * math.log1p(-x)) / a * (
        math.gamma(a + b) / math.gamma(a) / math.gamma(b) if a + b < 171
        else math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)))
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_STEPS + 1):
        q = a + 2 * m
        for num in (m * (b - m) * x / ((q - 1) * q),
                    -(a + m) * (a + b + m) * x / (q * (q + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) <= _CF_EPS:
            return 1.0 - front * h if swap else front * h
    raise ArithmeticError(f"incomplete beta I_x(a, b) at a={a}, b={b}, "
                          f"x={x} did not converge in {_CF_MAX_STEPS} steps")


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for T ~ Student-t with df degrees of freedom: 1 at
    t = 0 and 0 at t = +-inf, where df / (df + t * t) is 1 or 0."""
    t = float(t)
    if df < 1 or math.isnan(t):
        raise ValueError(f"need df >= 1 and t not nan, got df={df}, t={t}")
    return _betainc(df / 2.0, 0.5, df / (df + t * t))


def make_interaction_design(coded, names):
    """Full-factorial design on coded columns, with term names: the
    constant, the mains, then the product of every two or more columns,
    lower orders first, each order in ``names`` order ("a*b", "a*b*c")."""
    cols = [np.asarray(c, dtype=np.float64) for c in coded]
    terms = [t for k in range(1, len(cols) + 1)
             for t in combinations(range(len(cols)), k)]
    X = np.column_stack([np.ones_like(cols[0])] + [
        np.prod([cols[i] for i in t], axis=0) for t in terms])
    return X, ["constant"] + ["*".join(names[i] for i in t) for t in terms]


def ols_fit(X: np.ndarray, names: list[str],
            y: np.ndarray) -> list[RegressionRow]:
    """Least-squares fit with coefficient/SE/t/p per term.

    Terms other than the first (intercept) also report influence = 2 * beta.
    A residual sum of squares within PERFECT_FIT_RTOL of ||y||^2 is flagged
    as a perfect fit: SE 0, t and p undefined.  A rank-deficient design
    raises ValueError naming its first dependent column.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    if len(names) != p:
        raise ValueError("one name per design column required")
    if y.shape != (n,):
        raise ValueError("response length must match design rows")
    if n <= p:
        raise ValueError("need more rows than columns (residual df > 0)")

    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    tiny = diag < np.finfo(float).eps * max(n, p) * (diag.max() or 1.0)
    if tiny.any():
        raise ValueError("design matrix is rank deficient at column "
                         f"{names[int(np.flatnonzero(tiny)[0])]!r}")
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - X @ beta
    rss = float(resid @ resid)
    df = n - p
    r_inv = np.linalg.solve(r, np.eye(p))
    xtx_inv_diag = (r_inv * r_inv).sum(axis=1)

    perfect = rss <= PERFECT_FIT_RTOL * max(float(y @ y), 1.0)
    s2 = 0.0 if perfect else rss / df
    rows = []
    for j, name in enumerate(names):
        se = float(np.sqrt(s2 * xtx_inv_diag[j]))
        if perfect or se == 0.0:
            t_val, p_val = None, None
            se = 0.0
        else:
            t_val = float(beta[j] / se)
            p_val = student_t_two_sided_p(t_val, df)
        rows.append(RegressionRow(
            term=name,
            influence=None if j == 0 else 2.0 * float(beta[j]),
            coefficient=float(beta[j]),
            std_error=se,
            t_value=t_val,
            p_value=p_val,
        ))
    return rows


def render_table(rows: list[RegressionRow]) -> str:
    """Aligned text table: term, influence, coefficient, SE, t, p."""
    header = ["Term", "Influence", "Coefficient", "Standard Error",
              "T-Value", "P-Value"]

    def _fmt(value, digits):
        if value is None:
            return ""
        return f"{value:.{digits}f}"

    body = [[row.term,
             _fmt(row.influence, 1),
             _fmt(row.coefficient, 1),
             _fmt(row.std_error, 1),
             _fmt(row.t_value, 2),
             _fmt(row.p_value, 3)] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
