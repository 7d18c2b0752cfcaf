"""Cross-correlation portmanteau test and shared regression machinery."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class QccReport:
    """Portmanteau statistics against chi-square critical values."""

    m_values: np.ndarray
    qcc: np.ndarray
    critical: np.ndarray
    significance_level: float
    reject: np.ndarray

    def __post_init__(self):
        n = self.m_values.size
        if not (self.qcc.size == self.critical.size == self.reject.size == n):
            raise StatsError("report column lengths differ")


@dataclass(frozen=True)
class PolyFitReport:
    """OLS polynomial fit with per-coefficient and whole-model diagnostics.

    Coefficients are in increasing-power order (a_0 first).  t statistics
    test each coefficient against zero with the residual degrees of
    freedom; p-values are two-sided.
    """

    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    t_pvalues: np.ndarray
    f_stat: float
    f_pvalue: float
    r_squared: float


@functools.cache
def chi2_critical(m: int, level: float) -> float:
    """Upper-tail chi-square critical value: P[chi2_m > c] == level.

    Memoised: every pair of a grid asks for the same (m, level) values.
    qcc_test asks for m = 1..m_max in order, so a bounded cache smaller
    than m_max would evict each key before its reuse; m < N bounds the
    keys to N - 1 per level.
    """
    if m < 1:
        raise StatsError(f"degrees of freedom must be >= 1, got {m}")
    if not (0.0 < level < 1.0):
        raise StatsError(f"level must be in (0,1), got {level}")
    return float(special.chdtri(m, level))


def qcc_test(x: np.ndarray, y: np.ndarray, m_range: Sequence[int],
             level: float = 0.05) -> QccReport:
    """Run the portmanteau test over a range of lag depths."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if y.size != n:
        raise StatsError("inputs must share length")
    m_arr = np.asarray(list(m_range), dtype=np.int64)
    if m_arr.size == 0:
        raise StatsError("empty m range")
    if m_arr.max() >= n:
        raise StatsError(f"max lag depth {m_arr.max()} must be < N={n}")
    if m_arr.min() < 1:
        raise StatsError("lag depths must be >= 1")
    denom = math.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))
    if denom == 0.0:
        raise StatsError("zero-variance input")
    m_max = int(m_arr.max())
    # lagged cross-correlations X_i = sum_k x[k] y[k-i] / denom, i = 1..m_max
    xc = np.empty(m_max)
    for i in range(1, m_max + 1):
        xc[i - 1] = float(np.dot(x[i:], y[: n - i])) / denom
    terms = n * n * xc * xc / (n - np.arange(1, m_max + 1, dtype=np.float64))
    cumulative = np.cumsum(terms)
    qcc = cumulative[m_arr - 1]
    critical = np.array([chi2_critical(int(m), level) for m in m_arr])
    return QccReport(
        m_values=m_arr,
        qcc=qcc,
        critical=critical,
        significance_level=level,
        reject=qcc > critical,
    )


def _ols_design(xs: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix of a least-squares polynomial fit (increasing
    powers) and the inverse of its Gram matrix, shared by every fit on
    the same abscissae."""
    xs = np.asarray(xs, dtype=np.float64)
    if degree < 1:
        raise StatsError("degree must be >= 1")
    k = degree + 1
    if xs.size < k + 1:
        raise StatsError(f"need at least {k + 1} points for degree {degree}")
    if np.ptp(xs) == 0.0:
        raise StatsError("xs are all identical")
    design = np.vander(xs, k, increasing=True)
    try:
        gram_inv = np.linalg.inv(design.T @ design)
    except np.linalg.LinAlgError:
        raise StatsError("rank-deficient design matrix") from None
    return design, gram_inv


def _ols_fit(design: np.ndarray, gram_inv: np.ndarray, ys: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Least-squares fit of ys on a _ols_design: coefficients, their
    standard errors, R^2 and the whole-model F statistic."""
    ys = np.asarray(ys, dtype=np.float64)
    n, k = design.shape
    if ys.size != n:
        raise StatsError("inputs must share length")
    coef, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
    if rank < k:
        raise StatsError("rank-deficient design matrix")
    fitted = design @ coef
    resid = ys - fitted
    dof = n - k
    sse = float(resid @ resid)
    sst = float(np.sum((ys - ys.mean()) ** 2))
    ssr = sst - sse
    sigma2 = sse / dof
    cov = sigma2 * gram_inv
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if sse <= 1e-14 * max(sst, 1.0):
        return coef, se, 1.0, math.inf
    r2 = max(0.0, min(1.0, 1.0 - sse / sst)) if sst > 0.0 else 1.0
    return coef, se, r2, (ssr / (k - 1)) / sigma2


def ols_polyfit(xs: np.ndarray, ys: np.ndarray, degree: int) -> PolyFitReport:
    """Least-squares polynomial fit with t/F diagnostics and R^2."""
    coef, se, r2, f_stat = _ols_fit(*_ols_design(xs, degree), ys)
    dof = np.size(xs) - degree - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0.0, coef / se,
                           np.sign(coef) * np.inf)
        t_pvalues = 2.0 * special.stdtr(dof, -np.abs(t_stats))
    # an exact fit has an infinite F statistic; rounding can leave a
    # perfectly flat fit at a tiny negative F, where fdtrc gives NaN
    f_pvalue = (0.0 if f_stat == math.inf
                else float(special.fdtrc(degree, dof, max(f_stat, 0.0))))
    return PolyFitReport(
        coefficients=coef,
        std_errors=se,
        t_stats=t_stats,
        t_pvalues=t_pvalues,
        f_stat=f_stat,
        f_pvalue=f_pvalue,
        r_squared=r2,
    )
