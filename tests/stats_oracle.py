"""Reference implementations the Qcc tests compare against.

cross_corr_coeff and qcc_statistic evaluate the lagged cross-correlation
and the portmanteau statistic straight from their definitions, one lag
at a time and one lag depth at a time, sharing no code with
mfxdma.stats.qcc_test, which forms every depth from one cumulative sum.
"""

import math

import numpy as np

from mfxdma.stats import StatsError


def cross_corr_coeff(x, y, lag):
    """Lagged cross-correlation X_i = sum_k x[k] y[k-i] / sqrt(sum x^2 sum y^2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if y.size != n:
        raise StatsError("inputs must share length")
    if not (1 <= lag < n):
        raise StatsError(f"lag must be in [1, {n - 1}], got {lag}")
    denom = math.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))
    if denom == 0.0:
        raise StatsError("zero-variance input")
    return float(np.dot(x[lag:], y[: n - lag])) / denom


def qcc_statistic(x, y, m):
    """Portmanteau statistic N^2 * sum_{i=1..m} X_i^2 / (N - i)."""
    n = np.size(x)
    if np.size(y) != n:
        raise StatsError("inputs must share length")
    if not (1 <= m < n):
        raise StatsError(f"m must be in [1, {n - 1}], got {m}")
    return float(n * n * sum(cross_corr_coeff(x, y, i) ** 2 / (n - i)
                             for i in range(1, m + 1)))
