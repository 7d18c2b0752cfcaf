"""Numeric kernels of the detrending and q-moment steps.

perfbench's `probe.*` metrics time these by their names.
"""

from __future__ import annotations

import math

import numpy as np


def window_means(z: np.ndarray, s: int) -> np.ndarray:
    # extended-precision cumsum keeps the running-sum error below float64
    # resolution even for 1e5-point profiles
    c = np.cumsum(z, dtype=np.longdouble)
    sums = np.empty(z.size - s + 1, dtype=np.longdouble)
    sums[0] = c[s - 1]
    sums[1:] = c[s:] - c[: z.size - s]
    return np.asarray(sums / s, dtype=np.float64)


def segment_products(
    ex: np.ndarray, ey: np.ndarray, s: int, n_seg: int
) -> np.ndarray:
    prod = np.abs(ex[: n_seg * s] * ey[: n_seg * s])
    return prod.reshape(n_seg, s).mean(axis=1)


def q_moments(fv: np.ndarray, q_grid: np.ndarray) -> np.ndarray:
    # log-domain power means: immune to overflow for strongly negative q on
    # near-degenerate segments
    logf = np.log(fv)
    n_seg = fv.size
    out = np.empty(q_grid.size)
    for i, q in enumerate(q_grid):
        if q == 0.0:
            out[i] = math.exp(0.5 * logf.mean())
        else:
            w = 0.5 * q * logf
            m = w.max()
            out[i] = math.exp(
                (m + math.log(np.exp(w - m).sum() / n_seg)) / q
            )
    return out
