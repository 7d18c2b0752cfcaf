"""Numeric kernels of the detrending and q-moment steps.

perfbench's `probe.*` metrics time these by their names.
"""

from __future__ import annotations

import math

import numpy as np


def running_sums(z: np.ndarray) -> np.ndarray:
    # extended-precision cumsum keeps the running-sum error below float64
    # resolution even for 1e5-point profiles
    return np.cumsum(z, dtype=np.longdouble)


def window_means(z: np.ndarray, s: int, sums: np.ndarray | None = None
                 ) -> np.ndarray:
    """Means of every length-s window of z; sums is running_sums(z), taken
    here unless the caller already has it."""
    c = running_sums(z) if sums is None else sums
    out = np.empty(z.size - s + 1, dtype=np.longdouble)
    out[0] = c[s - 1]
    np.subtract(c[s:], c[: z.size - s], out=out[1:])
    out /= s
    return out.astype(np.float64)


def segment_products(
    ex: np.ndarray, ey: np.ndarray, s: int, n_seg: int
) -> np.ndarray:
    prod = np.abs(ex[: n_seg * s] * ey[: n_seg * s])
    return prod.reshape(n_seg, s).mean(axis=1)


def q_moments(fv: np.ndarray, q_grid: np.ndarray) -> np.ndarray:
    """Power means of fv**0.5 of every order q, in the log domain: immune
    to overflow for strongly negative q on near-degenerate segments.

    Every q != 0 shares one (q x segments) array.  The final log and exp
    of each q stay scalar math calls: np.log and np.exp differ from them
    in the last bit for some inputs.
    """
    logf = np.log(fv)
    out = np.empty(q_grid.size)
    zero = q_grid == 0.0
    out[zero] = math.exp(0.5 * logf.mean())
    q = q_grid[~zero]
    w = (0.5 * q)[:, None] * logf
    m = w.max(axis=1)
    w -= m[:, None]
    np.exp(w, out=w)
    means = w.sum(axis=1) / fv.size
    t = (m + np.array([math.log(v) for v in means.tolist()])) / q
    out[~zero] = [math.exp(v) for v in t.tolist()]
    return out
