"""The per-pair DMA path the batched kernel must reproduce bit for bit.

Every call starts from scratch: window_means takes its own running sum,
residuals are taken per pair, q_moments walks the q grid one order at a
time, and every q gets its own design matrix.  analyze_pair_reference
returns what dma.analyze_pair did before the schemes of a member shared
one pass, so the kernel's surfaces, slopes, standard errors and R^2 must
equal its output exactly.
"""

import math

import numpy as np

from mfxdma.dma import DegenerateSegmentError, DmaError


def window_means(z, s):
    c = np.cumsum(z, dtype=np.longdouble)
    sums = np.empty(z.size - s + 1, dtype=np.longdouble)
    sums[0] = c[s - 1]
    sums[1:] = c[s:] - c[: z.size - s]
    return np.asarray(sums / s, dtype=np.float64)


def residuals(z, s, theta):
    z = np.asarray(z, dtype=np.float64)
    if not (2 <= s <= z.size):
        raise DmaError(f"scale must be in [2, {z.size}], got {s}")
    back = math.ceil((s - 1) * (1.0 - theta))
    means = window_means(z, s)
    return z[back: back + means.size] - means


def segment_fluctuations(x_det, y_det, s, theta=0.0):
    """Segment-wise mean absolute residual covariation F_v(s)."""
    x_det = np.asarray(x_det, dtype=np.float64)
    y_det = np.asarray(y_det, dtype=np.float64)
    if x_det.size != y_det.size:
        raise DmaError("series lengths differ")
    ex = residuals(x_det, s, theta)
    ey = residuals(y_det, s, theta)
    n_seg = ex.size // s
    if n_seg < 1:
        raise DmaError(f"no complete segment of size {s} in {ex.size} residuals")
    prod = np.abs(ex[: n_seg * s] * ey[: n_seg * s])
    return prod.reshape(n_seg, s).mean(axis=1)


def q_moments(fv, q_grid):
    logf = np.log(fv)
    n_seg = fv.size
    out = np.empty(q_grid.size)
    for i, q in enumerate(q_grid):
        if q == 0.0:
            out[i] = math.exp(0.5 * logf.mean())
        else:
            w = 0.5 * q * logf
            m = w.max()
            out[i] = math.exp((m + math.log(np.exp(w - m).sum() / n_seg)) / q)
    return out


def ols_slope(xs, ys):
    """Slope, its standard error and R^2 of a straight-line fit."""
    design = np.vander(xs, 2, increasing=True)
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    sse = float(resid @ resid)
    sst = float(np.sum((ys - ys.mean()) ** 2))
    cov = (sse / (xs.size - 2)) * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if sse <= 1e-14 * max(sst, 1.0):
        return coef[1], se[1], 1.0
    r2 = max(0.0, min(1.0, 1.0 - sse / sst)) if sst > 0.0 else 1.0
    return coef[1], se[1], r2


def analyze_pair_reference(x_values, y_values, config):
    """(surface values, h, stderr, r2) of one pair, all from scratch."""
    zx = np.asarray(x_values, dtype=np.float64)
    zy = np.asarray(y_values, dtype=np.float64)
    if config.use_profile:
        zx, zy = np.cumsum(zx), np.cumsum(zy)
    scales = config.scales()
    values = np.empty((config.q_grid.size, scales.size))
    for j, s in enumerate(scales):
        fvs = segment_fluctuations(zx, zy, int(s), config.theta)
        zeros = np.nonzero(fvs == 0.0)[0]
        if zeros.size:
            raise DegenerateSegmentError(
                f"segment {zeros[0]} at scale {s} has zero fluctuation")
        values[:, j] = q_moments(fvs, config.q_grid)
    log_s = np.log(scales.astype(np.float64))
    fits = [ols_slope(log_s, np.log(row)) for row in values]
    h, stderr, r2 = (np.array(col) for col in zip(*fits))
    return values, h, stderr, r2
