"""Moving-average detrending and bivariate fluctuation functions.

The analysis walks a scale grid; at each scale s the series are detrended
by a sliding mean whose split between past and future samples is set by
the position parameter theta (theta=0 is the causal, backward window),
residuals are cut into non-overlapping segments of length s, and the
segment covariations are collapsed into q-th order fluctuation functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .stats import _ols_design, _ols_fit


class DmaError(ValueError):
    pass


class DegenerateSegmentError(DmaError):
    """A segment produced zero fluctuation, poisoning q <= 0 moments."""


def default_q_grid() -> np.ndarray:
    return np.round(np.arange(-20, 21) * 0.25, 10)


@dataclass(frozen=True)
class DmaConfig:
    """Grid and window settings for one analysis run."""

    theta: float = 0.0
    scale_min: int = 10
    scale_max: int = 316
    n_scales: int = 30
    q_grid: np.ndarray = field(default_factory=default_q_grid)
    use_profile: bool = True

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise DmaError(f"theta must lie in [0,1], got {self.theta}")
        if self.scale_min < 2:
            raise DmaError(f"scale_min must be >= 2, got {self.scale_min}")
        if self.scale_min >= self.scale_max:
            raise DmaError("scale_min must be < scale_max")
        if self.n_scales < 4:
            raise DmaError(f"need n_scales >= 4, got {self.n_scales}")
        distinct = self.scales().size  # rounding can merge scales
        if distinct < 4:
            raise DmaError(f"need >= 4 distinct scales, got {distinct} "
                           f"in [{self.scale_min}, {self.scale_max}]")
        q = np.asarray(self.q_grid, dtype=np.float64)
        if q.ndim != 1 or q.size < 3:
            raise DmaError("q_grid must be a 1-d grid of >= 3 points")
        if np.any(np.diff(q) <= 0):
            raise DmaError("q_grid must be strictly increasing")
        if not (np.any(q == 0.0) and np.any(q == 2.0)):
            raise DmaError("q_grid must contain 0 and 2")
        object.__setattr__(self, "q_grid", q)

    def scales(self) -> np.ndarray:
        """Log-spaced integer scales, deduplicated, within the configured span."""
        raw = np.geomspace(self.scale_min, self.scale_max, self.n_scales)
        return np.unique(np.rint(raw).astype(np.int64))

    def validate_for_length(self, n: int) -> None:
        if self.scale_max > n // 4:
            raise DmaError(
                f"scale_max={self.scale_max} exceeds N/4={n // 4} for series of length {n}"
            )


@dataclass(frozen=True)
class FluctuationSurface:
    """F_xy(q,s) over the q and scale grids; rows index q, columns s."""

    scales: np.ndarray
    q_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.q_grid.size, self.scales.size):
            raise DmaError("surface shape does not match grids")
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0.0):
            raise DmaError("surface entries must be finite and positive")
        # generalized means are nondecreasing in their order; tolerate only
        # rounding-level violations
        diffs = np.diff(self.values, axis=0)
        if np.any(diffs < -1e-9 * self.values[:-1]):
            raise DmaError("power-mean ordering violated along q")


@dataclass(frozen=True)
class HurstCurve:
    """Per-q scaling exponents from the log-log regression."""

    q_grid: np.ndarray
    h: np.ndarray
    stderr: np.ndarray
    r2: np.ndarray


def profile(values: np.ndarray) -> np.ndarray:
    """Cumulative sum of a return series."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DmaError("empty input")
    return np.cumsum(values)


def residuals(z: np.ndarray, s: int, theta: float,
              sums: np.ndarray | None = None) -> np.ndarray:
    """Detrending residuals on the valid window range (length N-s+1).

    sums is z's extended-precision running sum (_accel.running_sums),
    computed here unless the caller passes it.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    if not (2 <= s <= n):
        raise DmaError(f"scale must be in [2, {n}], got {s}")
    # each window holds back samples before its point and s-1-back after
    back = math.ceil((s - 1) * (1.0 - theta))
    means = _accel.window_means(z, s, sums)
    return z[back : back + means.size] - means


def fluctuation_surfaces(series, pairs, config: DmaConfig
                         ) -> list[FluctuationSurface | DegenerateSegmentError]:
    """F_xy(q,s) of several pairs of detrendable inputs (profiles already
    applied), in one pass over the scales.

    Each pair is (i, j), indices into series.  Every series that a pair
    uses gets its running sum once and its residuals once per scale,
    whichever pairs use it, so a surface is bit-identical to that of its
    pair alone.  Residual range is cut into floor((N-s+1)/s) segments of
    exactly s points starting at the first valid position; the trailing
    remainder is discarded.  A pair with a zero segment fluctuation gets
    a DegenerateSegmentError in place of its surface and drops out of the
    later scales.
    """
    inputs = {i: np.asarray(series[i], dtype=np.float64)
              for i in sorted({i for pair in pairs for i in pair})}
    sizes = {z.size for z in inputs.values()}
    if len(sizes) > 1:
        raise DmaError("series lengths differ")
    n = sizes.pop()
    sums = {i: _accel.running_sums(z) for i, z in inputs.items()}
    scales = config.scales()
    q_grid = config.q_grid
    values = [np.empty((q_grid.size, scales.size)) for _ in pairs]
    out: list = [None] * len(pairs)
    live = list(range(len(pairs)))
    for j, s in enumerate(scales.tolist()):
        det = {i: residuals(inputs[i], s, config.theta, sums[i])
               for i in sorted({i for p in live for i in pairs[p]})}
        n_seg = (n - s + 1) // s
        if n_seg < 1:
            raise DmaError(f"no complete segment of size {s} in {n - s + 1} residuals")
        for p in tuple(live):
            ix, iy = pairs[p]
            fvs = _accel.segment_products(det[ix], det[iy], s, n_seg)
            zeros = np.flatnonzero(fvs == 0.0)
            if zeros.size:
                out[p] = DegenerateSegmentError(
                    f"segment {zeros[0]} at scale {s} has zero fluctuation")
                live.remove(p)
            else:
                values[p][:, j] = _accel.q_moments(fvs, q_grid)
        if not live:
            break
    for p in live:
        out[p] = FluctuationSurface(scales=scales, q_grid=q_grid,
                                    values=values[p])
    return out


def fluctuation_surface(x_det: np.ndarray, y_det: np.ndarray,
                        config: DmaConfig) -> FluctuationSurface:
    """F_xy(q,s) for detrendable inputs (profiles already applied)."""
    [surface] = fluctuation_surfaces([x_det, y_det], [(0, 1)], config)
    if isinstance(surface, DegenerateSegmentError):
        raise surface
    return surface


def hurst_curve(surface: FluctuationSurface) -> HurstCurve:
    """Slope of log F against log s, one regression per q on one shared
    design matrix."""
    if surface.scales.size < 4:
        raise DmaError("need at least 4 scales for the scaling regression")
    log_f = np.log(surface.values)
    bad = np.flatnonzero(~np.all(np.isfinite(log_f), axis=1))
    if bad.size:
        raise DmaError(f"non-finite log-fluctuation at q={surface.q_grid[bad[0]]}")
    design, gram_inv = _ols_design(np.log(surface.scales.astype(np.float64)), 1)
    nq = surface.q_grid.size
    h = np.empty(nq)
    stderr = np.empty(nq)
    r2 = np.empty(nq)
    for i in range(nq):
        coef, se, r2[i], _ = _ols_fit(design, gram_inv, log_f[i])
        h[i] = coef[1]
        stderr[i] = se[1]
    return HurstCurve(q_grid=surface.q_grid, h=h, stderr=stderr, r2=r2)


def _detrended(series, pairs, config: DmaConfig) -> dict[int, np.ndarray]:
    """The detrendable input of each series that some (i, j) pair uses,
    keyed by its index: its profile, or its values when use_profile is
    off.  The lengths must agree and fit the scale grid."""
    det = {}
    for i in sorted({i for pair in pairs for i in pair}):
        values = np.asarray(series[i], dtype=np.float64)
        det[i] = profile(values) if config.use_profile else values
    sizes = {z.size for z in det.values()}
    if len(sizes) > 1:
        raise DmaError("series lengths differ")
    config.validate_for_length(sizes.pop())
    return det


def analyze_pair(x_values: np.ndarray, y_values: np.ndarray,
                 config: DmaConfig) -> tuple[FluctuationSurface, HurstCurve]:
    """End-to-end scaling analysis of one return pair."""
    det = _detrended([x_values, y_values], [(0, 1)], config)
    surface = fluctuation_surface(det[0], det[1], config)
    return surface, hurst_curve(surface)


def analyze_pairs(series, pairs, config: DmaConfig
                  ) -> list[tuple[FluctuationSurface, HurstCurve]
                            | DegenerateSegmentError]:
    """analyze_pair of several return pairs, each (i, j) indices into
    series, in one pass over the scales (see fluctuation_surfaces).  Each
    series that a pair uses is profiled once; a pair whose fluctuation
    degenerates gets its DegenerateSegmentError in place of a result.
    """
    surfaces = fluctuation_surfaces(_detrended(series, pairs, config), pairs,
                                    config)
    return [s if isinstance(s, DegenerateSegmentError) else (s, hurst_curve(s))
            for s in surfaces]
