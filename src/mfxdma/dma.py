"""Moving-average detrending and bivariate fluctuation functions.

The analysis walks a scale grid; at each scale s the series are detrended
by a sliding mean whose split between past and future samples is set by
the position parameter theta (theta=0 is the causal, backward window),
residuals are cut into non-overlapping segments of length s, and the
segment covariations are collapsed into q-th order fluctuation functions.
The module holds the numeric kernels of these steps too: running sums,
window means, segment products and q-moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _require_integer
from .stats import _ols_design, _ols_fit


class DmaError(ValueError):
    pass


class DegenerateSegmentError(DmaError):
    """A segment produced zero fluctuation, poisoning q <= 0 moments."""


@dataclass(frozen=True)
class DmaConfig:
    """Window, scale and q settings of one analysis run.

    The q grid runs from q_min to q_max in steps of q_step and is the
    derived attribute q_grid.
    """

    theta: float = 0.0
    q_min: float = -5.0
    q_max: float = 5.0
    q_step: float = 0.25
    scale_min: int = 10
    scale_max: int = 316
    n_scales: int = 30
    use_profile: bool = True

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise DmaError(f"theta must lie in [0,1], got {self.theta}")
        for name, least in (("scale_min", 2), ("scale_max", None),
                            ("n_scales", 4)):
            _require_integer(DmaError, name, getattr(self, name), least)
        if self.scale_min >= self.scale_max:
            raise DmaError("scale_min must be < scale_max")
        distinct = self.scales().size  # rounding can merge scales
        if distinct < 4:
            raise DmaError(f"need >= 4 distinct scales, got {distinct} "
                           f"in [{self.scale_min}, {self.scale_max}]")
        for name in ("q_min", "q_max", "q_step"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise DmaError(f"{name} must be finite, got {value}")
        if self.q_step <= 0:
            raise DmaError(f"q_step must be positive, got {self.q_step}")
        span = self.q_max - self.q_min
        steps = int(round(span / self.q_step))
        if steps < 2 or abs(span - steps * self.q_step) > 1e-9:
            raise DmaError(f"q range [{self.q_min}, {self.q_max}] is not "
                           "a whole number of q_step")
        q = np.round(self.q_min + self.q_step * np.arange(steps + 1), 12)
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


def _running_sums(z: np.ndarray) -> np.ndarray:
    # extended-precision cumsum keeps the running-sum error below float64
    # resolution even for 1e5-point profiles
    return np.cumsum(z, dtype=np.longdouble)


def _window_means(sums: np.ndarray, s: int) -> np.ndarray:
    """Means of every length-s window of the series whose running sum is
    sums."""
    n = sums.size
    out = np.empty(n - s + 1, dtype=np.longdouble)
    out[0] = sums[s - 1]
    np.subtract(sums[s:], sums[: n - s], out=out[1:])
    out /= s
    return out.astype(np.float64)


def _segment_products(
    ex: np.ndarray, ey: np.ndarray, s: int, n_seg: int
) -> np.ndarray:
    prod = np.abs(ex[: n_seg * s] * ey[: n_seg * s])
    return prod.reshape(n_seg, s).mean(axis=1)


def _q_moments(fv: np.ndarray, q_grid: np.ndarray) -> np.ndarray:
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


def residuals(z: np.ndarray, s: int, theta: float,
              sums: np.ndarray | None = None) -> np.ndarray:
    """Detrending residuals on the valid window range (length N-s+1).

    sums is z's extended-precision running sum (_running_sums), computed
    here unless the caller passes it.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    if not (2 <= s <= n):
        raise DmaError(f"scale must be in [2, {n}], got {s}")
    # each window holds back samples before its point and s-1-back after
    back = math.ceil((s - 1) * (1.0 - theta))
    if sums is None:
        sums = _running_sums(z)
    means = _window_means(sums, s)
    return z[back : back + means.size] - means


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


def analyze_pair(x_values: np.ndarray, y_values: np.ndarray,
                 config: DmaConfig) -> tuple[FluctuationSurface, HurstCurve]:
    """End-to-end scaling analysis of one return pair."""
    [result] = analyze_pairs([x_values, y_values], [(0, 1)], config)
    if isinstance(result, DegenerateSegmentError):
        raise result
    return result


def analyze_pairs(series, pairs, config: DmaConfig
                  ) -> list[tuple[FluctuationSurface, HurstCurve]
                            | DegenerateSegmentError]:
    """F_xy(q,s) and H_xy(q) of several return pairs, each (i, j) indices
    into series, in one pass over the scales.

    Each series that a pair uses is detrended as one input (its profile,
    or its values when use_profile is off): it gets its running sum once
    and its residuals once per scale, whichever pairs use it, so a result
    is bit-identical to that of its pair alone.  Residual range is cut
    into floor((N-s+1)/s) segments of exactly s points starting at the
    first valid position; the trailing remainder is discarded.  A pair
    with a zero segment fluctuation gets a DegenerateSegmentError in
    place of its result and drops out of the later scales.
    """
    inputs = {}
    for i in sorted({i for pair in pairs for i in pair}):
        values = np.asarray(series[i], dtype=np.float64)
        inputs[i] = profile(values) if config.use_profile else values
    sizes = {z.size for z in inputs.values()}
    if len(sizes) > 1:
        raise DmaError("series lengths differ")
    n = sizes.pop()
    config.validate_for_length(n)  # so every scale has >= 3 segments
    sums = {i: _running_sums(z) for i, z in inputs.items()}
    scales = config.scales()
    q_grid = config.q_grid
    values = [np.empty((q_grid.size, scales.size)) for _ in pairs]
    out: list = [None] * len(pairs)
    live = list(range(len(pairs)))
    for j, s in enumerate(scales.tolist()):
        det = {i: residuals(inputs[i], s, config.theta, sums[i])
               for i in sorted({i for p in live for i in pairs[p]})}
        n_seg = (n - s + 1) // s
        for p in tuple(live):
            ix, iy = pairs[p]
            fvs = _segment_products(det[ix], det[iy], s, n_seg)
            zeros = np.flatnonzero(fvs == 0.0)
            if zeros.size:
                out[p] = DegenerateSegmentError(
                    f"segment {zeros[0]} at scale {s} has zero fluctuation")
                live.remove(p)
            else:
                values[p][:, j] = _q_moments(fvs, q_grid)
        if not live:
            break
    for p in live:
        surface = FluctuationSurface(scales=scales, q_grid=q_grid,
                                     values=values[p])
        out[p] = (surface, hurst_curve(surface))
    return out
