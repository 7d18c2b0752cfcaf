"""Synthetic generators with known scaling behavior, used as oracles."""

from __future__ import annotations

import math

import numpy as np

from . import _require_integer


class SynthError(ValueError):
    pass


def _fgn_autocov(n: int, hurst: float) -> np.ndarray:
    k = np.arange(n, dtype=np.float64)
    two_h = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** two_h - 2.0 * k ** two_h + np.abs(k - 1) ** two_h)


def fgn(n: int, hurst: float, seed: int) -> np.ndarray:
    """Stationary fractional Gaussian noise with unit variance.

    Exact synthesis by the standard Davies-Harte circulant embedding
    (Biometrika 74:95, 1987), whose eigenvalues are non-negative for
    every H in (0, 1); there is no size limit.
    """
    _require_integer(SynthError, "n", n, 16)
    if not (0.0 < hurst < 1.0):
        raise SynthError(f"hurst must lie in (0,1), got {hurst}")
    # first row of the 2n circulant: gamma(0..n), then gamma(n-1..1)
    gamma = _fgn_autocov(n + 1, hurst)
    lam = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if lam.min() < -1e-8 * lam.max():
        raise SynthError(f"circulant embedding failed for n={n}, hurst={hurst}")
    lam = np.maximum(lam, 0.0)
    rng = np.random.default_rng(seed)
    m = 2 * n
    z = rng.standard_normal(m)
    w = np.empty(m, dtype=np.complex128)
    w[0] = math.sqrt(lam[0] / m) * z[0]
    w[n] = math.sqrt(lam[n] / m) * z[n]
    half = np.sqrt(lam[1:n] / (2.0 * m))
    w[1:n] = half * (z[1:n] + 1j * z[n + 1 :])
    w[n + 1 :] = np.conj(w[1:n][::-1])
    return np.fft.fft(w).real[:n]


def binomial_cascade(levels: int, p: float, seed: int = 0,
                     shuffle: bool = False) -> np.ndarray:
    """Binomial measure over 2^levels cells; total mass exactly 1.

    Without shuffling, each refinement sends fraction p of a cell's mass
    to its left child, and p = 0.5 gives the uniform (monofractal)
    measure; with shuffling the branch order is randomized independently
    per node, and only then does the seed matter.
    """
    _require_integer(SynthError, "levels", levels, 4)
    if not (0.0 < p < 1.0):
        raise SynthError(f"p must lie in (0,1), got {p}")
    if not shuffle:
        # closed form: mass depends only on the number of right turns
        idx = np.arange(2 ** levels, dtype=np.uint64)
        ones = np.bitwise_count(idx).astype(np.float64)
        return p ** (levels - ones) * (1.0 - p) ** ones
    rng = np.random.default_rng(seed)
    mass = np.array([1.0])
    for _ in range(levels):
        swap = rng.random(mass.size) < 0.5
        left = np.where(swap, 1.0 - p, p)
        nxt = np.empty(2 * mass.size)
        nxt[0::2] = mass * left
        nxt[1::2] = mass * (1.0 - left)
        mass = nxt
    return mass


def analytic_cascade_tau(q, p: float):
    """Closed-form mass exponents of the binomial measure."""
    if not (0.0 < p < 1.0):
        raise SynthError(f"p must lie in (0,1), got {p}")
    q = np.asarray(q, dtype=np.float64)
    out = -np.log2(p ** q + (1.0 - p) ** q)
    return float(out) if out.ndim == 0 else out
