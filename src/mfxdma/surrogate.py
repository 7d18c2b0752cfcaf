"""IAAFT surrogates and the three-scheme intrinsic-multifractality test."""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import dma
from .dma import DegenerateSegmentError, DmaConfig
from .multifractal import JointSpectrumResult, joint_spectrum
from .series import AlignedPair

log = logging.getLogger(__name__)


class SurrogateError(ValueError):
    pass


class EnsembleFailedError(SurrogateError):
    """No member of a scheme's ensemble completed.

    completed holds the reports of the schemes before it in the
    requested order, which did complete.
    """

    def __init__(self, message: str, completed: list[SurrogateTestReport]):
        super().__init__(message)
        self.completed = completed


class SurrogateScheme(Enum):
    """Which sides of the pair are replaced by surrogates."""

    IAAFT_X_ORIG_Y = 1
    ORIG_X_IAAFT_Y = 2
    IAAFT_X_IAAFT_Y = 3

    @property
    def replaces_x(self) -> bool:
        return self in (SurrogateScheme.IAAFT_X_ORIG_Y, SurrogateScheme.IAAFT_X_IAAFT_Y)

    @property
    def replaces_y(self) -> bool:
        return self in (SurrogateScheme.ORIG_X_IAAFT_Y, SurrogateScheme.IAAFT_X_IAAFT_Y)


@dataclass(frozen=True)
class SurrogateTestReport:
    """Ensemble summary for one scheme.

    n_surrogates counts the members that completed; the p-value is the
    exact exceedance proportion among them.  Members that failed with a
    degenerate-segment error are tallied in excluded.  The per-q mean and
    spread curves over the ensemble feed the band plots.
    """

    scheme: SurrogateScheme
    delta_alpha_original: float
    mean_surrogate_width: float
    std_surrogate_width: float
    p_value: float
    n_surrogates: int
    excluded: int
    master_seed: int
    significance_level: float
    intrinsic_candidate: bool
    widths: np.ndarray
    h_mean: np.ndarray
    h_std: np.ndarray
    tau_mean: np.ndarray
    alpha_mean: np.ndarray
    alpha_std: np.ndarray
    f_mean: np.ndarray
    f_std: np.ndarray


def iaaft(series: np.ndarray, max_iter: int = 1000, seed: int = 0) -> np.ndarray:
    """Surrogate preserving the value multiset and the amplitude spectrum.

    Alternates spectral amplitude imposition with a rank-order remap to
    the sorted original values, starting from a seeded shuffle, until the
    rank permutation stops changing or max_iter is reached.  The output
    is always an exact permutation of the input.
    """
    out, _ = iaaft_with_iterations(series, max_iter, seed)
    return out


def iaaft_with_iterations(series: np.ndarray, max_iter: int = 1000,
                          seed: int = 0) -> tuple[np.ndarray, int]:
    x = np.asarray(series, dtype=np.float64)
    if x.size < 8:
        raise SurrogateError(f"need at least 8 samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise SurrogateError("non-finite input")
    if max_iter < 1:
        raise SurrogateError("max_iter must be >= 1")
    n = x.size
    sorted_vals = np.sort(x)
    target_amp = np.abs(np.fft.rfft(x))
    rng = np.random.default_rng(seed)
    cur = rng.permutation(x)
    prev_order = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        spec = np.fft.rfft(cur)
        mag = np.abs(spec)
        # impose target amplitudes; keep current phases (unit phase where
        # the current bin is empty)
        unit = np.ones_like(spec)
        nz = mag > 0.0
        unit[nz] = spec[nz] / mag[nz]
        cur = np.fft.irfft(target_amp * unit, n=n)
        # rank-order remap: the value of rank j goes where the j-th
        # smallest entry sits.  Two rank vectors are equal exactly when
        # their inverse permutations (the sort orders) are.
        order = np.argsort(cur, kind="stable")
        cur = np.empty(n)
        cur[order] = sorted_vals
        if prev_order is not None and np.array_equal(order, prev_order):
            log.debug("iaaft converged in %d iterations (n=%d)", iterations, n)
            break
        prev_order = order
    else:
        log.warning("iaaft reached max_iter=%d without its rank order "
                    "settling (n=%d, seed=%d)", max_iter, n, seed)
    return cur, iterations


def _member_seed(master_seed: int, k: int, side: int) -> int:
    # spawn-safe derivation: independent of scheduling and worker count
    ss = np.random.SeedSequence((master_seed, k, side))
    return int(ss.generate_state(1, np.uint64)[0])


def _pair_spectrum(x_values: np.ndarray, y_values: np.ndarray,
                   config: DmaConfig) -> JointSpectrumResult:
    _, hurst = dma.analyze_pair(x_values, y_values, config)
    return joint_spectrum(hurst)


def default_workers() -> int:
    env = os.environ.get("MFXDMA_WORKERS", "").strip()
    if env:
        w = int(env)
        if w < 1:
            raise SurrogateError(f"MFXDMA_WORKERS must be >= 1, got {w}")
        return w
    return os.cpu_count() or 1


def intrinsic_tests(pair: AlignedPair, schemes, n: int, master_seed: int,
                    analysis: DmaConfig, level: float = 0.05,
                    max_iter: int = 1000, workers: int | None = None,
                    delta_alpha_original: float | None = None
                    ) -> list[SurrogateTestReport]:
    """Compare the pair's singularity width against one ensemble per scheme.

    The schemes share one surrogate bank: member k draws its x surrogate
    from seed (master_seed, k, 0) and its y surrogate from
    (master_seed, k, 1), builds each at most once, and evaluates every
    requested scheme on it.  Members run concurrently and only the
    members in flight hold surrogates; seeds are derived per member, so
    the outcome does not depend on worker count.  Reports come back in
    the order of schemes.  Pass delta_alpha_original to reuse an
    already-computed original width.
    """
    schemes = tuple(SurrogateScheme(s) for s in schemes)
    if not schemes:
        raise SurrogateError("need at least one scheme")
    if n < 1:
        raise SurrogateError(f"need n >= 1, got {n}")
    if delta_alpha_original is None:
        delta_alpha_original = _pair_spectrum(pair.x.values, pair.y.values,
                                              analysis).delta_alpha
    if workers is None:
        workers = default_workers()
    need_x = any(s.replaces_x for s in schemes)
    need_y = any(s.replaces_y for s in schemes)

    def member(k: int) -> list[JointSpectrumResult | None]:
        xs = (iaaft(pair.x.values, max_iter, _member_seed(master_seed, k, 0))
              if need_x else None)
        ys = (iaaft(pair.y.values, max_iter, _member_seed(master_seed, k, 1))
              if need_y else None)
        spectra = []
        for scheme in schemes:
            xv = xs if scheme.replaces_x else pair.x.values
            yv = ys if scheme.replaces_y else pair.y.values
            try:
                spectra.append(_pair_spectrum(xv, yv, analysis))
            except DegenerateSegmentError as exc:
                log.warning("surrogate member %d excluded from scheme %d: %s",
                            k, scheme.value, exc)
                spectra.append(None)
        return spectra

    if workers == 1:
        results = [member(k) for k in range(n)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(member, range(n)))
    # completion order never matters: each scheme is reduced in member order
    reports: list[SurrogateTestReport] = []
    for i, scheme in enumerate(schemes):
        good = [r[i] for r in results if r[i] is not None]
        if not good:
            raise EnsembleFailedError(
                f"every surrogate member failed under scheme {scheme.value}; "
                "cannot form a p-value", reports)
        reports.append(_report(scheme, good, n - len(good),
                               float(delta_alpha_original), master_seed, level))
    return reports


def _report(scheme: SurrogateScheme, good: list[JointSpectrumResult],
            excluded: int, delta_alpha_original: float, master_seed: int,
            level: float) -> SurrogateTestReport:
    widths = np.array([r.delta_alpha for r in good])
    h_curves = np.stack([r.h for r in good])
    tau_curves = np.stack([r.tau for r in good])
    alpha_curves = np.stack([r.alpha for r in good])
    f_curves = np.stack([r.f_alpha for r in good])
    ddof = 1 if len(good) > 1 else 0
    exceed = int(np.sum(widths > delta_alpha_original))
    p_value = exceed / len(good)
    return SurrogateTestReport(
        scheme=scheme,
        delta_alpha_original=delta_alpha_original,
        mean_surrogate_width=float(widths.mean()),
        std_surrogate_width=float(widths.std(ddof=1)) if len(good) > 1 else 0.0,
        p_value=p_value,
        n_surrogates=len(good),
        excluded=excluded,
        master_seed=master_seed,
        significance_level=level,
        intrinsic_candidate=bool(p_value < level),
        widths=widths,
        h_mean=h_curves.mean(axis=0),
        h_std=h_curves.std(axis=0, ddof=ddof),
        tau_mean=tau_curves.mean(axis=0),
        alpha_mean=alpha_curves.mean(axis=0),
        alpha_std=alpha_curves.std(axis=0, ddof=ddof),
        f_mean=f_curves.mean(axis=0),
        f_std=f_curves.std(axis=0, ddof=ddof),
    )
