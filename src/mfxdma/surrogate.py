"""IAAFT surrogates and the three-scheme intrinsic-multifractality test."""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.fft import irfft, rfft

from . import _require_integer, dma
from .dma import DegenerateSegmentError, DmaConfig
from .multifractal import JointSpectrumResult, joint_spectrum
from .series import AlignedPair

log = logging.getLogger(__name__)


class SurrogateError(ValueError):
    pass


class EnsembleFailedError(SurrogateError):
    """No member of one or more schemes' ensembles completed.

    The message names every such scheme; completed holds the reports of
    all the other schemes, in the requested order.
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
    widths: np.ndarray
    h_mean: np.ndarray
    h_std: np.ndarray
    tau_mean: np.ndarray
    alpha_mean: np.ndarray
    alpha_std: np.ndarray
    f_mean: np.ndarray
    f_std: np.ndarray


# Values (rows x n) one IAAFT batch holds.  At the paper's n=6065 that
# is 16 rows, whose working arrays raise peak memory by about 8 MB; above
# n=50 000 (so at n=2^16) it is one row, where a wider batch no longer
# pays for its memory.
_BATCH_ELEMENTS = 100_000


def _batch_rows(n: int) -> int:
    return max(1, _BATCH_ELEMENTS // n)


def iaaft_rows(rows: np.ndarray, seeds, max_iter: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """IAAFT surrogate of each row of a (rows x n) array, with its own seed.

    A surrogate keeps its row's value multiset and amplitude spectrum.
    It alternates spectral amplitude imposition with a rank-order remap
    to the sorted row, starting from a seeded shuffle, until the rank
    permutation stops changing or max_iter is reached, so it is always an
    exact permutation of the row.  Row i of the result, and its iteration
    count, are bit-identical to those of rows[i] alone with seeds[i]: the
    rows share only the FFT and sort calls, never data.  Rows run in
    batches of _batch_rows(n).
    Each iterate is ranked by its stable sort order (_sort_order): one
    in-place integer sort of words that pack each value's key with its
    position, with a stable argsort again only for a row where two
    neighbouring words share their high bits, or that holds an infinity
    or a NaN.  The FFTs come from
    scipy.fft, whose plans are cached per length and whose bits equal
    numpy.fft's; the remap is one scatter per row.  A row whose
    amplitude spectrum is not finite raises SurrogateError naming it.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != len(seeds):
        raise SurrogateError("need a (rows x n) array and one seed per row")
    if x.shape[1] < 8:
        raise SurrogateError(f"need at least 8 samples, got {x.shape[1]}")
    if not np.all(np.isfinite(x)):
        raise SurrogateError("non-finite input")
    _require_integer(SurrogateError, "max_iter", max_iter, 1)
    out = np.empty_like(x)
    iterations = np.empty(x.shape[0], dtype=np.int64)
    step = _batch_rows(x.shape[1])
    for lo in range(0, x.shape[0], step):
        hi = lo + step
        _iaaft_batch(x[lo:hi], seeds[lo:hi], max_iter, out[lo:hi],
                     iterations[lo:hi], lo)
    return out, iterations


def _iaaft_batch(x: np.ndarray, seeds, max_iter: int, out: np.ndarray,
                 iterations: np.ndarray, first: int) -> None:
    """iaaft_rows on one batch, which starts at row `first` of its input."""
    rows, n = x.shape
    sorted_vals = np.sort(x, axis=1)
    target_amp = np.abs(rfft(x, axis=1))
    # an overflowing FFT would make every iterate NaN, and the rank
    # remap would hand back a permutation of the row as its surrogate
    overflow = np.flatnonzero(~np.isfinite(target_amp).all(axis=1))
    if overflow.size:
        raise SurrogateError(f"row {first + overflow[0]}: its amplitude "
                             "spectrum overflows the float range")
    cur = np.stack([np.random.default_rng(s).permutation(r)
                    for r, s in zip(x, seeds)])
    iterations[:] = max_iter
    live = np.arange(rows)  # batch row of each row still iterating
    order = None
    for it in range(1, max_iter + 1):
        cur = _impose_amplitudes(cur, target_amp)
        # rank-order remap: the value of rank j goes where the j-th
        # smallest entry sits.  Two rank vectors are equal exactly when
        # their inverse permutations (the sort orders) are.
        prev = order
        order = _sort_order(cur)
        for c, o, v in zip(cur, order, sorted_vals):
            c[o] = v
        if prev is None:
            continue
        settled = np.all(order == prev, axis=1)
        if settled.any():
            done = live[settled]
            out[done] = cur[settled]
            iterations[done] = it
            for i in done:
                log.debug("iaaft converged in %d iterations (n=%d, seed=%d)",
                          it, n, seeds[i])
            keep = ~settled
            live, cur, order = live[keep], cur[keep], order[keep]
            sorted_vals, target_amp = sorted_vals[keep], target_amp[keep]
            if live.size == 0:
                return
    out[live] = cur
    for i in live:
        log.warning("iaaft reached max_iter=%d without its rank order "
                    "settling (n=%d, seed=%d)", max_iter, n, seeds[i])


def _impose_amplitudes(cur: np.ndarray, target_amp: np.ndarray) -> np.ndarray:
    """Each row with its target amplitudes and its current phases (unit
    phase where the current bin is empty), back in the time domain."""
    spec = rfft(cur, axis=1)
    mag = np.abs(spec)
    empty = mag == 0.0
    np.divide(spec, mag, out=spec, where=~empty)
    if empty.any():
        spec[empty] = 1.0
    np.multiply(target_amp, spec, out=spec)
    return irfft(spec, n=cur.shape[1], axis=1)


def _sort_order(c: np.ndarray) -> np.ndarray:
    """argsort(c, axis=1, kind="stable") of a float (rows x n) array, by
    one integer sort.

    Each value becomes one int64 word: its order-preserving integer key,
    with the low b = (n-1).bit_length() bits replaced by its position.
    Adding 0.0 first turns -0.0 into 0.0, so the two share a key.  One
    in-place sort of the words ranks every row, and the low bits read
    back the order.  Where every two neighbouring words differ above
    those bits, the row's values strictly increase, so the order is the
    one ascending order, which is the stable one.  A row where two
    neighbours share their high part (a tie, or distinct values whose
    keys differ only in the replaced bits) is sorted again stably, and so
    is a row holding an infinity or a NaN (an FFT that overflows makes
    one; the stable sort puts NaNs last).
    """
    n = c.shape[1]
    low = (1 << (n - 1).bit_length()) - 1
    words = np.add(c, 0.0).view(np.int64)
    # a negative value's magnitude bits, flipped, order it below every
    # value of smaller magnitude; its low bits are replaced anyway
    order = words >> 63
    order &= 0x7FFF_FFFF_FFFF_FFFF ^ low
    words ^= order
    words &= ~low
    words |= np.arange(n)
    words.sort(axis=1)
    np.bitwise_and(words, low, out=order)
    words ^= order  # the high parts alone
    # only an infinity or a NaN has a high part outside [-inf, inf)
    inf = 0x7FF0_0000_0000_0000
    redo = (words[:, 1:] == words[:, :-1]).any(axis=1)
    redo |= (words[:, 0] < -inf) | (words[:, -1] >= inf)
    for r in np.flatnonzero(redo):
        order[r] = np.argsort(c[r], kind="stable")
    return order


def _member_seed(master_seed: int, k: int, side: int) -> int:
    # spawn-safe derivation: independent of scheduling and worker count
    ss = np.random.SeedSequence((master_seed, k, side))
    return int(ss.generate_state(1, np.uint64)[0])


def _member_spectra(series, pairs, config: DmaConfig
                    ) -> list[JointSpectrumResult | DegenerateSegmentError]:
    """Joint spectra of (i, j) pairs of series, in one DMA pass: a series
    that several pairs use is detrended once.  A pair whose fluctuation
    degenerates keeps its error."""
    return [r if isinstance(r, DegenerateSegmentError) else joint_spectrum(r[1])
            for r in dma.analyze_pairs(series, pairs, config)]


def intrinsic_tests(pair: AlignedPair, schemes, n: int, master_seed: int,
                    analysis: DmaConfig, max_iter: int, workers: int,
                    delta_alpha_original: float
                    ) -> list[SurrogateTestReport]:
    """Compare the pair's singularity width, delta_alpha_original (the
    delta_alpha of its own spectrum), against one ensemble per scheme.

    The schemes share one surrogate bank: member k draws its x surrogate
    from seed (master_seed, k, 0) and its y surrogate from
    (master_seed, k, 1), builds each at most once, and evaluates every
    requested scheme on it.  Consecutive members form chunks that fit
    one IAAFT batch (see _batch_rows), and each task builds its chunk's
    surrogates in one iaaft_rows call and evaluates every member under
    every scheme in one DMA pass (_member_spectra), which detrends the
    originals and each surrogate once.  Chunks run on a pool of `workers`
    threads, split so that every worker gets one, and only the chunks in
    flight hold surrogates; seeds are derived per member, so the outcome
    depends on neither the chunking nor the worker count.  Reports come
    back in the order of schemes.  Every scheme is reduced before
    EnsembleFailedError names those with no completed member.
    """
    schemes = tuple(SurrogateScheme(s) for s in schemes)
    if not schemes:
        raise SurrogateError("need at least one scheme")
    if len(set(schemes)) < len(schemes):
        raise SurrogateError(f"repeated scheme in {[s.value for s in schemes]}")
    for name, value, least in (("n", n, 1), ("master_seed", master_seed, 0),
                               ("max_iter", max_iter, 1),
                               ("workers", workers, 1)):
        _require_integer(SurrogateError, name, value, least)
    if not np.isfinite(delta_alpha_original):
        raise SurrogateError("delta_alpha_original must be finite, "
                             f"got {delta_alpha_original}")
    originals = (pair.x.values, pair.y.values)
    sides = [side for side, needed in
             enumerate((any(s.replaces_x for s in schemes),
                        any(s.replaces_y for s in schemes))) if needed]

    def chunk(ks: range) -> list[JointSpectrumResult | DegenerateSegmentError]:
        rows = np.repeat([originals[side] for side in sides], len(ks), axis=0)
        seeds = [_member_seed(master_seed, k, side) for side in sides
                 for k in ks]
        bank, _ = iaaft_rows(rows, seeds, max_iter)
        # series: x and y, then the bank, which holds each side's
        # surrogates as a run of len(ks) rows from row[side]
        row = {side: 2 + b * len(ks) for b, side in enumerate(sides)}
        pairs = [(row[0] + i if scheme.replaces_x else 0,
                  row[1] + i if scheme.replaces_y else 1)
                 for i in range(len(ks)) for scheme in schemes]
        return _member_spectra([*originals, *bank], pairs, analysis)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(chunk, _member_chunks(n, len(sides), pair.n, workers))
        # member-major: member k's scheme i sits at k * len(schemes) + i
        results = [r for part in parts for r in part]
    # completion order never matters: each scheme is reduced in member order
    reports: list[SurrogateTestReport] = []
    failed: list[str] = []
    for i, scheme in enumerate(schemes):
        good = []
        for k, r in enumerate(results[i::len(schemes)]):
            if isinstance(r, DegenerateSegmentError):
                log.warning("surrogate member %d excluded from scheme %d: %s",
                            k, scheme.value, r)
            else:
                good.append(r)
        if good:
            reports.append(_report(scheme, good, n - len(good),
                                   float(delta_alpha_original)))
        else:
            failed.append(str(scheme.value))
    if failed:
        which = "scheme" if len(failed) == 1 else "schemes"
        raise EnsembleFailedError(
            f"every surrogate member failed under {which} {', '.join(failed)}; "
            "cannot form a p-value", reports)
    return reports


def _member_chunks(n: int, sides: int, length: int, workers: int) -> list[range]:
    """Consecutive runs of members: as few as fit one IAAFT batch each,
    but at least one per worker while members last."""
    per_batch = max(1, _batch_rows(length) // sides)
    count = max(-(-n // per_batch), min(workers, n))
    bounds = [n * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _report(scheme: SurrogateScheme, good: list[JointSpectrumResult],
            excluded: int, delta_alpha_original: float) -> SurrogateTestReport:
    widths = np.array([r.delta_alpha for r in good])
    h_curves = np.stack([r.h for r in good])
    tau_curves = np.stack([r.tau for r in good])
    alpha_curves = np.stack([r.alpha for r in good])
    f_curves = np.stack([r.f_alpha for r in good])
    ddof = 1 if len(good) > 1 else 0
    return SurrogateTestReport(
        scheme=scheme,
        delta_alpha_original=delta_alpha_original,
        mean_surrogate_width=float(widths.mean()),
        std_surrogate_width=float(widths.std(ddof=ddof)),
        p_value=int(np.sum(widths > delta_alpha_original)) / len(good),
        n_surrogates=len(good),
        excluded=excluded,
        widths=widths,
        h_mean=h_curves.mean(axis=0),
        h_std=h_curves.std(axis=0, ddof=ddof),
        tau_mean=tau_curves.mean(axis=0),
        alpha_mean=alpha_curves.mean(axis=0),
        alpha_std=alpha_curves.std(axis=0, ddof=ddof),
        f_mean=f_curves.mean(axis=0),
        f_std=f_curves.std(axis=0, ddof=ddof),
    )
