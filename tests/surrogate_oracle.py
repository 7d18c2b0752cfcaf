"""Reference implementations the surrogate tests compare against.

iaaft_reference is the IAAFT loop with the rank vector formed by a
double stable argsort.  intrinsic_test runs one scheme's ensemble on its
own, building every member from scratch, evaluating it on the per-pair
DMA path of dma_oracle, and reduces it the same way the package does.
Neither shares work, so they pin down what the shared surrogate bank,
the single-argsort loop and the one-pass evaluation of a member's
schemes must reproduce bit for bit.  iaaft is no reference: it is the
package's batched IAAFT (iaaft_rows) called on one series.
"""

import numpy as np

from dma_oracle import analyze_pair_reference
from mfxdma.dma import DegenerateSegmentError, HurstCurve
from mfxdma.multifractal import joint_spectrum
from mfxdma.series import AlignedPair, ReturnSeries
from mfxdma.surrogate import SurrogateError, SurrogateTestReport, iaaft_rows


def iaaft(series, max_iter=1000, seed=0):
    """The package's IAAFT of one series: row 0 of a one-row batch."""
    (out,), _ = iaaft_rows(np.asarray(series, dtype=np.float64)[None],
                           [seed], max_iter)
    return out


def iaaft_reference(series, max_iter=1000, seed=0):
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    sorted_vals = np.sort(x)
    target_amp = np.abs(np.fft.rfft(x))
    rng = np.random.default_rng(seed)
    cur = rng.permutation(x)
    prev_rank = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        spec = np.fft.rfft(cur)
        mag = np.abs(spec)
        unit = np.ones_like(spec)
        nz = mag > 0.0
        unit[nz] = spec[nz] / mag[nz]
        cur = np.fft.irfft(target_amp * unit, n=n)
        rank = np.argsort(np.argsort(cur, kind="stable"), kind="stable")
        cur = sorted_vals[rank]
        if prev_rank is not None and np.array_equal(rank, prev_rank):
            break
        prev_rank = rank
    return cur, iterations


def member_seed(master_seed, k, side):
    ss = np.random.SeedSequence((master_seed, k, side))
    return int(ss.generate_state(1, np.uint64)[0])


def build_member(pair, scheme, k, master_seed, max_iter=1000):
    x, y = pair.x, pair.y
    if scheme.replaces_x:
        xv, _ = iaaft_reference(x.values, max_iter, member_seed(master_seed, k, 0))
        x = ReturnSeries(label=x.label, dates=x.dates, values=xv)
    if scheme.replaces_y:
        yv, _ = iaaft_reference(y.values, max_iter, member_seed(master_seed, k, 1))
        y = ReturnSeries(label=y.label, dates=y.dates, values=yv)
    return AlignedPair(x=x, y=y)


def surrogate_ensemble(pair, scheme, n, master_seed, max_iter=1000):
    """Yield n surrogate pairs for one scheme, deterministically seeded."""
    if n < 1:
        raise SurrogateError(f"need n >= 1, got {n}")
    for k in range(n):
        yield build_member(pair, scheme, k, master_seed, max_iter)


def intrinsic_test(pair, scheme, n, master_seed, analysis, max_iter=1000,
                   delta_alpha_original=None):
    """One scheme's ensemble, members built and evaluated one by one."""
    def spectrum(xv, yv):
        _, h, stderr, r2 = analyze_pair_reference(xv, yv, analysis)
        return joint_spectrum(HurstCurve(q_grid=analysis.q_grid, h=h,
                                         stderr=stderr, r2=r2))

    if delta_alpha_original is None:
        delta_alpha_original = spectrum(pair.x.values, pair.y.values).delta_alpha
    good = []
    for member in surrogate_ensemble(pair, scheme, n, master_seed, max_iter):
        try:
            good.append(spectrum(member.x.values, member.y.values))
        except DegenerateSegmentError:
            pass
    if not good:
        raise SurrogateError("every surrogate member failed")
    widths = np.array([r.delta_alpha for r in good])
    h_curves = np.stack([r.h for r in good])
    tau_curves = np.stack([r.tau for r in good])
    alpha_curves = np.stack([r.alpha for r in good])
    f_curves = np.stack([r.f_alpha for r in good])
    ddof = 1 if len(good) > 1 else 0
    p_value = int(np.sum(widths > delta_alpha_original)) / len(good)
    return SurrogateTestReport(
        scheme=scheme,
        delta_alpha_original=float(delta_alpha_original),
        mean_surrogate_width=float(widths.mean()),
        std_surrogate_width=float(widths.std(ddof=1)) if len(good) > 1 else 0.0,
        p_value=p_value,
        n_surrogates=len(good),
        excluded=n - len(good),
        widths=widths,
        h_mean=h_curves.mean(axis=0),
        h_std=h_curves.std(axis=0, ddof=ddof),
        tau_mean=tau_curves.mean(axis=0),
        alpha_mean=alpha_curves.mean(axis=0),
        alpha_std=alpha_curves.std(axis=0, ddof=ddof),
        f_mean=f_curves.mean(axis=0),
        f_std=f_curves.std(axis=0, ddof=ddof),
    )
