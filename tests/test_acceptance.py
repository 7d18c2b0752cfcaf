"""Release gate: one test per advertised guarantee.

Each test appends exactly one PASS/FAIL line to the terminal summary
(see conftest), so a run of this file reads as a checklist.  Tolerances
are part of the contract and are asserted, not just reported.
"""

import contextlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from conftest import ACCEPTANCE_LINES, make_pair, write_series_csv
from mfxdma import dma, multifractal, stats, surrogate, synth
from mfxdma.dma import DmaConfig
from mfxdma.pipeline import RunConfig, run_analysis
from mfxdma.surrogate import SurrogateScheme
from surrogate_oracle import iaaft
from test_stats import _chi2_upper_tail_root


@contextlib.contextmanager
def criterion(label):
    recorded = []

    def record(passed, detail):
        recorded.append(True)
        ACCEPTANCE_LINES.append((label, bool(passed), detail))
        assert passed, f"{label}: {detail}"

    try:
        yield record
    except BaseException as exc:
        if not recorded:
            ACCEPTANCE_LINES.append(
                (label, False, f"did not finish: {type(exc).__name__}: {exc}"))
        raise


def _fgn_levels_csv(path, n, hurst, seed):
    levels = np.exp(0.01 * np.cumsum(synth.fgn(n, hurst, seed)))
    return write_series_csv(path, np.concatenate([[1.0], levels]))


def test_forced_identities(tmp_path):
    with criterion("forced identities tau(0)=-1, f(alpha(0))=1") as record:
        errs = []
        x1 = _fgn_levels_csv(tmp_path / "a.csv", 1500, 0.5, 301)
        y1 = _fgn_levels_csv(tmp_path / "b.csv", 1500, 0.5, 302)
        cells = synth.binomial_cascade(12, 0.3)
        c1 = write_series_csv(tmp_path / "c.csv",
                              np.concatenate([[1.0], np.exp(np.cumsum(cells))]))
        runs = [
            RunConfig(input_x=str(x1), input_y=str(y1), master_seed=0,
                      n_surrogates=0, out_dir=str(tmp_path / "o1")),
            RunConfig(input_x=str(c1), input_y=str(c1), master_seed=0,
                      n_surrogates=0, scale_min=16, scale_max=512,
                      n_scales=20, out_dir=str(tmp_path / "o2")),
        ]
        for config in runs:
            bundle = run_analysis(config, write=False)
            assert bundle.complete
            sp = bundle.spectrum
            i0 = int(np.flatnonzero(sp.q_grid == 0.0)[0])
            errs.append(abs(sp.tau[i0] + 1.0))
            errs.append(abs(sp.f_alpha[i0] - 1.0))
        worst = max(errs)
        record(worst < 1e-9,
               f"max deviation {worst:.2e} over {len(runs)} pipeline runs "
               f"(tol 1e-9)")


def test_independent_fgn_stays_monofractal():
    with criterion("independent fGn stays monofractal") as record:
        config = DmaConfig()
        in_band = 0
        widths = []
        for i in range(20):
            xv = synth.fgn(6065, 0.5, 1000 + i)
            yv = synth.fgn(6065, 0.5, 2000 + i)
            _, hurst = dma.analyze_pair(xv, yv, config)
            sp = multifractal.joint_spectrum(hurst)
            in_band += bool(np.all((hurst.h >= 0.4) & (hurst.h <= 0.6)))
            widths.append(sp.delta_alpha)
        med = float(np.median(widths))
        record(in_band >= 18 and med < 0.15,
               f"H(q) in [0.4,0.6] for {in_band}/20 seeds (need >=18); "
               f"median width {med:.3f} (need <0.15)")


def test_cascade_matches_closed_form_tau():
    with criterion("binomial cascade matches closed-form tau") as record:
        cells = synth.binomial_cascade(16, 0.3)
        config = DmaConfig(scale_min=16, scale_max=4096, n_scales=30)
        _, hurst = dma.analyze_pair(cells, cells, config)
        tau = multifractal.joint_spectrum(hurst).tau
        maxerr = float(np.max(np.abs(
            tau - synth.analytic_cascade_tau(hurst.q_grid, 0.3))))
        fit = multifractal.tau_nonlinearity_test(hurst.q_grid, tau, 0.01)
        a2 = fit.fit.coefficients[2]
        p2 = fit.fit.t_pvalues[2]
        record(maxerr < 0.1 and fit.multifractal_flag and a2 < 0 and p2 < 0.01,
               f"max |tau - analytic| {maxerr:.4f} (tol 0.1); curvature "
               f"{a2:.4f}, p {p2:.1e}, flag {fit.multifractal_flag}")


def _brute_profile(values):
    acc, out = 0.0, []
    for v in values:
        acc += v
        out.append(acc)
    return out


def _brute_fluctuation(zx, zy, s, q):
    # plain-loop re-derivation: backward window, residual at the window's
    # trailing edge, disjoint segments from the first valid index
    n = len(zx)
    rx = [zx[j + s - 1] - sum(zx[j:j + s]) / s for j in range(n - s + 1)]
    ry = [zy[j + s - 1] - sum(zy[j:j + s]) / s for j in range(n - s + 1)]
    n_seg = len(rx) // s
    fvs = [sum(abs(rx[v * s + i] * ry[v * s + i]) for i in range(s)) / s
           for v in range(n_seg)]
    if q == 0:
        return math.exp(sum(math.log(f) for f in fvs) / (2.0 * n_seg))
    return (sum(f ** (q / 2.0) for f in fvs) / n_seg) ** (1.0 / q)


def test_fluctuation_equals_brute_force():
    with criterion("fluctuation function equals brute force") as record:
        rng = np.random.default_rng(64)
        xv = rng.standard_normal(64)
        yv = rng.standard_normal(64)
        bx, by = _brute_profile(xv.tolist()), _brute_profile(yv.tolist())
        config = dma.DmaConfig(scale_min=8, scale_max=16, n_scales=4,
                               q_min=-2.0, q_max=2.0, q_step=2.0)
        surface, _ = dma.analyze_pair(xv, yv, config)
        worst = 0.0
        for j, s in enumerate(surface.scales):
            for i, q in enumerate(surface.q_grid):
                ref = _brute_fluctuation(bx, by, int(s), q)
                worst = max(worst, abs(surface.values[i, j] - ref) / abs(ref))
        record(worst < 1e-10,
               f"max relative difference {worst:.2e} over s in "
               f"{tuple(surface.scales.tolist())}, q in (-2,0,2) (tol 1e-10)")


def test_qcc_calibration_and_chi2_oracle():
    with criterion("Qcc size calibration and chi2 oracle") as record:
        rng = np.random.default_rng(77)
        rejections = 0
        for _ in range(200):
            xv = rng.standard_normal(1000)
            yv = rng.standard_normal(1000)
            rejections += bool(stats.qcc_test(xv, yv, 10, 0.05).reject[-1])
        rate = rejections / 200.0
        chi2_err = max(
            abs(stats.chi2_critical(m, 0.05) - _chi2_upper_tail_root(m, 0.05))
            / _chi2_upper_tail_root(m, 0.05)
            for m in (1, 2, 5, 10, 100, 1000))
        record(0.02 <= rate <= 0.08 and chi2_err < 1e-6,
               f"null rejection rate {rate:.1%} (band [2%,8%]); chi2 critical "
               f"max rel err {chi2_err:.1e} vs quadrature (tol 1e-6)")


def test_iaaft_rank_and_spectrum_fidelity():
    with criterion("IAAFT rank/spectrum fidelity") as record:
        rng = np.random.default_rng(3)
        ar1 = lfilter([1.0], [1.0, -0.7], rng.standard_normal(2048))
        (surr,), (iters,) = surrogate.iaaft_rows(ar1[None, :], [11],
                                                 max_iter=1000)
        same_values = np.array_equal(np.sort(surr), np.sort(ar1))
        po = np.abs(np.fft.rfft(ar1)) ** 2
        ps = np.abs(np.fft.rfft(surr)) ** 2
        mask = po > 0
        mre = float(np.mean(np.abs(ps[mask] - po[mask]) / po[mask]))
        repeat = np.array_equal(surr, iaaft(ar1, 1000, 11))
        record(same_values and mre < 1e-2 and iters < 1000 and repeat,
               f"value multiset exact: {same_values}; periodogram mean rel "
               f"err {mre:.2e} (tol 1e-2, {iters} iterations); repeat "
               f"bit-identical: {repeat}")


def test_surrogate_test_discrimination():
    with criterion("surrogate test discrimination") as record:
        cells = synth.binomial_cascade(14, 0.3)
        config = DmaConfig(scale_min=16, scale_max=2048, n_scales=30)
        pair = make_pair(cells, cells.copy())
        _, hurst = dma.analyze_pair(cells, cells, config)
        delta = multifractal.joint_spectrum(hurst).delta_alpha
        t0 = time.perf_counter()
        [cascade_rep] = surrogate.intrinsic_tests(
            pair, (SurrogateScheme.IAAFT_X_IAAFT_Y,), 200, 42, config,
            max_iter=1000, workers=os.cpu_count(), delta_alpha_original=delta)
        cascade_seconds = time.perf_counter() - t0

        null_config = DmaConfig()
        clean = 0
        for r in range(10):
            xv = synth.fgn(6065, 0.5, 5000 + r)
            yv = synth.fgn(6065, 0.5, 6000 + r)
            null_pair = make_pair(xv, yv)
            _, nh = dma.analyze_pair(xv, yv, null_config)
            ndelta = multifractal.joint_spectrum(nh).delta_alpha
            ps = [rep.p_value for rep in surrogate.intrinsic_tests(
                null_pair, tuple(SurrogateScheme), 60, 9000 + r, null_config,
                max_iter=1000, workers=os.cpu_count(),
                delta_alpha_original=ndelta)]
            clean += all(p > 0.10 for p in ps)
        record(cascade_rep.p_value < 0.10 and cascade_seconds < 300
               and clean >= 8,
               f"cascade scheme-3 p={cascade_rep.p_value:.4f} (<0.10) in "
               f"{cascade_seconds:.0f}s (budget 300s, 200 members); "
               f"independent-fGn null clean in {clean}/10 reps (need >=8)")


def _bundle_tree(root):
    return sorted(p.relative_to(root).as_posix()
                  for p in Path(root).rglob("*") if p.is_file())


def test_worker_count_determinism(tmp_path):
    with criterion("worker-count determinism") as record:
        x = _fgn_levels_csv(tmp_path / "x.csv", 1400, 0.5, 7001)
        y = _fgn_levels_csv(tmp_path / "y.csv", 1400, 0.5, 7002)
        outs = []
        for workers in (1, 4):
            out = tmp_path / f"w{workers}"
            run_analysis(RunConfig(
                input_x=str(x), input_y=str(y), master_seed=31,
                out_dir=str(out), n_surrogates=12, workers=workers))
            outs.append(out)
        trees = [_bundle_tree(o) for o in outs]
        assert trees[0] == trees[1]
        identical = True
        for rel in trees[0]:
            a, b = (o / rel for o in outs)
            if rel == "provenance.json":
                da, db = (json.loads(p.read_text()) for p in (a, b))
                da.pop("runtime"), db.pop("runtime")
                identical &= da == db
            else:
                identical &= a.read_bytes() == b.read_bytes()
        record(identical,
               f"{len(trees[0])} output files byte-identical between 1 and 4 "
               f"workers (provenance compared without its runtime block)")


def test_polynomial_regression_recovery():
    with criterion("polynomial regression recovery") as record:
        xs = np.linspace(-5.0, 5.0, 41)
        cases = [
            ((2.0, -3.5), 1),
            ((0.3, -1.2, 0.07), 2),
            ((1.0, 0.5, -0.25, 0.0125), 3),
            ((-1.0, 0.3668, 0.0013), 2),
        ]
        worst = 0.0
        r2_ok = True
        for coefs, degree in cases:
            ys = sum(c * xs ** k for k, c in enumerate(coefs))
            fit = stats.ols_polyfit(xs, ys, degree)
            worst = max(worst, float(np.max(np.abs(
                fit.coefficients - np.array(coefs)))))
            r2_ok &= fit.r_squared == 1.0
        record(worst < 1e-10 and r2_ok,
               f"max coefficient error {worst:.2e} over {len(cases)} exact "
               f"fits (tol 1e-10); R^2 == 1 in all: {r2_ok}")
