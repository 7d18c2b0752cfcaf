import dataclasses
import importlib
import math
import runpy
from pathlib import Path

import numpy as np
import pytest

import dma_oracle as oracle
from dma_oracle import segment_fluctuations
from mfxdma import dma
from mfxdma.dma import (DegenerateSegmentError, DmaConfig, DmaError,
                        FluctuationSurface, analyze_pair, analyze_pairs,
                        hurst_curve, profile, residuals)
from mfxdma.stats import ols_polyfit


class TestProfile:
    def test_ones(self):
        assert profile([1, 1, 1]).tolist() == [1.0, 2.0, 3.0]

    def test_zeros(self):
        assert profile([0, 0, 0]).tolist() == [0.0, 0.0, 0.0]

    def test_mixed(self):
        assert profile([1, -1, 2]).tolist() == [1.0, 0.0, 2.0]

    def test_empty(self):
        with pytest.raises(DmaError):
            profile([])


class TestMovingAverage:
    """Window placement of the detrending residuals z - mean(window)."""

    def test_constant_series(self):
        z = np.full(20, 7.5)
        np.testing.assert_allclose(residuals(z, 6, 0.4), 0.0, atol=1e-12)

    def test_backward_two_point_window(self):
        # theta=0 averages the current and the previous sample
        np.testing.assert_allclose(
            residuals(np.array([1.0, 2.0, 4.0, 8.0]), 2, 0.0), [0.5, 1.0, 2.0])

    def test_forward_window_theta_one(self):
        # theta=1 averages the current and the next sample
        np.testing.assert_allclose(
            residuals(np.array([1.0, 2.0, 4.0, 8.0]), 2, 1.0), [-0.5, -1.0, -2.0])

    def test_centered_window_count(self):
        out = residuals(np.arange(30.0), 5, 0.5)
        assert out.size == 30 - 5 + 1
        # a centred mean of a straight line is its middle sample
        np.testing.assert_array_equal(out, 0.0)

    def test_backward_window_is_causal(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(50)
        out = residuals(z, 7, 0.0)
        z2 = z.copy()
        z2[30:] += 100.0
        out2 = residuals(z2, 7, 0.0)
        # residual i belongs to sample i + 6, which sees samples i..i+6
        np.testing.assert_array_equal(out[:30 - 6], out2[:30 - 6])
        assert not np.array_equal(out[30 - 6], out2[30 - 6])

    def test_window_larger_than_series(self):
        with pytest.raises(DmaError):
            residuals(np.ones(4), 5, 0.0)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_running_sum_fallback_is_bit_identical(self, theta):
        # residuals without a running sum takes its own: the same bits as
        # with the caller's, and as the oracle's, at every default scale
        z = np.cumsum(np.random.default_rng(23).standard_normal(6065))
        sums = dma._running_sums(z)
        for s in DmaConfig().scales().tolist():
            own = residuals(z, s, theta)
            assert np.array_equal(own, residuals(z, s, theta, sums)), s
            assert np.array_equal(own, oracle.residuals(z, s, theta)), s


def _brute_fvs(x_det, y_det, s, theta):
    # plain-loop evaluation, no shared code with the implementation
    n = len(x_det)
    back = math.ceil((s - 1) * (1.0 - theta))
    fwd = math.floor((s - 1) * theta)
    ex, ey = [], []
    for t in range(back, n - fwd):
        wx = sum(x_det[t - back : t + fwd + 1]) / s
        wy = sum(y_det[t - back : t + fwd + 1]) / s
        ex.append(x_det[t] - wx)
        ey.append(y_det[t] - wy)
    n_seg = len(ex) // s
    return [
        sum(abs(ex[v * s + k] * ey[v * s + k]) for k in range(s)) / s
        for v in range(n_seg)
    ]


# scales 4, 5, 6, 8
_SMALL_GRID = DmaConfig(scale_min=4, scale_max=8, n_scales=4,
                        q_min=-2.0, q_max=2.0, q_step=2.0)


def _surface(x_det, y_det, config):
    """F_xy(q,s) of detrendable inputs: analyze_pair with the profile off."""
    surface, _ = analyze_pair(x_det, y_det,
                              dataclasses.replace(config, use_profile=False))
    return surface


class TestSegmentFluctuations:
    def test_self_pair_reduces_to_squared_residuals(self):
        rng = np.random.default_rng(3)
        z = np.cumsum(rng.standard_normal(100))
        fvs = segment_fluctuations(z, z, 10, 0.0)
        eps = residuals(z, 10, 0.0)
        n_seg = eps.size // 10
        expected = (eps[: n_seg * 10] ** 2).reshape(n_seg, 10).mean(axis=1)
        np.testing.assert_allclose(fvs, expected, rtol=1e-12)

    def test_constant_profile_gives_zero(self):
        z = np.full(40, 2.0)
        fvs = segment_fluctuations(z, z, 5, 0.0)
        assert np.all(fvs == 0.0)
        with pytest.raises(DegenerateSegmentError):
            _surface(z, z, _SMALL_GRID)

    def test_small_instance_matches_brute_force(self):
        rng = np.random.default_rng(17)
        x = np.cumsum(rng.integers(-3, 4, size=20).astype(float))
        y = np.cumsum(rng.integers(-3, 4, size=20).astype(float))
        fvs = segment_fluctuations(x, y, 5, 0.0)
        np.testing.assert_allclose(fvs, _brute_fvs(list(x), list(y), 5, 0.0),
                                   rtol=1e-12)

    def test_brute_force_with_fractional_theta(self):
        rng = np.random.default_rng(18)
        x = np.cumsum(rng.standard_normal(60))
        y = np.cumsum(rng.standard_normal(60))
        for theta in (0.25, 0.5, 1.0):
            fvs = segment_fluctuations(x, y, 7, theta)
            np.testing.assert_allclose(
                fvs, _brute_fvs(list(x), list(y), 7, theta), rtol=1e-10)

    def test_segment_count(self):
        z = np.cumsum(np.ones(100))
        fvs = segment_fluctuations(z, z + np.arange(100) ** 1.5, 8, 0.0)
        # 93 valid residuals -> 11 full segments
        assert fvs.size == (100 - 8 + 1) // 8

    def test_no_complete_segment(self):
        with pytest.raises(DmaError, match="segment"):
            segment_fluctuations(np.arange(10.0), np.arange(10.0), 6, 0.0)
        # 10 points hold no segment at scale 6, and the length check
        # refuses their scale grid before any scale is reached
        with pytest.raises(DmaError, match="scale_max=8 exceeds N/4=2"):
            _surface(np.arange(10.0), np.arange(10.0) ** 2, _SMALL_GRID)


class TestFluctuationFunction:
    def test_constant_segments(self):
        fvs = np.full(12, 9.0)
        q = np.array([-3.0, -0.5, 0.0, 1.0, 2.0, 4.0])
        np.testing.assert_allclose(dma._q_moments(fvs, q), 3.0, rtol=1e-12)

    def test_q2_is_rms(self):
        fvs = np.array([1.0, 2.0, 3.0, 4.0])
        assert dma._q_moments(fvs, np.array([2.0]))[0] == pytest.approx(
            math.sqrt(fvs.mean()), rel=1e-12)

    def test_q0_hand_value(self):
        assert dma._q_moments(np.array([1.0, 4.0]),
                             np.array([0.0]))[0] == pytest.approx(
            math.sqrt(2.0), rel=1e-12)

    def test_degenerate_names_segment(self):
        # a flat stretch of one profile zeroes the second segment at s=4
        rng = np.random.default_rng(19)
        x = np.cumsum(rng.standard_normal(40))
        x[4:11] = x[4]
        y = np.cumsum(rng.standard_normal(40))
        with pytest.raises(DegenerateSegmentError,
                           match="segment 1 at scale 4"):
            _surface(x, y, _SMALL_GRID)


class TestHurstCurve:
    def _surface(self, h_true, const=1.0):
        scales = np.array([8, 16, 32, 64, 128])
        q = np.array([-2.0, 0.0, 2.0])
        values = np.tile(const * scales.astype(float) ** h_true, (3, 1))
        return FluctuationSurface(scales=scales, q_grid=q, values=values)

    def test_pure_power_law(self):
        hc = hurst_curve(self._surface(0.7))
        np.testing.assert_allclose(hc.h, 0.7, atol=1e-10)
        np.testing.assert_allclose(hc.r2, 1.0, atol=1e-10)

    def test_constant_prefactor_ignored(self):
        hc = hurst_curve(self._surface(0.5, const=2.0))
        np.testing.assert_allclose(hc.h, 0.5, atol=1e-10)

    def test_matches_full_polyfit_report(self):
        # hurst_curve skips ols_polyfit's p-values; what it keeps must be
        # the same bits
        rng = np.random.default_rng(30)
        z = rng.standard_normal(2048)
        surface, hc = analyze_pair(z, rng.standard_normal(2048),
                                   DmaConfig(scale_min=8, scale_max=400))
        log_s = np.log(surface.scales.astype(np.float64))
        for i, row in enumerate(surface.values):
            fit = ols_polyfit(log_s, np.log(row), degree=1)
            assert hc.h[i] == fit.coefficients[1]
            assert hc.stderr[i] == fit.std_errors[1]
            assert hc.r2[i] == fit.r_squared

    def test_white_noise_pair_near_half(self):
        rng = np.random.default_rng(29)
        estimates = []
        for _ in range(5):
            z = rng.standard_normal(4096)
            _, hc = analyze_pair(z, z, DmaConfig())
            estimates.append(hc.h[np.nonzero(hc.q_grid == 2.0)[0][0]])
        assert abs(np.mean(estimates) - 0.5) < 0.1


class TestDmaConfig:
    def test_default_scales_span(self):
        s = DmaConfig().scales()
        assert s[0] == 10 and s[-1] == 316
        assert np.all(np.diff(s) > 0)

    def test_q_grid_must_contain_0_and_2(self):
        with pytest.raises(DmaError, match="0 and 2"):
            DmaConfig(q_min=-1.0, q_max=3.0, q_step=2.0)

    def test_q_grid_must_increase(self):
        with pytest.raises(DmaError, match="whole number"):
            DmaConfig(q_min=2.0, q_max=-2.0)

    def test_theta_bounds(self):
        with pytest.raises(DmaError):
            DmaConfig(theta=1.5)

    def test_scale_cap_against_length(self):
        DmaConfig().validate_for_length(6065)
        with pytest.raises(DmaError, match="N/4"):
            DmaConfig().validate_for_length(1000)

    @pytest.mark.parametrize("field, value", [
        ("scale_min", 10.0), ("scale_max", 300.5), ("n_scales", 30.5),
        ("scale_min", True), ("n_scales", True)])
    def test_scale_settings_must_be_integers(self, field, value):
        with pytest.raises(DmaError, match=f"^{field} must be an integer"):
            DmaConfig(**{field: value})

    def test_n_scales_minimum(self):
        with pytest.raises(DmaError):
            DmaConfig(n_scales=3)
        # four log-spaced points round to the three scales 10, 11, 12
        with pytest.raises(DmaError, match="distinct scales"):
            DmaConfig(scale_min=10, scale_max=12, n_scales=4)


class TestSurfaceInvariants:
    def test_power_mean_ordering(self):
        rng = np.random.default_rng(31)
        z1 = np.cumsum(rng.standard_normal(2000))
        z2 = np.cumsum(rng.standard_normal(2000))
        cfg = DmaConfig(scale_min=10, scale_max=250, n_scales=12)
        surf = _surface(z1, z2, cfg)
        diffs = np.diff(surf.values, axis=0)
        assert np.all(diffs >= -1e-9 * surf.values[:-1])

    def test_scale_equivariance(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        cfg = DmaConfig(scale_min=10, scale_max=250, n_scales=10)
        base, hc_base = analyze_pair(x, y, cfg)
        scaled, hc_scaled = analyze_pair(2.5 * x, 2.5 * y, cfg)
        np.testing.assert_allclose(scaled.values, 2.5 * base.values, rtol=1e-9)
        np.testing.assert_allclose(hc_scaled.h, hc_base.h, atol=1e-12)


class TestAnalyzePair:
    def test_use_profile_changes_result(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        cfg_on = DmaConfig(scale_min=10, scale_max=250, n_scales=10)
        cfg_off = DmaConfig(scale_min=10, scale_max=250, n_scales=10,
                            use_profile=False)
        _, h_on = analyze_pair(x, y, cfg_on)
        _, h_off = analyze_pair(x, y, cfg_off)
        assert not np.allclose(h_on.h, h_off.h)

    def test_length_mismatch(self):
        with pytest.raises(DmaError):
            analyze_pair(np.ones(100), np.ones(99), DmaConfig())


def _member(n, seed):
    """Heavy-tailed, coupled returns and shuffled copies of each: a pair
    and the two surrogates of one ensemble member."""
    rng = np.random.default_rng(seed)
    x = 0.01 * rng.standard_t(3, n)
    y = 0.5 * x + 0.01 * rng.standard_t(3, n)
    return x, y, rng.permutation(x), rng.permutation(y)


def _assert_matches_reference(surface, hurst, xv, yv, config):
    values, h, stderr, r2 = oracle.analyze_pair_reference(xv, yv, config)
    assert np.array_equal(surface.values, values)
    assert np.array_equal(hurst.h, h)
    assert np.array_equal(hurst.stderr, stderr)
    assert np.array_equal(hurst.r2, r2)


class TestBatchedKernel:
    """One member's schemes in one pass against the per-pair path that
    evaluated them one by one (dma_oracle), bit for bit."""

    @pytest.mark.parametrize("n", [515, 2048, 6065])
    def test_member_schemes_match_per_pair_path(self, n):
        x, y, xs, ys = _member(n, n)
        config = DmaConfig(scale_max=min(316, n // 4))
        series = [x, y, xs, ys]
        pairs = [(2, 1), (0, 3), (2, 3)]
        results = analyze_pairs(series, pairs, config)
        for (i, j), (surface, hurst) in zip(pairs, results):
            _assert_matches_reference(surface, hurst, series[i], series[j],
                                      config)

    @pytest.mark.parametrize("config", [
        DmaConfig(theta=0.5, scale_max=400),
        DmaConfig(theta=1.0, scale_min=4, scale_max=100, n_scales=12),
        DmaConfig(use_profile=False, scale_max=400,
                  q_min=-10.0, q_max=10.0, q_step=0.25),
    ])
    def test_single_pair_matches_per_pair_path(self, config):
        x, y, _, _ = _member(2048, 7)
        surface, hurst = analyze_pair(x, y, config)
        _assert_matches_reference(surface, hurst, x, y, config)
        # a pair of one array with itself
        surface, hurst = analyze_pair(x, x, config)
        _assert_matches_reference(surface, hurst, x, x.copy(), config)

    def test_degenerate_scheme_alone_drops_out(self):
        x, y, xs, ys = _member(2048, 11)
        y = y.copy()
        y[300:400] = 0.0  # a flat profile stretch zeroes scheme 1's segments
        config = DmaConfig(scale_max=400)
        series = [x, y, xs, ys]
        pairs = [(2, 1), (0, 3), (2, 3)]
        bad, *good = analyze_pairs(series, pairs, config)
        assert isinstance(bad, DegenerateSegmentError)
        with pytest.raises(DegenerateSegmentError) as ref:
            oracle.analyze_pair_reference(xs, y, config)
        assert str(bad) == str(ref.value)
        for (i, j), (surface, hurst) in zip(pairs[1:], good):
            _assert_matches_reference(surface, hurst, series[i], series[j],
                                      config)

    def test_length_mismatch(self):
        x, y, xs, _ = _member(600, 3)
        with pytest.raises(DmaError, match="lengths differ"):
            analyze_pairs([x, y, xs, y[:-1]], [(0, 1), (2, 3)],
                          DmaConfig(scale_max=150))

    @pytest.mark.parametrize("n_seg", [1, 2, 7, 600, 9000])
    def test_q_moments_match_scalar_loop(self, n_seg):
        rng = np.random.default_rng(n_seg)
        # spread over 30 decades, as near-degenerate segments give
        fv = 10.0 ** rng.uniform(-20.0, 10.0, n_seg)
        q = np.round(np.arange(-40, 41) * 0.25, 10)
        assert np.array_equal(dma._q_moments(fv, q), oracle.q_moments(fv, q))


class TestBenchmarkProbes:
    """What perfbench's probes call and its tracer wraps: a changed
    signature or a renamed function fails here, not in a traced
    benchmark run."""

    def test_probe_calls(self):
        # the kernels at the sizes of perfbench's probe.* metrics, which
        # look for them in a module the package no longer has and read 0
        # until they are retargeted
        rng = np.random.default_rng(1)
        z = np.cumsum(rng.standard_normal(65536))
        ex = rng.standard_normal(65536)
        ey = rng.standard_normal(65536)
        fv = np.abs(rng.standard_normal(600)) + 1e-9
        qs = np.round(np.arange(-20, 21) * 0.25, 10)
        means = dma._window_means(dma._running_sums(z), 316)
        assert np.array_equal(means, oracle.window_means(z, 316))
        fvs = dma._segment_products(ex, ey, 316, 65536 // 316)
        assert fvs.shape == (65536 // 316,)
        moments = dma._q_moments(fv, qs)
        assert moments.shape == qs.shape
        assert np.array_equal(moments, oracle.q_moments(fv, qs))

    def test_traced_names_exist(self):
        # a traced function that is renamed away reads as no calls, and
        # its per-layer metrics as 0, without any error
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        traced = runpy.run_path(str(path))["TRACED"]
        missing = {f"{module}.{name}" for module, name in traced
                   if not hasattr(importlib.import_module(f"mfxdma.{module}"),
                                  name)}
        assert missing == {"surrogate.intrinsic_test",
                           "surrogate.iaaft_with_iterations",
                           "pipeline.emit_plot_data", "surrogate.iaaft",
                           "dma.fluctuation_surface"}
