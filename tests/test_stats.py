import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as spstats

from mfxdma.stats import StatsError, chi2_critical, ols_polyfit, qcc_test
from stats_oracle import cross_corr_coeff, qcc_statistic


class TestCrossCorrCoeff:
    def test_no_overlap_of_nonzeros(self):
        x = np.zeros(10)
        x[0] = 1.0
        assert cross_corr_coeff(x, x, 1) == 0.0

    def test_hand_computed_pair_of_ones(self):
        assert cross_corr_coeff(np.ones(2), np.ones(2), 1) == pytest.approx(0.5)

    def test_zero_variance_error(self):
        with pytest.raises(StatsError, match="zero-variance"):
            cross_corr_coeff(np.arange(5.0), np.zeros(5), 1)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(30)
            y = rng.standard_normal(30)
            lag = int(rng.integers(1, 29))
            assert abs(cross_corr_coeff(x, y, lag)) <= 1.0

    def test_lag_out_of_range(self):
        with pytest.raises(StatsError):
            cross_corr_coeff(np.ones(4), np.ones(4), 4)


class TestQccStatistic:
    def test_orthogonal_series(self):
        x = np.zeros(8)
        y = np.zeros(8)
        x[0] = 1.0
        y[-1] = 1.0
        for m in (1, 3, 7):
            assert qcc_statistic(x, y, m) == 0.0

    def test_hand_computed_n3(self):
        # x = y = (1,1,1)/sqrt(3): X_1 = 2/3, so N^2 X_1^2 / (N-1) = 2
        v = np.ones(3) / math.sqrt(3.0)
        assert qcc_statistic(v, v, 1) == pytest.approx(2.0, rel=1e-12)

    def test_nondecreasing_in_m(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        values = [qcc_statistic(x, y, m) for m in range(1, 60)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        base = qcc_statistic(x, y, 10)
        assert qcc_statistic(3.7 * x, -0.2 * y, 10) == pytest.approx(base, rel=1e-12)

    def test_m_too_large(self):
        with pytest.raises(StatsError):
            qcc_statistic(np.ones(5), np.ones(5), 5)


def _chi2_upper_tail_root(m: int, level: float) -> float:
    """Quadrature oracle: bisect on the integrated upper-tail density."""

    def pdf(t):
        return math.exp((0.5 * m - 1.0) * math.log(t) - 0.5 * t
                        - 0.5 * m * math.log(2.0) - math.lgamma(0.5 * m))

    def upper(c):
        val, _ = integrate.quad(pdf, c, np.inf, limit=400)
        return val

    lo, hi = 1e-9, 10.0 * m + 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if upper(mid) > level:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * mid:
            break
    return 0.5 * (lo + hi)


class TestChi2Critical:
    def test_m1_against_quadrature(self):
        assert chi2_critical(1, 0.05) == pytest.approx(
            _chi2_upper_tail_root(1, 0.05), rel=1e-6)
        assert chi2_critical(1, 0.05) == pytest.approx(3.8415, abs=5e-5)

    def test_m2_closed_form(self):
        # for two degrees of freedom the upper tail is exp(-c/2)
        for level in (0.05, 0.10, 0.5):
            assert chi2_critical(2, level) == pytest.approx(
                -2.0 * math.log(level), rel=1e-8)

    def test_quadrature_agreement_across_m(self):
        for m in (5, 10, 100):
            assert chi2_critical(m, 0.05) == pytest.approx(
                _chi2_upper_tail_root(m, 0.05), rel=1e-6)

    def test_monotone_in_m(self):
        assert chi2_critical(10, 0.05) > chi2_critical(5, 0.05)

    def test_extreme_levels(self):
        assert chi2_critical(3, 0.999) < chi2_critical(3, 0.001)

    def test_invalid_args(self):
        with pytest.raises(StatsError):
            chi2_critical(0, 0.05)
        with pytest.raises(StatsError):
            chi2_critical(5, 1.5)

    def test_cache_holds_every_lag_depth(self):
        # qcc_test asks for m = 1..m_max in order, so a cache that holds
        # fewer keys than m_max evicts each one before it is asked again
        rng = np.random.default_rng(12)
        x = rng.standard_normal(5001)
        y = rng.standard_normal(5001)
        qcc_test(x, y, range(1, 5001), 0.0123)
        before = chi2_critical.cache_info()
        qcc_test(x, y, range(1, 5001), 0.0123)
        after = chi2_critical.cache_info()
        assert after.hits - before.hits == 5000
        assert after.misses == before.misses


class TestQccTest:
    def test_reject_consistency_and_shape(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(6065)
        y = rng.standard_normal(6065)
        report = qcc_test(x, y, range(1, 1001), 0.05)
        assert report.m_values.size == 1000
        assert np.array_equal(report.reject, report.qcc > report.critical)
        assert np.all(report.qcc >= 0.0)
        assert np.all(report.critical > 0.0)

    def test_identical_autocorrelated_series_reject(self):
        rng = np.random.default_rng(10)
        x = np.cumsum(rng.standard_normal(500))  # strongly autocorrelated
        report = qcc_test(x, x, [1, 2, 5], 0.05)
        assert bool(report.reject[0])

    def test_matches_scalar_statistic(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        report = qcc_test(x, y, [3, 7], 0.05)
        assert report.qcc[0] == pytest.approx(qcc_statistic(x, y, 3), rel=1e-12)
        assert report.qcc[1] == pytest.approx(qcc_statistic(x, y, 7), rel=1e-12)

    def test_length_mismatch(self):
        # a longer y would otherwise be read only up to x's length
        with pytest.raises(StatsError, match="share length"):
            qcc_test(np.arange(1.0, 11.0), np.arange(1.0, 13.0), [3], 0.05)

    def test_m_exceeding_length(self):
        with pytest.raises(StatsError):
            qcc_test(np.ones(10), np.ones(10), [5, 10], 0.05)


class TestOlsPolyfit:
    def test_exact_line(self):
        xs = np.linspace(0, 10, 25)
        fit = ols_polyfit(xs, 2.0 + 3.0 * xs, 1)
        np.testing.assert_allclose(fit.coefficients, [2.0, 3.0], atol=1e-10)
        assert fit.r_squared == 1.0

    def test_small_curvature_quadratic_roundtrip(self):
        q = np.round(np.arange(-20, 21) * 0.25, 10)
        ys = -1.0 + 0.3668 * q + 0.0013 * q ** 2
        fit = ols_polyfit(q, ys, 2)
        np.testing.assert_allclose(fit.coefficients, [-1.0, 0.3668, 0.0013],
                                   atol=1e-12)

    def test_noisy_fit_against_normal_equations(self):
        rng = np.random.default_rng(21)
        xs = np.linspace(-3, 3, 60)
        ys = 1.5 - 0.7 * xs + 0.2 * xs ** 2 + 0.1 * rng.standard_normal(60)
        fit = ols_polyfit(xs, ys, 2)
        design = np.vander(xs, 3, increasing=True)
        oracle = np.linalg.solve(design.T @ design, design.T @ ys)
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-8)
        # normal equations: residuals orthogonal to every design column
        resid = ys - design @ fit.coefficients
        assert np.max(np.abs(design.T @ resid)) < 1e-8

    def test_diagnostics_on_noisy_line(self):
        rng = np.random.default_rng(22)
        xs = np.linspace(0, 1, 40)
        ys = 0.3 + 2.0 * xs + 0.05 * rng.standard_normal(40)
        fit = ols_polyfit(xs, ys, 1)
        assert 0.9 < fit.r_squared < 1.0
        np.testing.assert_allclose(fit.t_stats, fit.coefficients / fit.std_errors)
        assert fit.f_pvalue < 1e-10
        # slope is clearly nonzero, intercept clearly significant here too
        assert fit.t_pvalues[1] < 1e-10

    def test_tstat_pvalue_convention(self):
        rng = np.random.default_rng(23)
        xs = np.linspace(0, 1, 30)
        ys = 1.0 + xs + 0.2 * rng.standard_normal(30)
        fit = ols_polyfit(xs, ys, 1)
        dof = 30 - 2
        expected = 2.0 * spstats.t.sf(abs(fit.t_stats[1]), dof)
        assert fit.t_pvalues[1] == pytest.approx(expected, rel=1e-12)

    def test_flat_fit_rounding_below_zero_f(self):
        # a symmetric ys gives a zero slope, and rounding can leave the F
        # statistic a hair below 0, where the F tail alone gives NaN
        xs = np.arange(-3.0, 4.0)
        for half in ([-0.62394, -0.08841, -0.86094, -0.60311],
                     [-0.62376, -0.57908, -0.33502, -0.54407]):
            ys = np.array(half + half[2::-1])
            fit = ols_polyfit(xs, ys, 1)
            assert fit.f_stat <= 1e-12
            assert fit.f_pvalue == 1.0

    def test_identical_xs_rejected(self):
        with pytest.raises(StatsError):
            ols_polyfit(np.full(10, 2.0), np.arange(10.0), 1)

    def test_too_few_points(self):
        with pytest.raises(StatsError):
            ols_polyfit(np.arange(3.0), np.arange(3.0), 2)
