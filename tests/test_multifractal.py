import numpy as np
import pytest

from mfxdma.dma import DmaError, HurstCurve
from mfxdma.multifractal import joint_spectrum, tau_nonlinearity_test
from mfxdma.synth import analytic_cascade_tau

Q = np.round(np.arange(-20, 21) * 0.25, 10)


def _curve(h_values):
    h = np.asarray(h_values, dtype=np.float64)
    return HurstCurve(q_grid=Q, h=h, stderr=np.zeros_like(h), r2=np.ones_like(h))


def _of_tau(tau):
    """joint_spectrum of the curve whose tau is the one given: h =
    (tau + 1)/q, and h(0) = 0, since tau(0) = -1 for any h(0)."""
    h = np.divide(tau + 1.0, Q, out=np.zeros_like(Q), where=Q != 0.0)
    return joint_spectrum(_curve(h))


class TestMassExponents:
    def test_q0_forced(self):
        tau = joint_spectrum(_curve(np.linspace(0.9, 0.2, Q.size))).tau
        assert tau[np.nonzero(Q == 0.0)[0][0]] == -1.0

    def test_q2_h_half(self):
        tau = joint_spectrum(_curve(np.full(Q.size, 0.5))).tau
        assert tau[np.nonzero(Q == 2.0)[0][0]] == pytest.approx(0.0, abs=1e-15)

    def test_constant_h_gives_line(self):
        tau = joint_spectrum(_curve(np.full(Q.size, 0.3668))).tau
        np.testing.assert_allclose(tau, 0.3668 * Q - 1.0, atol=1e-14)

    def test_non_finite_h(self):
        h = np.full(Q.size, 0.5)
        h[3] = np.nan
        with pytest.raises(DmaError, match="non-finite"):
            joint_spectrum(_curve(h))


class TestSingularityStrength:
    def test_linear_tau(self):
        alpha = _of_tau(0.5 * Q - 1.0).alpha
        np.testing.assert_allclose(alpha, 0.5, atol=1e-13)

    def test_quadratic_exact(self):
        tau = -1.0 + 0.4 * Q - 0.01 * Q ** 2
        alpha = _of_tau(tau).alpha
        np.testing.assert_allclose(alpha, 0.4 - 0.02 * Q, atol=1e-12)

    def test_cascade_analytic_derivative(self):
        p = 0.3
        tau = analytic_cascade_tau(Q, p)
        alpha = _of_tau(tau).alpha
        # closed-form derivative of -log2(p^q + (1-p)^q)
        num = p ** Q * np.log2(p) + (1 - p) ** Q * np.log2(1 - p)
        expected = -num / (p ** Q + (1 - p) ** Q)
        assert np.max(np.abs(alpha - expected)) < 1e-3

    def test_too_few_points(self):
        q = np.array([0.0, 1.0])
        with pytest.raises(DmaError, match="3 grid points"):
            joint_spectrum(HurstCurve(q_grid=q, h=np.array([0.5, 0.5]),
                                      stderr=np.zeros(2), r2=np.ones(2)))


class TestSpectrum:
    def test_q0_forces_unit_f(self):
        h = np.linspace(0.8, 0.3, Q.size)
        f = joint_spectrum(_curve(h)).f_alpha
        assert f[np.nonzero(Q == 0.0)[0][0]] == pytest.approx(1.0, abs=1e-12)

    def test_monofractal_f_is_one(self):
        f = _of_tau(0.62 * Q - 1.0).f_alpha
        np.testing.assert_allclose(f, 1.0, atol=1e-12)

    def test_cascade_max_f_is_one(self):
        f = _of_tau(analytic_cascade_tau(Q, 0.3)).f_alpha
        assert abs(f.max() - 1.0) < 1e-6


class TestJointSpectrum:
    def test_identities_hold(self):
        rng = np.random.default_rng(41)
        h = 0.5 + 0.3 / (1.0 + np.exp(Q)) + 0.01 * rng.standard_normal(Q.size)
        result = joint_spectrum(_curve(h))
        np.testing.assert_allclose(result.tau, Q * h - 1.0, atol=1e-12)
        np.testing.assert_allclose(result.f_alpha,
                                   Q * result.alpha - result.tau, atol=1e-12)
        assert result.delta_alpha == pytest.approx(
            result.alpha.max() - result.alpha.min(), abs=1e-15)


class TestTauNonlinearityTest:
    def test_exact_linear_not_flagged(self):
        report = tau_nonlinearity_test(Q, 0.41 * Q - 1.0, 0.05)
        assert abs(report.fit.coefficients[2]) < 1e-10
        assert not report.multifractal_flag

    def test_positive_curvature_not_flagged(self):
        # significant but positive quadratic term counts against
        tau = -1.0 + 0.3668 * Q + 0.0013 * Q ** 2
        report = tau_nonlinearity_test(Q, tau, 0.05)
        assert report.fit.coefficients[2] == pytest.approx(0.0013, abs=1e-12)
        assert not report.multifractal_flag

    def test_negative_curvature_flagged(self):
        tau = -1.0 + 0.3359 * Q - 0.0107 * Q ** 2
        report = tau_nonlinearity_test(Q, tau, 0.05)
        assert report.fit.coefficients[2] == pytest.approx(-0.0107, abs=1e-12)
        assert report.multifractal_flag

    def test_insignificant_negative_curvature_not_flagged(self):
        rng = np.random.default_rng(42)
        # noise swamps a whisper of curvature
        tau = 0.4 * Q - 1.0 - 1e-5 * Q ** 2 + 0.5 * rng.standard_normal(Q.size)
        report = tau_nonlinearity_test(Q, tau, 0.05)
        if report.fit.coefficients[2] < 0:
            assert report.fit.t_pvalues[2] > 0.05
        assert not report.multifractal_flag

    def test_too_few_points(self):
        with pytest.raises(DmaError):
            tau_nonlinearity_test(np.arange(4.0), np.arange(4.0), 0.05)

    @pytest.mark.parametrize("level", [0.0, 1.0, 7.0, float("nan")])
    def test_level_outside_unit_interval(self, level):
        with pytest.raises(DmaError, match="level"):
            tau_nonlinearity_test(Q, 0.41 * Q - 1.0, level)
