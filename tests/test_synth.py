import numpy as np
import pytest

from mfxdma.dma import DmaConfig, analyze_pair
from mfxdma.synth import (SynthError, _fgn_autocov, analytic_cascade_tau,
                          binomial_cascade, fgn)


class TestFgn:
    def test_deterministic(self):
        assert np.array_equal(fgn(1000, 0.7, 5), fgn(1000, 0.7, 5))
        assert not np.array_equal(fgn(1000, 0.7, 5), fgn(1000, 0.7, 6))

    def test_white_noise_lag1(self):
        n = 2 ** 14
        g = fgn(n, 0.5, 1)
        lag1 = np.corrcoef(g[:-1], g[1:])[0, 1]
        assert abs(lag1) < 3.0 / np.sqrt(n)

    def test_moments_at_large_n(self):
        g = fgn(2 ** 14, 0.5, 2)
        assert abs(g.mean()) < 0.05
        assert abs(g.var() - 1.0) < 0.05

    def test_autocovariance_matches_target(self):
        # ensemble estimate of E[x_t x_{t+k}] against the analytic curve
        h = 0.75
        gamma = _fgn_autocov(6, h)
        acc = np.zeros(6)
        for seed in range(200):
            g = fgn(512, h, seed)
            for k in range(6):
                acc[k] += np.dot(g[: 512 - k], g[k:])
        est = acc / np.array([200.0 * (512 - k) for k in range(6)])
        np.testing.assert_allclose(est, gamma, atol=0.03)

    def test_pipeline_recovers_h(self):
        # Monte Carlo: mean scaling exponent at q=2 near the target H
        estimates = []
        cfg = DmaConfig()
        for seed in range(20):
            g = fgn(2 ** 14, 0.8, seed)
            _, hc = analyze_pair(g, g, cfg)
            estimates.append(hc.h[np.nonzero(hc.q_grid == 2.0)[0][0]])
        assert abs(np.mean(estimates) - 0.8) < 0.05

    def test_every_hurst_embeds(self):
        # the embedding holds up to H near 1 at any length, with no size limit
        for n in (16, 4097, 6065):
            for hurst in np.round(np.arange(0.01, 1.0, 0.02), 2):
                assert np.all(np.isfinite(fgn(n, hurst, 3))), (n, hurst)

    def test_input_validation(self):
        with pytest.raises(SynthError):
            fgn(8, 0.5, 0)
        with pytest.raises(SynthError, match="^n must be an integer"):
            fgn(64.5, 0.5, 1)
        with pytest.raises(SynthError):
            fgn(100, 1.0, 0)


class TestBinomialCascade:
    def test_mass_conservation(self):
        for levels in (4, 10, 16):
            mass = binomial_cascade(levels, 0.3)
            assert mass.size == 2 ** levels
            assert abs(mass.sum() - 1.0) < 1e-12

    def test_symmetric_p_is_uniform(self):
        mass = binomial_cascade(6, 0.5)
        np.testing.assert_allclose(mass, 2.0 ** -6, rtol=1e-12)

    def test_first_and_last_cells(self):
        mass = binomial_cascade(8, 0.3)
        # all-left path keeps factor p each split; all-right keeps 1-p
        assert mass[0] == pytest.approx(0.3 ** 8, rel=1e-12)
        assert mass[-1] == pytest.approx(0.7 ** 8, rel=1e-12)

    def test_shuffle_permutes_same_multiset(self):
        plain = binomial_cascade(8, 0.3)
        shuffled = binomial_cascade(8, 0.3, seed=9, shuffle=True)
        assert not np.array_equal(plain, shuffled)
        np.testing.assert_allclose(np.sort(plain), np.sort(shuffled), rtol=1e-12)

    def test_shuffle_deterministic(self):
        a = binomial_cascade(8, 0.3, seed=9, shuffle=True)
        b = binomial_cascade(8, 0.3, seed=9, shuffle=True)
        assert np.array_equal(a, b)

    def test_spec_validation(self):
        with pytest.raises(SynthError):
            binomial_cascade(3, 0.3)
        with pytest.raises(SynthError):
            binomial_cascade(8, 1.0)
        # a fractional or boolean depth is no cascade
        with pytest.raises(SynthError, match="^levels must be an integer"):
            binomial_cascade(4.5, 0.3)
        with pytest.raises(SynthError, match="^levels must be an integer"):
            binomial_cascade(True, 0.3)


class TestAnalyticCascadeTau:
    def test_q0(self):
        assert analytic_cascade_tau(0.0, 0.3) == pytest.approx(-1.0, abs=1e-14)

    def test_q1(self):
        assert analytic_cascade_tau(1.0, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_q2_hand_value(self):
        # -log2(0.09 + 0.49)
        assert analytic_cascade_tau(2.0, 0.3) == pytest.approx(0.785875, abs=1e-6)

    def test_symmetric_p_is_linear(self):
        q = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(analytic_cascade_tau(q, 0.5), q - 1.0, atol=1e-12)

    def test_concavity(self):
        q = np.linspace(-5, 5, 81)
        tau = analytic_cascade_tau(q, 0.3)
        second = np.diff(tau, 2)
        assert np.all(second <= 1e-12)
