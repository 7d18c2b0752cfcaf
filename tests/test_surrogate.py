import dataclasses
import logging
import os

import numpy as np
import pytest
from scipy.signal import lfilter

import surrogate_oracle as oracle
from conftest import make_pair
from mfxdma import dma, synth
from mfxdma import surrogate as sg
from mfxdma.dma import DegenerateSegmentError, DmaConfig
from mfxdma.multifractal import joint_spectrum
from mfxdma.surrogate import (EnsembleFailedError, SurrogateError,
                              SurrogateScheme, iaaft_rows, intrinsic_tests)
from surrogate_oracle import iaaft

S1, S2, S3 = SurrogateScheme
CFG = DmaConfig(scale_min=8, scale_max=60, n_scales=8)


def _ar1(n, phi, seed):
    rng = np.random.default_rng(seed)
    return lfilter([1.0], [1.0, -phi], rng.standard_normal(n))


def _ensemble(pair, schemes, n, master_seed, workers=None,
              delta_alpha_original=None):
    """intrinsic_tests on CFG with what a test leaves unsaid: 1000 IAAFT
    iterations, one worker per CPU and the pair's own width."""
    if delta_alpha_original is None:
        _, hurst = dma.analyze_pair(pair.x.values, pair.y.values, CFG)
        delta_alpha_original = joint_spectrum(hurst).delta_alpha
    return intrinsic_tests(pair, schemes, n, master_seed, CFG, 1000,
                           workers or os.cpu_count(), delta_alpha_original)


def _per_pair(fake):
    """A stand-in for the per-chunk seam that hands each (i, j) pair's
    series to fake(xv, yv, config) and keeps a DegenerateSegmentError it
    raises in that pair's place, as the seam does."""
    def member_spectra(series, pairs, config):
        out = []
        for i, j in pairs:
            try:
                out.append(fake(series[i], series[j], config))
            except DegenerateSegmentError as exc:
                out.append(exc)
        return out
    return member_spectra


def _fake_spectrum(width):
    spec = type("S", (), {})()
    spec.delta_alpha = width
    spec.h = np.zeros(3)
    spec.tau = np.zeros(3)
    spec.alpha = np.zeros(3)
    spec.f_alpha = np.zeros(3)
    return spec


class TestIaaft:
    def test_multiset_preserved(self):
        for n, seed in ((64, 0), (255, 1), (1000, 2)):
            x = _ar1(n, 0.6, seed)
            s = iaaft(x, 200, seed + 10)
            np.testing.assert_array_equal(np.sort(s), np.sort(x))

    def test_constant_series_unchanged(self):
        c = np.full(16, 3.0)
        np.testing.assert_array_equal(iaaft(c, 10, 1), c)

    def test_deterministic(self):
        x = _ar1(500, 0.7, 3)
        assert np.array_equal(iaaft(x, 500, 42), iaaft(x, 500, 42))
        assert not np.array_equal(iaaft(x, 500, 42), iaaft(x, 500, 43))

    def test_periodogram_fidelity(self):
        x = _ar1(2048, 0.7, 3)
        (s,), (iters,) = iaaft_rows(x[None, :], [11], 1000)
        assert iters < 1000  # converged by rank stabilization
        po = np.abs(np.fft.rfft(x)) ** 2
        ps = np.abs(np.fft.rfft(s)) ** 2
        mask = po > 0
        mre = np.mean(np.abs(ps[mask] - po[mask]) / po[mask])
        assert mre < 1e-2

    def test_odd_length(self):
        x = _ar1(999, 0.5, 4)
        s = iaaft(x, 200, 7)
        np.testing.assert_array_equal(np.sort(s), np.sort(x))

    def test_validation(self):
        with pytest.raises(SurrogateError):
            iaaft(np.ones(4), 10, 0)
        with pytest.raises(SurrogateError):
            iaaft(np.array([1.0, np.nan] + [0.0] * 10), 10, 0)

    @pytest.mark.parametrize("case, series, max_iter", [
        ("even n", _ar1(512, 0.6, 21), 1000),
        ("odd n", _ar1(515, 0.6, 22), 1000),
        # a rounded heavy-tailed draw repeated four times: most values
        # occur many times, and the spectrum has only every fourth bin,
        # so each iterate holds exact ties and the stable tie order
        # decides the rank vector
        ("many ties",
         np.tile(np.round(np.random.default_rng(23).standard_t(3, 150), 1), 4),
         1000),
        ("constant", np.full(64, -0.25), 1000),
        ("hits max_iter", _ar1(800, 0.9, 24), 3),
    ])
    def test_matches_double_argsort_reference(self, case, series, max_iter):
        for seed in (0, 1, 7, 12345):
            (got,), (got_iters,) = iaaft_rows(series[None, :], [seed],
                                              max_iter)
            want, want_iters = oracle.iaaft_reference(series, max_iter, seed)
            assert got_iters == want_iters, case
            assert np.array_equal(got, want), case
            assert np.array_equal(iaaft(series, max_iter, seed), want), case
        if case == "hits max_iter":
            assert got_iters == max_iter

    def test_non_convergence_warns(self, caplog):
        x = _ar1(400, 0.7, 5)
        with caplog.at_level(logging.WARNING, logger="mfxdma.surrogate"):
            _, (iters,) = iaaft_rows(x[None, :], [3], max_iter=2)
        assert iters == 2
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "max_iter=2" in warnings[0].getMessage()

    def test_convergence_does_not_warn(self, caplog):
        x = _ar1(400, 0.7, 5)
        with caplog.at_level(logging.WARNING, logger="mfxdma.surrogate"):
            _, (iters,) = iaaft_rows(x[None, :], [3], max_iter=1000)
        assert iters < 1000
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def _assert_rows_match_reference(rows, seeds, max_iter):
    got, got_iters = iaaft_rows(rows, seeds, max_iter)
    for row, seed, values, iters in zip(rows, seeds, got, got_iters):
        want, want_iters = oracle.iaaft_reference(row, max_iter, seed)
        assert iters == want_iters, seed
        assert np.array_equal(values, want), seed
    return got_iters


class TestIaaftRows:
    def test_rows_stop_at_different_iterations(self):
        x, y = _ar1(700, 0.6, 31), _ar1(700, 0.95, 32)
        rows = np.stack([x, y, x, y, x])
        iters = _assert_rows_match_reference(rows, [3, 1, 4, 1, 5], 1000)
        assert len(set(iters.tolist())) > 1

    def test_unconverged_rows_next_to_converged(self, caplog):
        x = _ar1(400, 0.7, 33)
        seeds = [11, 12, 13, 14, 15, 16]
        free = [oracle.iaaft_reference(x, 1000, s)[1] for s in seeds]
        # a cap that some rows reach before their order settles
        max_iter = sorted(free)[len(free) // 2]
        capped = [s for s, it in zip(seeds, free) if it > max_iter]
        assert 0 < len(capped) < len(seeds)
        with caplog.at_level(logging.WARNING, logger="mfxdma.surrogate"):
            _assert_rows_match_reference(np.stack([x] * len(seeds)), seeds,
                                         max_iter)
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == len(capped)
        for seed, message in zip(capped, warnings):
            assert f"seed={seed})" in message and f"max_iter={max_iter}" in message

    def test_ties_fall_back_to_a_full_sort(self):
        # every iterate of this tiled series holds exact ties, so every
        # row is sorted again stably after the packed sort
        tiled = np.tile(np.round(np.random.default_rng(23).standard_t(3, 150),
                                 1), 4)
        _assert_rows_match_reference(np.stack([tiled] * 4), [0, 1, 7, 12345],
                                     1000)

    @pytest.mark.parametrize("n", [515, 6065])
    def test_odd_lengths(self, n):
        x, y = _ar1(n, 0.5, 34), _ar1(n, 0.8, 35)
        _assert_rows_match_reference(np.stack([x, y, y]), [2, 3, 4], 1000)

    @pytest.mark.parametrize("rows", [1, 3, 16])
    @pytest.mark.parametrize("n", [1019, 1024])
    def test_fft_paths(self, n, rows):
        # the package takes its FFTs from scipy.fft and the reference
        # from numpy.fft; pocketfft runs Bluestein's algorithm at the
        # prime 1019 and its radix-2 pass at 1024
        x = np.stack([_ar1(n, 0.4 + 0.03 * i, 40 + i) for i in range(rows)])
        _assert_rows_match_reference(x, list(range(7, 7 + rows)), 1000)

    def test_batch_size_does_not_change_rows(self, monkeypatch):
        rows = np.stack([_ar1(300, 0.6, 36 + i) for i in range(5)])
        seeds = [21, 22, 23, 24, 25]
        whole, whole_iters = iaaft_rows(rows, seeds, 1000)
        for budget in (300, 600, 900):  # 1, 2 and 3 rows per batch
            monkeypatch.setattr(sg, "_BATCH_ELEMENTS", budget)
            part, part_iters = iaaft_rows(rows, seeds, 1000)
            assert np.array_equal(part, whole)
            assert np.array_equal(part_iters, whole_iters)

    def test_cascade_rows(self):
        # binomial cascade masses, the input of the long benchmark run:
        # 15 distinct values over 2^14 cells
        masses = synth.binomial_cascade(14, 0.3)
        _assert_rows_match_reference(np.stack([masses, masses]), [0, 1], 1000)

    @pytest.mark.parametrize("budget", [300, 900])  # 1 and 3 rows per batch
    def test_overflowing_spectrum_names_its_row(self, monkeypatch, budget):
        # +-1e308 values overflow the FFT's sums; the NaN iterates would
        # return the row merely shuffled
        rows = np.stack([_ar1(300, 0.6, 50 + i) for i in range(3)])
        rows[2, np.random.default_rng(51).permutation(300)[:64]] = np.tile(
            [1e308, -1e308], 32)
        monkeypatch.setattr(sg, "_BATCH_ELEMENTS", budget)
        with pytest.raises(SurrogateError, match="^row 2: its amplitude "
                                                 "spectrum overflows"):
            iaaft_rows(rows, [1, 2, 3], 1000)

    def test_sort_order_is_the_stable_argsort(self):
        rng = np.random.default_rng(37)
        # 8 and 9, 1024 and 1025: the edges of the position-bit count
        for n in (8, 9, 50, 1024, 1025):
            c = rng.standard_normal((7, n))  # row 0 holds no tie
            c[1, [2, 6]] = 0.0, -0.0  # a signed-zero tie
            c[2, [1, 3, 5]] = 1.5     # a three-way tie
            # distinct values whose keys differ only in the position
            # bits, the larger one at the lower index
            c[3, [0, n - 1]] = np.nextafter(1.0, np.inf), 1.0
            c[4, [0, n - 1]] = np.nextafter(-1.0, np.inf), -1.0
            # mixed signs at the ends of the float range
            c[5, rng.permutation(n)[:8]] = (5e-324, -5e-324, 1e308, -1e308,
                                            2.5, -2.5, 1e-300, -1e-300)
            # NaNs of both signs, which an overflowing FFT can make, sort
            # last, after inf
            c[6, [1, 2, 4, 6]] = np.nan, -np.nan, np.inf, -np.inf
            assert np.array_equal(sg._sort_order(c),
                                  np.argsort(c, axis=1, kind="stable")), n

    def test_sort_order_on_random_rows(self):
        # 200 rows, one call per shape: t(3) rows, the same rounded to
        # one decimal (ties), cascade masses (17 distinct values), the
        # masses with random signs, and t(3) rows spread over the
        # exponent range
        rng = np.random.default_rng(41)
        masses = np.unique(synth.binomial_cascade(16, 0.3))
        for n in (8, 9, 31, 64, 65, 500, 1024, 1025, 4097, 6065):
            t3 = rng.standard_t(3, (4, n))
            signs = rng.choice([-1.0, 1.0], (4, n))
            c = np.concatenate([
                rng.standard_t(3, (4, n)),
                np.round(t3, 1),
                rng.choice(masses, (4, n)),
                rng.choice(masses, (4, n)) * signs,
                t3 * 10.0 ** rng.uniform(-300, 300, (4, n)),
            ])
            assert np.array_equal(sg._sort_order(c),
                                  np.argsort(c, axis=1, kind="stable")), n

    def test_validation(self):
        with pytest.raises(SurrogateError):
            iaaft_rows(np.ones((2, 16)), [1], 1000)
        with pytest.raises(SurrogateError):
            iaaft_rows(np.ones(16), [1], 1000)
        with pytest.raises(SurrogateError):
            iaaft_rows(np.ones((1, 16)), [1], max_iter=0)
        for max_iter in (2.5, True):
            with pytest.raises(SurrogateError,
                               match="^max_iter must be an integer"):
                iaaft_rows(np.ones((1, 16)), [1], max_iter=max_iter)


def _member_inputs(monkeypatch, pair, schemes, n, seed):
    """The (x, y) arrays each member hands to each scheme's spectrum,
    as members[k][i] for the i-th scheme."""
    seen = []

    def record(xv, yv, config):
        seen.append((xv, yv))
        return _fake_spectrum(0.5)

    monkeypatch.setattr(sg, "_member_spectra", _per_pair(record))
    _ensemble(pair, schemes, n, seed, workers=1, delta_alpha_original=0.1)
    monkeypatch.undo()
    width = len(schemes)
    return [seen[k * width:(k + 1) * width] for k in range(n)]


class TestEnsemble:
    def _pair(self):
        return make_pair(_ar1(256, 0.5, 1), _ar1(256, 0.5, 2))

    def test_scheme2_passes_x_through(self, monkeypatch):
        pair = self._pair()
        for (xv, yv), in _member_inputs(monkeypatch, pair, (S2,), 3, 5):
            assert xv is pair.x.values
            assert not np.array_equal(yv, pair.y.values)

    def test_scheme1_passes_y_through(self, monkeypatch):
        pair = self._pair()
        for (xv, yv), in _member_inputs(monkeypatch, pair, (S1,), 3, 5):
            assert yv is pair.y.values
            assert not np.array_equal(xv, pair.x.values)

    def test_members_differ(self, monkeypatch):
        pair = self._pair()
        xs = [m[0][0] for m in _member_inputs(monkeypatch, pair, (S3,), 3, 5)]
        assert not np.array_equal(xs[0], xs[1])
        assert not np.array_equal(xs[1], xs[2])

    def test_sides_use_distinct_seeds(self, monkeypatch):
        pair = make_pair(_ar1(256, 0.5, 7), _ar1(256, 0.5, 7))
        [[(xv, yv)]] = _member_inputs(monkeypatch, pair, (S3,), 1, 9)
        # same source values, but the x and y draws must not coincide
        assert not np.array_equal(xv, yv)

    def test_repeat_run_identical(self, monkeypatch):
        pair = self._pair()
        a = _member_inputs(monkeypatch, pair, (S3,), 3, 5)
        b = _member_inputs(monkeypatch, pair, (S3,), 3, 5)
        for [(xa, ya)], [(xb, yb)] in zip(a, b):
            assert np.array_equal(xa, xb)
            assert np.array_equal(ya, yb)

    def test_schemes_share_one_bank(self, monkeypatch):
        pair = self._pair()
        members = _member_inputs(monkeypatch, pair, (S1, S2, S3), 3, 5)
        for k, ((x1, y1), (x2, y2), (x3, y3)) in enumerate(members):
            assert x1 is x3 and y2 is y3
            assert y1 is pair.y.values and x2 is pair.x.values
            # the same bytes the per-scheme oracle builds for member k
            ref = oracle.build_member(pair, S3, k, 5)
            assert np.array_equal(x3, ref.x.values)
            assert np.array_equal(y3, ref.y.values)


class TestIntrinsicTest:
    def test_scripted_p_extremes(self, monkeypatch):
        pair = make_pair(_ar1(256, 0.5, 1), _ar1(256, 0.5, 2))
        # every member wider than the original
        monkeypatch.setattr(sg, "_member_spectra", _per_pair(
            lambda xv, yv, config: _fake_spectrum(0.9)))
        reports = _ensemble(pair, (S1, S2, S3), 4, 0, delta_alpha_original=0.1)
        assert [r.p_value for r in reports] == [1.0, 1.0, 1.0]
        reports = _ensemble(pair, (S1, S2, S3), 4, 0, delta_alpha_original=2.0)
        assert [r.p_value for r in reports] == [0.0, 0.0, 0.0]

    def test_exclusions_counted(self, monkeypatch):
        pair = make_pair(_ar1(256, 0.5, 1), _ar1(256, 0.5, 2))
        state = {"k": 0}

        def fake(xv, yv, config):
            state["k"] += 1
            if state["k"] == 2:
                raise DegenerateSegmentError("segment 0 degenerate")
            return _fake_spectrum(0.5)

        monkeypatch.setattr(sg, "_member_spectra", _per_pair(fake))
        [report] = _ensemble(pair, (S3,), 4, 0, workers=1,
                             delta_alpha_original=0.1)
        assert report.excluded == 1
        assert report.n_surrogates == 3
        assert report.p_value == 1.0

    @pytest.mark.parametrize("workers", [1, 3])
    def test_exclusion_in_one_scheme_only(self, monkeypatch, workers):
        pair = make_pair(_ar1(256, 0.5, 1), _ar1(256, 0.5, 2))
        bad_y = iaaft(pair.y.values, 1000, sg._member_seed(0, 2, 1))

        def fake(xv, yv, config):
            # member 2 degenerates only where its y surrogate meets the
            # original x, which is scheme 2
            if xv is pair.x.values and np.array_equal(yv, bad_y):
                raise DegenerateSegmentError("segment 0 degenerate")
            return _fake_spectrum(0.5)

        monkeypatch.setattr(sg, "_member_spectra", _per_pair(fake))
        reports = _ensemble(pair, (S1, S2, S3), 4, 0,
                            workers=workers, delta_alpha_original=0.1)
        assert [r.excluded for r in reports] == [0, 1, 0]
        assert [r.n_surrogates for r in reports] == [4, 3, 4]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_scheme_keeps_other_reports(self, monkeypatch, workers):
        pair = make_pair(_ar1(256, 0.5, 1), _ar1(256, 0.5, 2))

        def fake(xv, yv, config):
            if xv is pair.x.values:  # scheme 2: every member degenerate
                raise DegenerateSegmentError("segment 0 degenerate")
            return _fake_spectrum(0.5)

        monkeypatch.setattr(sg, "_member_spectra", _per_pair(fake))
        with pytest.raises(EnsembleFailedError,
                           match="under scheme 2;") as info:
            _ensemble(pair, (S1, S2, S3), 3, 0, workers=workers,
                      delta_alpha_original=0.1)
        assert [r.scheme for r in info.value.completed] == [S1, S3]
        assert [r.n_surrogates for r in info.value.completed] == [3, 3]

    def test_two_failed_schemes_in_one_error(self, monkeypatch):
        pair = make_pair(_ar1(256, 0.5, 1), _ar1(256, 0.5, 2))

        def fake(xv, yv, config):
            # an original on either side: schemes 1 and 2 fail, 3 completes
            if xv is pair.x.values or yv is pair.y.values:
                raise DegenerateSegmentError("segment 0 degenerate")
            return _fake_spectrum(0.5)

        monkeypatch.setattr(sg, "_member_spectra", _per_pair(fake))
        with pytest.raises(EnsembleFailedError,
                           match="under schemes 2, 1;") as info:
            _ensemble(pair, (S2, S3, S1), 3, 0, delta_alpha_original=0.1)
        assert [r.scheme for r in info.value.completed] == [S3]

    def test_argument_validation(self):
        pair = make_pair(_ar1(256, 0.5, 1), _ar1(256, 0.5, 2))
        with pytest.raises(SurrogateError):
            _ensemble(pair, (S3,), 0, 0)
        with pytest.raises(SurrogateError, match="at least one"):
            _ensemble(pair, (), 3, 0)
        with pytest.raises(SurrogateError, match="repeated"):
            _ensemble(pair, (S1, S3, 1), 3, 0)

    @pytest.mark.parametrize("bad", [{"workers": 0}, {"workers": -1},
                                     {"master_seed": -1},
                                     {"workers": 1.5}, {"master_seed": 1.5},
                                     {"n": 2.5}, {"max_iter": 0},
                                     {"delta_alpha_original": np.nan},
                                     {"delta_alpha_original": np.inf},
                                     {"workers": True}, {"n": True}])
    def test_bad_workers_or_seed_named_before_any_work(self, monkeypatch,
                                                       bad):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the arguments were checked")
        monkeypatch.setattr(dma, "analyze_pair", no_work)
        monkeypatch.setattr(sg, "iaaft_rows", no_work)
        pair = make_pair(_ar1(256, 0.5, 1), _ar1(256, 0.5, 2))
        [name] = bad
        with pytest.raises(SurrogateError, match=f"^{name} "):
            intrinsic_tests(pair, (S3,), analysis=CFG,
                            **{"n": 3, "master_seed": 0, "max_iter": 1000,
                               "workers": 1, "delta_alpha_original": 0.1,
                               **bad})

    @pytest.mark.parametrize("budget", [None, 400, 1200])
    def test_chunking_and_workers_do_not_change_result(self, monkeypatch,
                                                       budget):
        pair = make_pair(_ar1(400, 0.4, 15), _ar1(400, 0.4, 16))
        want = _ensemble(pair, (1, 2, 3), 7, 41, workers=1)
        if budget is not None:  # 1 or 3 rows per IAAFT batch
            monkeypatch.setattr(sg, "_BATCH_ELEMENTS", budget)
        for workers in (1, 2, 3):
            got = _ensemble(pair, (1, 2, 3), 7, 41, workers=workers)
            for a, b in zip(got, want):
                for field in dataclasses.fields(a):
                    assert np.array_equal(getattr(a, field.name),
                                          getattr(b, field.name)), field.name

    @pytest.mark.parametrize("n, sides, length, workers", [
        (6, 2, 6065, 1), (6, 2, 6065, 2), (1000, 2, 6065, 3), (10, 2, 65536, 2),
        (3, 1, 65536, 4), (5, 1, 100, 1),
    ])
    def test_member_chunks(self, n, sides, length, workers):
        chunks = sg._member_chunks(n, sides, length, workers)
        assert [k for ks in chunks for k in ks] == list(range(n))
        assert len(chunks) >= min(workers, n)
        per_batch = max(1, sg._batch_rows(length) // sides)
        assert max(len(ks) for ks in chunks) <= per_batch

    def test_worker_count_does_not_change_result(self):
        pair = make_pair(_ar1(400, 0.4, 3), _ar1(400, 0.4, 4))
        [a] = _ensemble(pair, (S3,), 6, 77, workers=1)
        [b] = _ensemble(pair, (S3,), 6, 77, workers=3)
        assert a.p_value == b.p_value
        assert a.mean_surrogate_width == b.mean_surrogate_width
        np.testing.assert_array_equal(a.widths, b.widths)
        np.testing.assert_array_equal(a.h_mean, b.h_mean)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_shared_bank_matches_per_scheme_oracle(self, workers):
        pair = make_pair(_ar1(400, 0.4, 13), _ar1(400, 0.4, 14))
        reports = _ensemble(pair, (1, 2, 3), 5, 31, workers=workers)
        assert [r.scheme for r in reports] == [S1, S2, S3]
        for rep in reports:
            ref = oracle.intrinsic_test(pair, rep.scheme, 5, 31, CFG)
            for field in dataclasses.fields(rep):
                got, want = getattr(rep, field.name), getattr(ref, field.name)
                assert np.array_equal(got, want), (rep.scheme, field.name)

    @pytest.mark.parametrize("schemes, per_member", [
        ((S1, S2, S3), 2), ((S3,), 2), ((S1,), 1), ((S2,), 1), ((S1, S2), 2),
    ])
    def test_each_surrogate_built_once(self, monkeypatch, schemes, per_member):
        pair = make_pair(_ar1(256, 0.5, 1), _ar1(256, 0.5, 2))
        built = {"rows": 0}
        real = sg.iaaft_rows

        def counting(rows, seeds, max_iter):
            built["rows"] += len(rows)
            return real(rows, seeds, max_iter)

        monkeypatch.setattr(sg, "iaaft_rows", counting)
        monkeypatch.setattr(sg, "_member_spectra", _per_pair(
            lambda xv, yv, config: _fake_spectrum(0.5)))
        n = 4
        _ensemble(pair, schemes, n, 0, workers=1, delta_alpha_original=0.1)
        assert built["rows"] == per_member * n

    def test_member_surrogates_detrended_once(self, monkeypatch):
        # one chunk, one DMA pass: each original that a scheme keeps and
        # each surrogate is detrended exactly once per scale, however
        # many members and schemes use it
        pair = make_pair(_ar1(400, 0.4, 5), _ar1(400, 0.4, 6))
        calls = {"n": 0}
        real = dma.residuals

        def counting(*args, **kw):
            calls["n"] += 1
            return real(*args, **kw)

        monkeypatch.setattr(dma, "residuals", counting)
        n = 5
        assert len(sg._member_chunks(n, 2, pair.n, 1)) == 1
        for schemes, per_scale in (((S1, S2, S3), 2 + 2 * n), ((S1,), 1 + n),
                                   ((S3,), 2 * n)):
            calls["n"] = 0
            _ensemble(pair, schemes, n, 3, workers=1, delta_alpha_original=0.1)
            assert calls["n"] == per_scale * CFG.scales().size, schemes

    def test_report_invariants(self):
        pair = make_pair(_ar1(400, 0.4, 5), _ar1(400, 0.4, 6))
        [report] = _ensemble(pair, (S1,), 5, 3)
        exceed = int(np.sum(report.widths > report.delta_alpha_original))
        assert report.p_value == exceed / report.n_surrogates
        assert 0.0 <= report.p_value <= 1.0
        assert report.n_surrogates == 5
        assert report.h_mean.size == CFG.q_grid.size
