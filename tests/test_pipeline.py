import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_series_csv
from mfxdma import cli, dma, pipeline, series, synth
from mfxdma.dma import DmaConfig, DmaError, FluctuationSurface
from mfxdma.multifractal import TauNonlinearityReport
from mfxdma.pipeline import (AnalysisBundle, PipelineError, RunConfig,
                             run_analysis, write_bundle)
from mfxdma.stats import PolyFitReport, QccReport
from mfxdma.surrogate import SurrogateScheme


def _fgn_csv(tmp_path, name, n, seed, hurst=0.5):
    levels = np.exp(0.01 * np.cumsum(synth.fgn(n, hurst, seed)))
    return write_series_csv(tmp_path / name, np.concatenate([[1.0], levels]))


def _config(tmp_path, **kw):
    defaults = dict(
        input_x=str(_fgn_csv(tmp_path, "x.csv", 1500, 100)),
        input_y=str(_fgn_csv(tmp_path, "y.csv", 1500, 101)),
        master_seed=5,
        out_dir=str(tmp_path / "out"),
        scale_min=8,
        scale_max=120,
        n_scales=10,
        n_surrogates=0,
        qcc_m_max=50,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRunConfig:
    def test_default_q_grid(self):
        cfg = RunConfig(input_x="a", input_y="b", master_seed=0)
        q = cfg.q_grid
        assert q.size == 41
        assert q[0] == -5.0 and q[-1] == 5.0
        assert 0.0 in q and 2.0 in q

    def test_bad_q_range(self):
        with pytest.raises(DmaError, match="q_step"):
            RunConfig(input_x="a", input_y="b", master_seed=0, q_step=0.3)

    @pytest.mark.parametrize("field, value", [
        ("q_min", -math.inf), ("q_max", math.inf), ("q_step", math.nan),
    ])
    def test_non_finite_q_bound_named(self, field, value):
        with pytest.raises(DmaError, match=field):
            RunConfig(**{"input_x": "a", "input_y": "b", "master_seed": 0,
                         field: value})

    @pytest.mark.parametrize("field, value", [
        ("scale_max", 300.5), ("n_scales", 30.5)])
    def test_dma_settings_checked_when_built(self, field, value):
        # so no run starts with them, even one whose stages never detrend
        with pytest.raises(DmaError, match=field):
            RunConfig(**{"input_x": "a", "input_y": "b", "master_seed": 0,
                         field: value})

    def test_dma_config_mirrors_fields(self):
        cfg = RunConfig(input_x="a", input_y="b", master_seed=0,
                        theta=0.25, scale_min=12, scale_max=200, n_scales=7,
                        use_profile=False)
        assert isinstance(cfg, DmaConfig)
        assert cfg.theta == 0.25
        assert cfg.scale_min == 12 and cfg.scale_max == 200 and cfg.n_scales == 7
        assert not cfg.use_profile

    def test_schemes_converted_and_deduplicated(self):
        cfg = RunConfig(input_x="a", input_y="b", master_seed=0,
                        schemes=(3, SurrogateScheme.IAAFT_X_ORIG_Y, 3, 1))
        assert cfg.schemes == (SurrogateScheme.IAAFT_X_IAAFT_Y,
                               SurrogateScheme.IAAFT_X_ORIG_Y)

    def test_empty_schemes_rejected_with_surrogates(self):
        with pytest.raises(PipelineError, match="schemes"):
            RunConfig(input_x="a", input_y="b", master_seed=0, schemes=(),
                      n_surrogates=2)
        # nothing to run, nothing to name
        RunConfig(input_x="a", input_y="b", master_seed=0, schemes=(),
                  n_surrogates=0)

    @pytest.mark.parametrize("field, value", [
        ("workers", 0),
        ("n_surrogates", -3),
        ("iaaft_max_iter", 0),
        ("qcc_m_max", 0),
        ("master_seed", -1),
        ("master_seed", 1.5),
        ("workers", 1.5),
        ("n_surrogates", 2.5),
        ("iaaft_max_iter", 2.5),
        ("qcc_m_max", 10.5),
        ("workers", True),
        ("n_surrogates", True),
        ("significance_level", 0.0),
        ("significance_level", 1.5),
    ])
    def test_bad_numbers_rejected(self, field, value):
        with pytest.raises(PipelineError, match=field):
            RunConfig(**{"input_x": "a", "input_y": "b", "master_seed": 0,
                         field: value})


class TestRunAnalysis:
    def test_stages_and_files_without_surrogates(self, tmp_path):
        config = _config(tmp_path)
        bundle = run_analysis(config)
        assert [s.name for s in bundle.stages] == ["qcc", "spectrum", "tau_fit"]
        assert bundle.complete
        out = Path(config.out_dir)
        for name in ("qcc.csv", "spectrum.csv", "tau_fit.csv",
                     "summary.json", "provenance.json"):
            assert (out / name).exists(), name
        assert not list(out.glob("surrogate_*.csv"))
        assert (out / "figdata" / "fluctuation.csv").exists()

    def test_surrogate_stage_runs(self, tmp_path):
        config = _config(tmp_path, n_surrogates=3,
                         schemes=(SurrogateScheme.IAAFT_X_IAAFT_Y,))
        bundle = run_analysis(config)
        assert [s.name for s in bundle.stages] == [
            "qcc", "spectrum", "tau_fit", "surrogates"]
        assert len(bundle.surrogate_tests) == 1
        out = Path(config.out_dir)
        assert (out / "surrogate_iaaft_x_iaaft_y.csv").exists()
        assert (out / "figdata" / "width_hist_iaaft_x_iaaft_y.csv").exists()

    def test_failed_scheme_keeps_other_schemes(self, tmp_path, monkeypatch,
                                               capsys):
        from mfxdma import surrogate

        real = surrogate._member_spectra
        config = _config(tmp_path, n_surrogates=2)
        pair = pipeline.load_pair(config)

        def fail_scheme2(series, pairs, config):
            # original x: scheme 2
            return [dma.DegenerateSegmentError("segment 0 degenerate")
                    if np.array_equal(series[i], pair.x.values) else spectrum
                    for (i, _), spectrum in zip(pairs,
                                                real(series, pairs, config))]

        monkeypatch.setattr(surrogate, "_member_spectra", fail_scheme2)
        bundle = run_analysis(config)
        assert not bundle.stages[-1].ok
        assert bundle.stages[-1].error.startswith("EnsembleFailedError")
        assert [r.scheme for r in bundle.surrogate_tests] == [
            SurrogateScheme.IAAFT_X_ORIG_Y, SurrogateScheme.IAAFT_X_IAAFT_Y]
        out = Path(config.out_dir)
        assert sorted(p.name for p in out.glob("surrogate_*.csv")) == [
            "surrogate_iaaft_x_iaaft_y.csv", "surrogate_iaaft_x_orig_y.csv"]
        # the same run from the command line: the stage failed, exit 2
        cli_out = tmp_path / "cli"
        assert cli.main(["analyze", "--x", config.input_x,
                         "--y", config.input_y, "--seed", "5",
                         "--surrogates", "2", "--schemes", "1,2,3",
                         "--scale-min", "8", "--scale-max", "120",
                         "--n-scales", "10", "--qcc-m-max", "50",
                         "--out", str(cli_out)]) == 2
        for name in ("surrogate_iaaft_x_orig_y.csv",
                     "surrogate_iaaft_x_iaaft_y.csv"):
            assert (cli_out / name).read_bytes() == (out / name).read_bytes()
        prov = json.loads((cli_out / "provenance.json").read_text())
        assert prov["stages"][-1]["name"] == "surrogates"
        assert not prov["stages"][-1]["ok"]

    def test_integer_schemes_write_provenance(self, tmp_path):
        config = _config(tmp_path, n_surrogates=2, schemes=(3, 1))
        bundle = run_analysis(config)
        assert bundle.complete
        prov = json.loads((Path(config.out_dir) / "provenance.json").read_text())
        assert prov["config"]["schemes"] == ["IAAFT_X_IAAFT_Y", "IAAFT_X_ORIG_Y"]
        assert [r.scheme for r in bundle.surrogate_tests] == [
            SurrogateScheme.IAAFT_X_IAAFT_Y, SurrogateScheme.IAAFT_X_ORIG_Y]

    def test_repeated_scheme_runs_once(self, tmp_path):
        s1 = SurrogateScheme.IAAFT_X_ORIG_Y
        bundle = run_analysis(_config(tmp_path, n_surrogates=2,
                                      schemes=(s1, s1)))
        assert [r.scheme for r in bundle.surrogate_tests] == [s1]

    def test_skipping_surrogates_leaves_other_numbers_alone(self, tmp_path):
        c1 = _config(tmp_path, out_dir=str(tmp_path / "o1"))
        run_analysis(c1)
        c2 = _config(tmp_path, out_dir=str(tmp_path / "o2"), n_surrogates=2,
                     schemes=(SurrogateScheme.IAAFT_X_ORIG_Y,))
        run_analysis(c2)
        for name in ("qcc.csv", "spectrum.csv", "tau_fit.csv"):
            a = (tmp_path / "o1" / name).read_bytes()
            b = (tmp_path / "o2" / name).read_bytes()
            assert a == b, name

    def test_invocation_count(self, tmp_path, monkeypatch):
        from mfxdma import surrogate

        # spectra: one per analyze_pair call, one per pair of a chunk;
        # one _member_spectra call per chunk of members
        calls = {"n": 0, "chunks": 0}
        real_pair = dma.analyze_pair
        real_member = surrogate._member_spectra

        def counting_pair(*args, **kw):
            calls["n"] += 1
            return real_pair(*args, **kw)

        def counting_member(series, pairs, config):
            calls["n"] += len(pairs)
            calls["chunks"] += 1
            return real_member(series, pairs, config)

        monkeypatch.setattr(dma, "analyze_pair", counting_pair)
        monkeypatch.setattr(surrogate, "_member_spectra", counting_member)
        n, schemes = 3, tuple(SurrogateScheme)
        config = _config(tmp_path, n_surrogates=n, schemes=schemes, workers=2)
        run_analysis(config, write=False)
        assert calls["n"] == n * len(schemes) + 1
        length = pipeline.load_pair(config).n
        assert calls["chunks"] == len(surrogate._member_chunks(n, 2, length, 2))

    def test_stage_failure_recorded_not_fatal(self, tmp_path):
        # a 3-point q grid is enough for the spectrum but too short for
        # the quadratic fit, so exactly one stage fails
        config = _config(tmp_path, q_min=0.0, q_max=2.0, q_step=1.0)
        bundle = run_analysis(config)
        assert [s.ok for s in bundle.stages] == [True, True, False]
        assert not bundle.complete
        assert bundle.tau_fit is None and bundle.spectrum is not None
        assert "points" in bundle.stages[2].error

    def test_stage_selection(self, tmp_path):
        # 500 returns: the default scale_max 316 exceeds N/4, which only
        # a run that detrends checks
        config = _config(tmp_path,
                         input_x=str(_fgn_csv(tmp_path, "x500.csv", 500, 100)),
                         input_y=str(_fgn_csv(tmp_path, "y500.csv", 500, 101)),
                         scale_max=316, n_surrogates=2)
        bundle = run_analysis(config, write=False, stages=("qcc",))
        assert [s.name for s in bundle.stages] == ["qcc"]
        assert bundle.qcc is not None and bundle.spectrum is None
        with pytest.raises(dma.DmaError, match="N/4"):
            run_analysis(config, write=False, stages=("qcc", "spectrum"))
        with pytest.raises(PipelineError, match="unknown stage 'hurst'"):
            run_analysis(config, write=False, stages=("qcc", "hurst"))

    def test_file_named_on_both_sides_read_once(self, tmp_path, monkeypatch):
        x = _fgn_csv(tmp_path, "x.csv", 1500, 100)
        (tmp_path / "copy").mkdir()
        copy = tmp_path / "copy" / "x.csv"
        copy.write_bytes(x.read_bytes())
        read = []
        real = series.load_csv

        def counting(path, *args, **kw):
            read.append(path)
            return real(path, *args, **kw)

        monkeypatch.setattr(series, "load_csv", counting)
        monkeypatch.chdir(tmp_path)
        # one absolute path, spelled two ways: one read
        once = _config(tmp_path, input_x=str(x), input_y="x.csv",
                       out_dir=str(tmp_path / "once"))
        read.clear()
        run_analysis(once)
        assert read == [str(x)]
        # the same bytes at another path: two reads, the same outputs
        twice = _config(tmp_path, input_x=str(x), input_y=str(copy),
                        out_dir=str(tmp_path / "twice"))
        read.clear()
        run_analysis(twice)
        assert read == [str(x), str(copy)]
        files = sorted(p.relative_to(tmp_path / "once")
                       for p in (tmp_path / "once").rglob("*.*"))
        assert files == sorted(p.relative_to(tmp_path / "twice")
                               for p in (tmp_path / "twice").rglob("*.*"))
        for name in files:
            a = (tmp_path / "once" / name).read_bytes()
            b = (tmp_path / "twice" / name).read_bytes()
            if name.name == "provenance.json":
                a, b = json.loads(a), json.loads(b)
                for prov in (a, b):
                    del prov["runtime"], prov["config"]["input_y"]
            assert a == b, name

    def test_standardize(self, tmp_path):
        config = _config(tmp_path, standardize=True)
        pair = pipeline.load_pair(config)
        assert abs(pair.x.values.mean()) < 1e-12
        assert abs(pair.x.values.std() - 1.0) < 1e-12


class TestEmitPlotData:
    def _bundle(self, tmp_path, n_surrogates=4):
        config = _config(tmp_path, n_surrogates=n_surrogates)
        return run_analysis(config, write=False)

    def test_fluctuation_shape(self, tmp_path):
        bundle = self._bundle(tmp_path, n_surrogates=0)
        write_bundle(bundle, tmp_path / "run")
        out = tmp_path / "run" / "figdata"
        lines = (out / "fluctuation.csv").read_text().splitlines()
        n_scales = bundle.surface.scales.size
        assert len(lines) == 1 + n_scales * bundle.surface.q_grid.size

    def test_band_schema(self, tmp_path):
        bundle = self._bundle(tmp_path)
        write_bundle(bundle, tmp_path / "run")
        out = tmp_path / "run" / "figdata"
        header = (out / "hurst_bands.csv").read_text().splitlines()[0]
        assert header == ("q,H_orig,H_mean_s1,H_std_s1,H_mean_s2,H_std_s2,"
                          "H_mean_s3,H_std_s3")
        spec_header = (out / "spectrum_bands.csv").read_text().splitlines()[0]
        assert spec_header.startswith("q,alpha_orig,f_orig,alpha_mean_s1")

    def test_histogram_conservation(self, tmp_path):
        bundle = self._bundle(tmp_path)
        write_bundle(bundle, tmp_path / "run")
        out = tmp_path / "run" / "figdata"
        for rep in bundle.surrogate_tests:
            path = out / f"width_hist_{rep.scheme.name.lower()}.csv"
            rows = path.read_text().splitlines()[1:]
            assert len(rows) == 30
            total = sum(int(r.split(",")[2]) for r in rows)
            assert total == rep.n_surrogates

    def test_tau_deviation_columns(self, tmp_path):
        bundle = self._bundle(tmp_path)
        write_bundle(bundle, tmp_path / "run")
        out = tmp_path / "run" / "figdata"
        header = (out / "tau_deviation.csv").read_text().splitlines()[0]
        assert header == "q,tau_dev_s1,tau_dev_s2,tau_dev_s3"


class TestOutputFormat:
    """The exact bytes of the tables, from a bundle built by hand."""

    def _bundle(self, **stages):
        return AnalysisBundle(
            config=RunConfig(input_x="a.csv", input_y="b.csv", master_seed=0),
            pair_label="a-b", **stages)

    def test_write_bundle_bytes(self, tmp_path):
        qcc = QccReport(m_values=np.array([1, 2, 3]),
                        qcc=np.array([0.1, -0.0, 1e-05]),
                        critical=np.array([1e16, np.inf, np.nan]),
                        significance_level=0.05,
                        reject=np.array([True, False, True]))
        fit = PolyFitReport(coefficients=np.array([0.1, -0.0, 1e-05]),
                            std_errors=np.array([1e16, np.inf, np.nan]),
                            t_stats=np.array([-np.inf, 3.0, 0.0]),
                            t_pvalues=np.array([0.5, 1.0, np.nan]),
                            f_stat=1e16, f_pvalue=np.float64(-0.0),
                            r_squared=0.1)
        tau_fit = TauNonlinearityReport(fit=fit, significance_level=0.05,
                                        multifractal_flag=False)
        write_bundle(self._bundle(qcc=qcc, tau_fit=tau_fit), tmp_path)
        assert (tmp_path / "qcc.csv").read_bytes() == (
            b"m,qcc,critical,reject\n"
            b"1,0.1,1e+16,true\n"
            b"2,-0.0,inf,false\n"
            b"3,1e-05,nan,true\n")
        assert (tmp_path / "tau_fit.csv").read_bytes() == (
            b"a0,a1,a2,se0,se1,se2,t0,t1,t2,p0,p1,p2,f_stat,f_pvalue,"
            b"r_squared,multifractal_flag\n"
            b"0.1,-0.0,1e-05,1e+16,inf,nan,-inf,3.0,0.0,0.5,1.0,nan,1e+16,"
            b"-0.0,0.1,false\n")
        assert (tmp_path / "summary.json").read_bytes() == (
            b'{\n'
            b'  "pair": "a-b",\n'
            b'  "qcc": {\n'
            b'    "level": 0.05,\n'
            b'    "n_lags": 3,\n'
            b'    "n_reject": 2\n'
            b'  },\n'
            b'  "tau_fit": {\n'
            b'    "a2": 1e-05,\n'
            b'    "a2_pvalue": NaN,\n'
            b'    "multifractal_flag": false\n'
            b'  }\n'
            b'}\n')
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "qcc.csv", "summary.json", "tau_fit.csv"]

    def test_fluctuation_row_order(self, tmp_path):
        surface = FluctuationSurface(
            scales=np.array([4, 8]), q_grid=np.array([-1.0, 0.0, 2.0]),
            values=np.array([[1.0, 2.0], [1.5, 2.5], [2.0, 3.0]]))
        write_bundle(self._bundle(surface=surface), tmp_path)
        # q outer, s inner
        assert (tmp_path / "figdata" / "fluctuation.csv").read_text() == (
            "q,s,F\n"
            "-1.0,4,1.0\n"
            "-1.0,8,2.0\n"
            "0.0,4,1.5\n"
            "0.0,8,2.5\n"
            "2.0,4,2.0\n"
            "2.0,8,3.0\n")
        assert [p.name for p in (tmp_path / "figdata").iterdir()] == [
            "fluctuation.csv"]

    def test_text_cells_quoted(self, tmp_path):
        pipeline._write_csv(tmp_path / "t.csv", {
            "pair": ["a,b", 'say "hi"', "plain", "two\nlines"],
            "n": [1, 2, 3, 4]})
        raw = (tmp_path / "t.csv").read_text()
        assert raw == ('pair,n\n"a,b",1\n"say ""hi""",2\nplain,3\n'
                       '"two\nlines",4\n')
        with open(tmp_path / "t.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == [
                ["a,b", "1"], ['say "hi"', "2"], ["plain", "3"],
                ["two\nlines", "4"]]


class TestCli:
    def test_analyze_end_to_end(self, tmp_path, capsys):
        cascade = tmp_path / "c.csv"
        rc = cli.main(["synth", "cascade", "--p", "0.3", "--levels", "12",
                       "--out", str(cascade)])
        assert rc == 0
        out = tmp_path / "run"
        rc = cli.main(["analyze", "--x", str(cascade), "--y", str(cascade),
                       "--seed", "1", "--surrogates", "4",
                       "--scale-min", "16", "--scale-max", "512",
                       "--out", str(out)])
        assert rc == 0
        rows = (out / "spectrum.csv").read_text().splitlines()[1:]
        by_q = {float(r.split(",")[0]): float(r.split(",")[2]) for r in rows}
        assert abs(by_q[2.0] - synth.analytic_cascade_tau(2.0, 0.3)) < 0.1

    def test_missing_inputs_is_usage_error(self, capsys):
        assert cli.main(["analyze"]) == 1
        assert capsys.readouterr().err == (
            "mfxdma: error: missing input series (--x)\n")

    def test_option_strings_per_subcommand(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        inputs = ["--x", "--y", "--date-column", "--value-column",
                  "--standardize"]
        dma_flags = ["--theta", "--q-min", "--q-max", "--q-step",
                     "--scale-min", "--scale-max", "--n-scales", "--no-profile"]
        ensemble = ["--seed", "--surrogates", "--schemes", "--iaaft-max-iter",
                    "--workers"]
        expected = {
            "analyze": [*inputs, *dma_flags, *ensemble, "--out", "--config",
                        "--level", "--qcc-m-max"],
            "qcc": [*inputs, "--m-max", "--level", "--out"],
            "spectrum": [*inputs, *dma_flags, "--level", "--out"],
            "surrogate-test": [*inputs, *dma_flags, *ensemble, "--out"],
        }
        assert len(expected["analyze"]) == 22
        for name, flags in expected.items():
            got = [s for a in sub.choices[name]._actions
                   for s in a.option_strings if s not in ("-h", "--help")]
            assert sorted(got) == sorted(flags), name

    def test_run_config_error_is_one_line(self, tmp_path, capsys):
        x = _fgn_csv(tmp_path, "x.csv", 400, 1)
        y = _fgn_csv(tmp_path, "y.csv", 400, 2)
        assert cli.main(["analyze", "--x", str(x), "--y", str(y),
                         "--seed", "1", "--workers", "0"]) == 1
        assert capsys.readouterr().err == (
            "mfxdma: error: workers must be >= 1, got 0\n")

    def test_missing_input_file_is_one_line(self, tmp_path, capsys):
        x = _fgn_csv(tmp_path, "x.csv", 400, 1)
        missing = tmp_path / "nope.csv"
        assert cli.main(["qcc", "--x", str(x), "--y", str(missing)]) == 1
        assert capsys.readouterr().err == (
            f"mfxdma: error: input file not found: {missing}\n")

    def test_unreadable_input_is_one_line(self, tmp_path, capsys):
        y = _fgn_csv(tmp_path, "y.csv", 400, 2)
        assert cli.main(["qcc", "--x", str(tmp_path), "--y", str(y)]) == 1
        assert capsys.readouterr().err == (
            f"mfxdma: error: cannot read input file {tmp_path}: "
            "Is a directory\n")

    def test_label_with_comma_reads_back(self, tmp_path, capsys):
        x = _fgn_csv(tmp_path, "wheat,spot.csv", 600, 11)
        y = _fgn_csv(tmp_path, "y.csv", 600, 12)
        out = tmp_path / "o"
        assert cli.main(["analyze", "--x", str(x), "--y", str(y),
                         "--seed", "2", "--surrogates", "2", "--schemes", "3",
                         "--scale-min", "8", "--scale-max", "120",
                         "--n-scales", "8", "--qcc-m-max", "20",
                         "--out", str(out)]) == 0
        paths = sorted(out.rglob("*.csv"))
        assert len(paths) == 10
        for path in paths:
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert all(len(row) == len(header) for row in rows), path.name
        with open(out / "surrogate_iaaft_x_iaaft_y.csv", newline="") as fh:
            assert list(csv.DictReader(fh))[0]["pair"] == "wheat,spot-y"

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["analyze", "--nonsense"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: mfxdma")
        assert err.count("unrecognized arguments: --nonsense") == 1

    @pytest.mark.parametrize("argv, message", [
        ([], "choose a command"),
        (["synth"], "choose a generator: fgn or cascade"),
    ])
    def test_missing_command_is_usage_error(self, capsys, argv, message):
        assert cli.main(argv) == 1
        assert f"mfxdma: error: {message}\n" in capsys.readouterr().err

    def test_unknown_scheme_names_flag(self, tmp_path, capsys):
        x = _fgn_csv(tmp_path, "x.csv", 400, 1)
        y = _fgn_csv(tmp_path, "y.csv", 400, 2)
        assert cli.main(["surrogate-test", "--x", str(x), "--y", str(y),
                         "--seed", "1", "--schemes", "7"]) == 1
        assert ("mfxdma: error: argument --schemes: unknown scheme '7'\n"
                in capsys.readouterr().err)

    def test_seed_required_with_surrogates(self, tmp_path, capsys):
        x = _fgn_csv(tmp_path, "x.csv", 400, 1)
        y = _fgn_csv(tmp_path, "y.csv", 400, 2)
        rc = cli.main(["analyze", "--x", str(x), "--y", str(y)])
        assert rc == 1
        assert ("--seed is required when surrogates are generated"
                in capsys.readouterr().err)

    def test_seed_optional_without_surrogates(self, tmp_path, capsys):
        x = _fgn_csv(tmp_path, "x.csv", 600, 1)
        y = _fgn_csv(tmp_path, "y.csv", 600, 2)
        rc = cli.main(["analyze", "--x", str(x), "--y", str(y),
                       "--surrogates", "0", "--scale-min", "8",
                       "--scale-max", "120", "--n-scales", "8",
                       "--qcc-m-max", "20", "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_config_file_key_value(self, tmp_path, capsys):
        x = _fgn_csv(tmp_path, "x.csv", 600, 3)
        y = _fgn_csv(tmp_path, "y.csv", 600, 4)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"input_x={x}\ninput_y={y}\nn_surrogates=0\nscale_min=8\n"
            f"scale_max=120\nn_scales=8\nqcc_m_max=20\n"
            f"out_dir={tmp_path / 'oc'}\n# a comment\n")
        assert cli.main(["analyze", "--config", str(cfgfile)]) == 0
        prov = json.loads((tmp_path / "oc" / "provenance.json").read_text())
        assert prov["config"]["scale_max"] == 120

    def test_config_json_with_flag_override(self, tmp_path, capsys):
        x = _fgn_csv(tmp_path, "x.csv", 600, 5)
        y = _fgn_csv(tmp_path, "y.csv", 600, 6)
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "input_x": str(x), "input_y": str(y), "n_surrogates": 0,
            "scale_min": 8, "scale_max": 100, "n_scales": 8,
            "qcc_m_max": 20, "out_dir": str(tmp_path / "oj")}))
        # explicit flag wins over the config file
        assert cli.main(["analyze", "--config", str(cfgfile),
                         "--scale-max", "110"]) == 0
        prov = json.loads((tmp_path / "oj" / "provenance.json").read_text())
        assert prov["config"]["scale_max"] == 110

    def test_unknown_config_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("frobnicate=1\n")
        assert cli.main(["analyze", "--config", str(cfgfile)]) == 1
        assert (f"{cfgfile}: unknown config key 'frobnicate'"
                in capsys.readouterr().err)

    def test_missing_config_file_named(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.cfg"
        assert cli.main(["analyze", "--config", str(missing)]) == 1
        assert (f"mfxdma: error: cannot read config file {missing}"
                in capsys.readouterr().err)

    def _json_config(self, tmp_path, **kw):
        x = _fgn_csv(tmp_path, "x.csv", 600, 5)
        y = _fgn_csv(tmp_path, "y.csv", 600, 6)
        doc = {"input_x": str(x), "input_y": str(y), "n_surrogates": 0,
               "scale_min": 8, "scale_max": 100, "n_scales": 8,
               "qcc_m_max": 20, "out_dir": str(tmp_path / "oj"), **kw}
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(doc))
        return cfgfile

    @pytest.mark.parametrize("key, value", [
        ("n_surrogates", "abc"), ("scale_max", 100.5), ("theta", "half"),
        ("standardize", "maybe"), ("schemes", "7"),
        # null is a value only for workers; it once became the text "None"
        ("out_dir", None), ("input_x", None), ("n_scales", None),
    ])
    def test_bad_config_value_names_file_and_key(self, tmp_path, capsys,
                                                 monkeypatch, key, value):
        monkeypatch.chdir(tmp_path)
        cfgfile = self._json_config(tmp_path, **{key: value})
        assert cli.main(["analyze", "--config", str(cfgfile)]) == 1
        assert f"mfxdma: error: {cfgfile}: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "oj").exists()
        assert not (tmp_path / "None").exists()

    def test_null_workers_means_default(self, tmp_path, capsys):
        cfgfile = self._json_config(tmp_path, workers=None)
        assert cli.main(["analyze", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "oj" / "provenance.json").exists()

    def test_qcc_subcommand(self, tmp_path, capsys):
        x = _fgn_csv(tmp_path, "x.csv", 500, 7)
        y = _fgn_csv(tmp_path, "y.csv", 500, 8)
        rc = cli.main(["qcc", "--x", str(x), "--y", str(y), "--m-max", "20",
                       "--out", str(tmp_path / "q")])
        assert rc == 0
        assert (tmp_path / "q" / "qcc.csv").exists()
        assert "lag depths significant" in capsys.readouterr().out

    def test_spectrum_subcommand(self, tmp_path, capsys):
        x = _fgn_csv(tmp_path, "x.csv", 600, 9)
        y = _fgn_csv(tmp_path, "y.csv", 600, 10)
        rc = cli.main(["spectrum", "--x", str(x), "--y", str(y),
                       "--scale-min", "8", "--scale-max", "120",
                       "--n-scales", "8", "--out", str(tmp_path / "s")])
        assert rc == 0
        assert (tmp_path / "s" / "spectrum.csv").exists()
        assert "delta_alpha=" in capsys.readouterr().out

    def test_spectrum_subcommand_keeps_spectrum_when_tau_fit_fails(
            self, tmp_path, capsys):
        # a 3-point q grid is enough for the spectrum but too short for
        # the quadratic fit
        x = _fgn_csv(tmp_path, "x.csv", 600, 9)
        y = _fgn_csv(tmp_path, "y.csv", 600, 10)
        out = tmp_path / "s"
        rc = cli.main(["spectrum", "--x", str(x), "--y", str(y),
                       "--scale-min", "8", "--scale-max", "120",
                       "--n-scales", "8", "--q-min", "0", "--q-max", "2",
                       "--q-step", "1", "--out", str(out)])
        assert rc == 2
        assert len((out / "spectrum.csv").read_text().splitlines()) == 4
        assert not (out / "tau_fit.csv").exists()
        assert "tau_fit=failed" in capsys.readouterr().out

    def test_surrogate_test_subcommand(self, tmp_path, capsys):
        x = _fgn_csv(tmp_path, "x.csv", 600, 11)
        y = _fgn_csv(tmp_path, "y.csv", 600, 12)
        rc = cli.main(["surrogate-test", "--x", str(x), "--y", str(y),
                       "--seed", "2", "--surrogates", "3", "--schemes", "3",
                       "--scale-min", "8", "--scale-max", "120",
                       "--n-scales", "8", "--out", str(tmp_path / "t")])
        assert rc == 0
        assert (tmp_path / "t" / "surrogate_iaaft_x_iaaft_y.csv").exists()

    def _flat_stretch_csvs(self, tmp_path):
        # returns 400-499 are zero on both sides, so every segment of
        # that stretch has zero cross-fluctuation
        paths = []
        for name, seed in (("x.csv", 13), ("y.csv", 14)):
            r = 0.01 * synth.fgn(1000, 0.5, seed)
            r[400:500] = 0.0
            levels = np.exp(np.cumsum(r))
            paths.append(str(write_series_csv(
                tmp_path / name, np.concatenate([[1.0], levels]))))
        return paths

    def test_runtime_stage_failure_exits_2(self, tmp_path, capsys):
        x, y = self._flat_stretch_csvs(tmp_path)
        flags = ["--x", x, "--y", y, "--scale-max", "100"]
        assert cli.main(["spectrum", *flags]) == 2
        assert cli.main(["surrogate-test", *flags, "--seed", "1",
                         "--surrogates", "2", "--schemes", "3"]) == 2
        assert cli.main(["analyze", *flags, "--surrogates", "0",
                         "--out", str(tmp_path / "a")]) == 2

    def test_analyze_names_failed_stages(self, tmp_path, capsys):
        x, y = self._flat_stretch_csvs(tmp_path)
        out = tmp_path / "a"
        assert cli.main(["analyze", "--x", x, "--y", y, "--scale-max", "100",
                         "--surrogates", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().out == (
            f"wrote {out} (x-y) spectrum=failed tau_fit=failed\n")

    def test_config_validation_exits_1(self, tmp_path, capsys):
        x, y = self._flat_stretch_csvs(tmp_path)
        # scale_max above N/4 is rejected before any stage runs
        flags = ["--x", x, "--y", y, "--scale-max", "300"]
        assert cli.main(["spectrum", *flags]) == 1
        assert cli.main(["analyze", *flags, "--surrogates", "0"]) == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--workers", "0", "--surrogates", "2"],
        ["analyze", "--iaaft-max-iter", "0", "--surrogates", "2"],
        ["analyze", "--surrogates", "-3"],
        ["qcc", "--level", "1.5"],
        ["qcc", "--m-max", "0"],
        # the ensembles' verdicts come from p_value; surrogate-test takes
        # no level
        ["surrogate-test", "--level", "0.1", "--seed", "1", "--surrogates",
         "2", "--schemes", "3", "--scale-max", "100"],
        ["analyze", "--seed", "-1", "--surrogates", "2"],
        ["analyze", "--q-min=-inf", "--surrogates", "0"],
        # rounding leaves 3 distinct scales, 10, 11 and 12
        ["analyze", "--scale-min", "10", "--scale-max", "12",
         "--n-scales", "4", "--surrogates", "0"],
    ])
    def test_bad_run_config_exits_1_before_any_stage(self, tmp_path, capsys,
                                                     argv):
        x = _fgn_csv(tmp_path, "x.csv", 600, 11)
        y = _fgn_csv(tmp_path, "y.csv", 600, 12)
        out = tmp_path / "o"
        if argv[0] == "analyze":
            for flag, value in (("--seed", "1"), ("--scale-max", "100")):
                if flag not in argv:
                    argv = argv + [flag, value]
        assert cli.main([argv[0], "--x", str(x), "--y", str(y), *argv[1:],
                         "--out", str(out)]) == 1
        assert not out.exists()

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats costs about half a second of every start
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys; import mfxdma.cli; "
                "sys.exit('scipy.stats' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_failed_surrogate_ensemble_exits_2(self, tmp_path, capsys,
                                               monkeypatch):
        from mfxdma import surrogate

        def degenerate(series, pairs, config):
            return [dma.DegenerateSegmentError("segment 0 degenerate")
                    for _ in pairs]

        monkeypatch.setattr(surrogate, "_member_spectra", degenerate)
        x = _fgn_csv(tmp_path, "x.csv", 600, 11)
        y = _fgn_csv(tmp_path, "y.csv", 600, 12)
        assert cli.main(["surrogate-test", "--x", str(x), "--y", str(y),
                         "--seed", "2", "--surrogates", "2", "--schemes", "3",
                         "--scale-min", "8", "--scale-max", "120",
                         "--n-scales", "8"]) == 2
        # an ensemble size of 0 is a usage error, not a failed stage
        capsys.readouterr()
        assert cli.main(["surrogate-test", "--x", str(x), "--y", str(y),
                         "--seed", "2", "--surrogates", "0",
                         "--scale-min", "8", "--scale-max", "120",
                         "--n-scales", "8"]) == 1
        assert capsys.readouterr().err == (
            "mfxdma: error: surrogate-test needs --surrogates >= 1\n")

    def test_zero_variance_qcc_exits_2(self, tmp_path, capsys):
        # a constant level has only zero returns, which the qcc stage
        # rejects at run time, as it does under analyze
        x = str(write_series_csv(tmp_path / "x.csv", np.full(601, 3.0)))
        y = str(_fgn_csv(tmp_path, "y.csv", 600, 15))
        assert cli.main(["qcc", "--x", x, "--y", y, "--m-max", "20"]) == 2
        assert "qcc=failed" in capsys.readouterr().out
        assert cli.main(["analyze", "--x", x, "--y", y, "--surrogates", "0",
                         "--qcc-m-max", "20", "--scale-max", "100",
                         "--out", str(tmp_path / "a")]) == 2

    @pytest.mark.parametrize("argv, stages", [
        (["qcc"], ["qcc"]),
        (["spectrum", "--scale-min", "8", "--scale-max", "120",
          "--n-scales", "8"], ["spectrum", "tau_fit"]),
        (["surrogate-test", "--seed", "2", "--surrogates", "2",
          "--schemes", "3", "--scale-min", "8", "--scale-max", "120",
          "--n-scales", "8"], ["spectrum", "surrogates"]),
    ])
    def test_single_stage_runs_write_provenance(self, tmp_path, capsys,
                                                argv, stages):
        # 500 returns: qcc keeps the default scale_max 316 > N/4, which
        # only the stages that detrend check
        x = _fgn_csv(tmp_path, "x.csv", 500, 7)
        y = _fgn_csv(tmp_path, "y.csv", 500, 8)
        out = tmp_path / "o"
        assert cli.main([argv[0], "--x", str(x), "--y", str(y), *argv[1:],
                         "--out", str(out)]) == 0
        prov = json.loads((out / "provenance.json").read_text())
        assert [s["name"] for s in prov["stages"]] == stages
        assert all(s["ok"] for s in prov["stages"])

    @pytest.mark.parametrize("n, hurst", [(300, 0.6), (6065, 0.95)])
    def test_synth_fgn_roundtrip(self, tmp_path, capsys, n, hurst):
        out = tmp_path / "g.csv"
        assert cli.main(["synth", "fgn", "--n", str(n), "--hurst", str(hurst),
                         "--seed", "4", "--out", str(out)]) == 0
        assert out.read_text().startswith("date,value\n2000-01-01,1.0\n")
        from mfxdma.series import load_csv, log_returns

        returns = log_returns(load_csv(out))
        np.testing.assert_allclose(returns.values,
                                   0.01 * synth.fgn(n, hurst, 4), atol=1e-12)

    def test_synth_fgn_requires_seed(self, tmp_path, capsys):
        assert cli.main(["synth", "fgn", "--n", "300", "--hurst", "0.6",
                         "--out", str(tmp_path / "g.csv")]) == 1
        assert capsys.readouterr().err == (
            "mfxdma: error: --seed is required for fgn\n")

    # nan and inf are not scales; +-1000 overflow or underflow exp
    @pytest.mark.parametrize("scale", ["nan", "inf", "1000", "-1000"])
    def test_synth_bad_scale_named(self, tmp_path, capsys, scale):
        out = tmp_path / "g.csv"
        assert cli.main(["synth", "fgn", "--n", "300", "--hurst", "0.5",
                         "--seed", "1", f"--scale={scale}",
                         "--out", str(out)]) == 1
        assert "--scale" in capsys.readouterr().err
        assert not out.exists()

    # past 9999-12-31 the dates would be written as day counts, which no
    # loader reads back; a partial date or a time used to pass as a day
    @pytest.mark.parametrize("start", [
        "9999-06-01", "9998-11-27", "garbage", "2000-01", "2000-01-01T05",
        "2000-02-30", "NaT", "",
    ])
    def test_synth_bad_start_date_named(self, tmp_path, capsys, start):
        out = tmp_path / "g.csv"
        assert cli.main(["synth", "fgn", "--n", "400", "--hurst", "0.5",
                         "--seed", "1", f"--start-date={start}",
                         "--out", str(out)]) == 1
        assert ("--start-date must be a YYYY-MM-DD day"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_synth_start_date_up_to_last_day(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert cli.main(["synth", "fgn", "--n", "400", "--hurst", "0.5",
                         "--seed", "1", "--start-date", "9998-11-26",
                         "--out", str(out)]) == 0
        from mfxdma.series import load_csv

        assert str(load_csv(out).dates[-1]) == "9999-12-31"

    @pytest.mark.parametrize("generator", [
        ["fgn", "--n", "300", "--hurst", "0.5"],
        ["cascade", "--p", "0.3", "--levels", "8", "--shuffle"],
    ])
    def test_synth_negative_seed_named(self, tmp_path, capsys, generator):
        out = tmp_path / "g.csv"
        assert cli.main(["synth", *generator, "--seed", "-1",
                         "--out", str(out)]) == 1
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_scheme_parsing(self):
        assert cli._parse_schemes("1,3") == (
            SurrogateScheme.IAAFT_X_ORIG_Y, SurrogateScheme.IAAFT_X_IAAFT_Y)
        assert cli._parse_schemes("iaaft_x_iaaft_y") == (
            SurrogateScheme.IAAFT_X_IAAFT_Y,)
        with pytest.raises(cli._UsageError):
            cli._parse_schemes("7")


class TestProvenance:
    def test_runtime_fields_isolated(self, tmp_path):
        config = _config(tmp_path)
        run_analysis(config)
        prov = json.loads((Path(config.out_dir) / "provenance.json").read_text())
        assert "workers" in prov["runtime"]
        assert "out_dir" in prov["runtime"]
        assert "workers" not in prov["config"]
        assert "out_dir" not in prov["config"]
        assert prov["config"]["scale_min"] == 8
        assert prov["stages"][0]["name"] == "qcc"

    def test_durations_ignore_wall_clock_steps(self, tmp_path, monkeypatch):
        # a wall clock set back an hour at every reading
        clock = [0.0]

        def backwards():
            clock[0] -= 3600.0
            return clock[0]

        monkeypatch.setattr(pipeline.time, "time", backwards)
        config = _config(tmp_path)
        run_analysis(config)
        prov = json.loads((Path(config.out_dir) / "provenance.json").read_text())
        durations = [prov["runtime"]["wall_seconds"],
                     *prov["runtime"]["stage_seconds"].values()]
        assert len(durations) == 4
        assert all(d >= 0.0 for d in durations), durations
