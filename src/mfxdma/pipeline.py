"""End-to-end batch orchestration and report emission.

A run executes, in order, the stages it selects from: the lagged
cross-correlation significance test, the joint scaling analysis, the
quadratic mass-exponent fit, and the per-scheme surrogate ensembles.
Each stage failure is recorded and kills only that stage; everything
that completed is still serialized.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, dma, multifractal, series, stats, surrogate
from .dma import DmaConfig, FluctuationSurface, HurstCurve
from .multifractal import JointSpectrumResult, TauNonlinearityReport
from .series import AlignedPair
from .stats import QccReport
from .surrogate import SurrogateScheme, SurrogateTestReport

log = logging.getLogger(__name__)

REPORT_LEVELS = (0.05, 0.10)

# every stage of a run, in the order they run; a run selects a subset
ALL_STAGES = ("qcc", "spectrum", "tau_fit", "surrogates")


class PipelineError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one batch run; defaults follow the
    standard protocol (backward window, q in [-5,5] step 0.25, scales
    10..316, 1000 surrogates per scheme, lag depths up to 1000)."""

    input_x: str
    input_y: str
    master_seed: int
    out_dir: str = "mfxdma-out"
    theta: float = 0.0
    q_min: float = -5.0
    q_max: float = 5.0
    q_step: float = 0.25
    scale_min: int = 10
    scale_max: int = 316
    n_scales: int = 30
    n_surrogates: int = 1000
    schemes: tuple[SurrogateScheme, ...] = tuple(SurrogateScheme)
    significance_level: float = 0.05
    qcc_m_max: int = 1000
    standardize: bool = False
    use_profile: bool = True
    iaaft_max_iter: int = 1000
    date_column: str = "date"
    value_column: str = "value"
    workers: int | None = None

    def __post_init__(self):
        if self.workers is not None and self.workers < 1:
            raise PipelineError(f"workers must be >= 1, got {self.workers}")
        if self.n_surrogates < 0:
            raise PipelineError(
                f"n_surrogates must be >= 0, got {self.n_surrogates}")
        if self.iaaft_max_iter < 1:
            raise PipelineError(
                f"iaaft_max_iter must be >= 1, got {self.iaaft_max_iter}")
        if self.qcc_m_max < 1:
            raise PipelineError(f"qcc_m_max must be >= 1, got {self.qcc_m_max}")
        if not (0.0 < self.significance_level < 1.0):
            raise PipelineError("significance_level must lie in (0, 1), got "
                                f"{self.significance_level}")

    def q_grid(self) -> np.ndarray:
        if self.q_step <= 0:
            raise PipelineError(f"q_step must be positive, got {self.q_step}")
        span = self.q_max - self.q_min
        steps = int(round(span / self.q_step))
        if steps < 2 or abs(span - steps * self.q_step) > 1e-9:
            raise PipelineError(
                f"q range [{self.q_min}, {self.q_max}] is not a whole number of q_step"
            )
        return np.round(self.q_min + self.q_step * np.arange(steps + 1), 12)

    def dma_config(self) -> DmaConfig:
        return DmaConfig(
            theta=self.theta,
            scale_min=self.scale_min,
            scale_max=self.scale_max,
            n_scales=self.n_scales,
            q_grid=self.q_grid(),
            use_profile=self.use_profile,
        )


@dataclass
class StageStatus:
    name: str
    ok: bool
    seconds: float
    error: str | None = None


@dataclass
class AnalysisBundle:
    """Everything one run produced, stage by stage."""

    config: RunConfig
    pair_label: str
    stages: list[StageStatus] = field(default_factory=list)
    qcc: QccReport | None = None
    surface: FluctuationSurface | None = None
    hurst: HurstCurve | None = None
    spectrum: JointSpectrumResult | None = None
    tau_fit: TauNonlinearityReport | None = None
    surrogate_tests: list[SurrogateTestReport] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(s.ok for s in self.stages)


def load_pair(config: RunConfig) -> AlignedPair:
    a = series.load_csv(config.input_x, config.date_column, config.value_column,
                        label=Path(config.input_x).stem)
    b = series.load_csv(config.input_y, config.date_column, config.value_column,
                        label=Path(config.input_y).stem)
    pair = series.align(a, b)
    if config.standardize:
        pair = AlignedPair(
            x=_standardized(pair.x),
            y=_standardized(pair.y),
        )
    return pair


def _standardized(rs: series.ReturnSeries) -> series.ReturnSeries:
    v = rs.values
    sd = v.std()
    if sd == 0.0:
        raise PipelineError(f"{rs.label}: zero variance, cannot standardize")
    return series.ReturnSeries(label=rs.label, dates=rs.dates,
                               values=(v - v.mean()) / sd)


def run_analysis(config: RunConfig, write: bool = True,
                 stages: tuple[str, ...] = ALL_STAGES) -> AnalysisBundle:
    """Execute the selected stages and serialize reports under config.out_dir.

    Stages run in the order of ALL_STAGES, whatever the order asked.  Bad
    input or config raises before any stage runs; a stage that raises is
    recorded in the bundle and the run goes on.  The surrogate stage is
    skipped when config.n_surrogates is 0, and the DMA config is built
    and checked against the series length only when "spectrum" is
    selected.
    """
    started = time.time()
    for name in stages:
        if name not in ALL_STAGES:
            raise PipelineError(f"unknown stage {name!r}; "
                                f"choose from {', '.join(ALL_STAGES)}")
    workers = config.workers or surrogate.default_workers()
    pair = load_pair(config)  # input problems are fatal, not a stage failure
    analysis = None
    if "spectrum" in stages:
        analysis = config.dma_config()
        analysis.validate_for_length(pair.n)
    bundle = AnalysisBundle(config=config,
                            pair_label=f"{pair.x.label}-{pair.y.label}")

    def stage(name, fn):
        if name not in stages:
            return
        t0 = time.time()
        try:
            fn()
            status = StageStatus(name=name, ok=True, seconds=time.time() - t0)
        except Exception as exc:
            log.error("stage %s failed: %s", name, exc)
            status = StageStatus(name=name, ok=False, seconds=time.time() - t0,
                                 error=f"{type(exc).__name__}: {exc}")
        bundle.stages.append(status)
        log.info("stage %-14s %s in %.2fs", name,
                 "ok" if status.ok else "FAILED", status.seconds)

    def do_qcc():
        m_max = min(config.qcc_m_max, pair.n - 1)
        bundle.qcc = stats.qcc_test(pair.x.values, pair.y.values,
                                    range(1, m_max + 1),
                                    config.significance_level)

    def do_spectrum():
        surface, hurst = dma.analyze_pair(pair.x.values, pair.y.values, analysis)
        bundle.surface = surface
        bundle.hurst = hurst
        bundle.spectrum = multifractal.joint_spectrum(hurst)

    def do_tau_fit():
        if bundle.spectrum is None:
            raise PipelineError("scaling stage did not complete")
        bundle.tau_fit = multifractal.tau_nonlinearity_test(
            bundle.spectrum.q_grid, bundle.spectrum.tau,
            config.significance_level)

    def do_surrogates():
        if bundle.spectrum is None:
            raise PipelineError("scaling stage did not complete")
        try:
            bundle.surrogate_tests = surrogate.intrinsic_tests(
                pair, config.schemes, config.n_surrogates, config.master_seed,
                analysis, level=config.significance_level,
                max_iter=config.iaaft_max_iter, workers=workers,
                delta_alpha_original=bundle.spectrum.delta_alpha)
        except surrogate.EnsembleFailedError as exc:
            # the schemes before the failed one are still reported
            bundle.surrogate_tests = exc.completed
            raise

    stage("qcc", do_qcc)
    stage("spectrum", do_spectrum)
    stage("tau_fit", do_tau_fit)
    if config.n_surrogates > 0:
        stage("surrogates", do_surrogates)
    if write:
        out = Path(config.out_dir)
        write_bundle(bundle, out)
        emit_plot_data(bundle, out / "figdata")
        write_provenance(bundle, out, wall_seconds=time.time() - started,
                         workers=workers)
    return bundle


# ---------------------------------------------------------------------------
# serialization: repr() of a float round-trips exactly, so identical runs
# give byte-identical files
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def scheme_slug(scheme: SurrogateScheme) -> str:
    return scheme.name.lower()


def write_bundle(bundle: AnalysisBundle, out: Path) -> None:
    out = Path(out)
    if bundle.qcc is not None:
        r = bundle.qcc
        _write_csv(out / "qcc.csv", ["m", "qcc", "critical", "reject"],
                   zip(r.m_values, r.qcc, r.critical, r.reject))
    if bundle.spectrum is not None:
        sp = bundle.spectrum
        _write_csv(out / "spectrum.csv", ["q", "H", "tau", "alpha", "f"],
                   zip(sp.q_grid, sp.h, sp.tau, sp.alpha, sp.f_alpha))
    if bundle.tau_fit is not None:
        fit = bundle.tau_fit.fit
        _write_csv(
            out / "tau_fit.csv",
            ["a0", "a1", "a2", "se0", "se1", "se2", "t0", "t1", "t2",
             "p0", "p1", "p2", "f_stat", "f_pvalue", "r_squared",
             "multifractal_flag"],
            [tuple(fit.coefficients) + tuple(fit.std_errors) + tuple(fit.t_stats)
             + tuple(fit.t_pvalues)
             + (fit.f_stat, fit.f_pvalue, fit.r_squared,
                bundle.tau_fit.multifractal_flag)],
        )
    for rep in bundle.surrogate_tests:
        _write_csv(
            out / f"surrogate_{scheme_slug(rep.scheme)}.csv",
            ["pair", "scheme", "delta_alpha", "mean_hat", "std_hat",
             "p_value", "n", "excluded"],
            [(bundle.pair_label, rep.scheme.name, rep.delta_alpha_original,
              rep.mean_surrogate_width, rep.std_surrogate_width,
              rep.p_value, rep.n_surrogates, rep.excluded)],
        )
    _write_summary(bundle, out / "summary.json")


def _write_summary(bundle: AnalysisBundle, path: Path) -> None:
    summary: dict = {"pair": bundle.pair_label}
    if bundle.qcc is not None:
        summary["qcc"] = {
            "level": bundle.qcc.significance_level,
            "n_lags": int(bundle.qcc.m_values.size),
            "n_reject": int(np.sum(bundle.qcc.reject)),
        }
    if bundle.spectrum is not None:
        summary["delta_alpha"] = bundle.spectrum.delta_alpha
    if bundle.tau_fit is not None:
        summary["tau_fit"] = {
            "a2": float(bundle.tau_fit.fit.coefficients[2]),
            "a2_pvalue": float(bundle.tau_fit.fit.t_pvalues[2]),
            "multifractal_flag": bundle.tau_fit.multifractal_flag,
        }
    if bundle.surrogate_tests:
        rows = {}
        for rep in bundle.surrogate_tests:
            rows[scheme_slug(rep.scheme)] = {
                "p_value": rep.p_value,
                "mean_width": rep.mean_surrogate_width,
                "std_width": rep.std_surrogate_width,
                "n": rep.n_surrogates,
                "excluded": rep.excluded,
                # both conventional thresholds, reported side by side
                **{f"intrinsic_at_{int(level * 100)}pct": bool(rep.p_value < level)
                   for level in REPORT_LEVELS},
            }
        summary["surrogate_tests"] = rows
        summary["intrinsic_candidate"] = {
            f"{int(level * 100)}pct": bool(
                any(rep.p_value < level for rep in bundle.surrogate_tests))
            for level in REPORT_LEVELS
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_plot_data(bundle: AnalysisBundle, out: Path) -> list[Path]:
    """Write one CSV per figure family whose stages completed; returns
    the paths written."""
    out = Path(out)
    written: list[Path] = []
    if bundle.surface is not None:
        surf = bundle.surface
        rows = [(q, s, surf.values[i, j])
                for i, q in enumerate(surf.q_grid)
                for j, s in enumerate(surf.scales)]
        p = out / "fluctuation.csv"
        _write_csv(p, ["q", "s", "F"], rows)
        written.append(p)
    if bundle.hurst is not None:
        header = ["q", "H_orig"]
        cols = [bundle.hurst.q_grid, bundle.hurst.h]
        for rep in bundle.surrogate_tests:
            sid = rep.scheme.value
            header += [f"H_mean_s{sid}", f"H_std_s{sid}"]
            cols += [rep.h_mean, rep.h_std]
        p = out / "hurst_bands.csv"
        _write_csv(p, header, zip(*cols))
        written.append(p)
    if bundle.spectrum is not None and bundle.tau_fit is not None:
        q = bundle.spectrum.q_grid
        fitted = np.polyval(bundle.tau_fit.fit.coefficients[::-1], q)
        p = out / "tau_fit_curve.csv"
        _write_csv(p, ["q", "tau", "tau_quadratic_fit"],
                   zip(q, bundle.spectrum.tau, fitted))
        written.append(p)
    if bundle.spectrum is not None:
        sp = bundle.spectrum
        header = ["q", "alpha_orig", "f_orig"]
        cols = [sp.q_grid, sp.alpha, sp.f_alpha]
        for rep in bundle.surrogate_tests:
            sid = rep.scheme.value
            header += [f"alpha_mean_s{sid}", f"alpha_std_s{sid}",
                       f"f_mean_s{sid}", f"f_std_s{sid}"]
            cols += [rep.alpha_mean, rep.alpha_std, rep.f_mean, rep.f_std]
        p = out / "spectrum_bands.csv"
        _write_csv(p, header, zip(*cols))
        written.append(p)
    for rep in bundle.surrogate_tests:
        counts, edges = np.histogram(rep.widths, bins=30)
        p = out / f"width_hist_{scheme_slug(rep.scheme)}.csv"
        _write_csv(p, ["bin_lo", "bin_hi", "count"],
                   zip(edges[:-1], edges[1:], counts))
        written.append(p)
    if bundle.spectrum is not None and bundle.surrogate_tests:
        header = ["q"]
        cols = [bundle.spectrum.q_grid]
        for rep in bundle.surrogate_tests:
            header.append(f"tau_dev_s{rep.scheme.value}")
            cols.append(bundle.spectrum.tau - rep.tau_mean)
        p = out / "tau_deviation.csv"
        _write_csv(p, header, zip(*cols))
        written.append(p)
    return written


def write_provenance(bundle: AnalysisBundle, out: Path, wall_seconds: float,
                     workers: int) -> None:
    cfg = dataclasses.asdict(bundle.config)
    cfg["schemes"] = [s.name for s in bundle.config.schemes]
    # where the run wrote and how many workers it used say nothing about
    # the numbers; keep them with the volatile facts
    cfg.pop("out_dir")
    cfg.pop("workers")
    doc = {
        "version": __version__,
        "pair": bundle.pair_label,
        "master_seed": bundle.config.master_seed,
        "config": cfg,
        "stages": [{"name": s.name, "ok": s.ok, "error": s.error}
                   for s in bundle.stages],
        # volatile facts live under "runtime" so that determinism checks
        # can ignore exactly this one sub-object
        "runtime": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "wall_seconds": wall_seconds,
            "stage_seconds": {s.name: s.seconds for s in bundle.stages},
            "workers": workers,
            "out_dir": str(out),
        },
    }
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "provenance.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
