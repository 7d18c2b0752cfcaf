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
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import (__version__, _require_integer, dma, multifractal, series,
               stats, surrogate)
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


@dataclass(frozen=True, kw_only=True)
class RunConfig(DmaConfig):
    """Complete description of one batch run: the DMA settings it
    inherits plus the inputs, the Qcc and the surrogate settings.
    Defaults follow the standard protocol (backward window, q in [-5,5]
    step 0.25, scales 10..316, 1000 surrogates per scheme, lag depths up
    to 1000)."""

    input_x: str
    input_y: str
    master_seed: int
    out_dir: str = "mfxdma-out"
    n_surrogates: int = 1000
    schemes: tuple[SurrogateScheme, ...] = tuple(SurrogateScheme)
    significance_level: float = 0.05
    qcc_m_max: int = 1000
    standardize: bool = False
    iaaft_max_iter: int = 1000
    date_column: str = "date"
    value_column: str = "value"
    workers: int | None = None

    def __post_init__(self):
        super().__post_init__()
        # each scheme once, in the order first given
        schemes = tuple(dict.fromkeys(SurrogateScheme(s) for s in self.schemes))
        object.__setattr__(self, "schemes", schemes)
        # integer settings and their least values; workers=None means the
        # CPU count
        for name, least in (("master_seed", 0), ("workers", 1),
                            ("n_surrogates", 0), ("iaaft_max_iter", 1),
                            ("qcc_m_max", 1)):
            value = getattr(self, name)
            if not (name == "workers" and value is None):
                _require_integer(PipelineError, name, value, least)
        if not schemes and self.n_surrogates > 0:
            raise PipelineError(
                "schemes must name at least one scheme when n_surrogates > 0")
        if not (0.0 < self.significance_level < 1.0):
            raise PipelineError("significance_level must lie in (0, 1), got "
                                f"{self.significance_level}")


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
    """Load and align both inputs; a file named on both sides, by the
    same absolute path and so with the same label, is read once."""
    def load(path):
        return series.load_csv(path, config.date_column, config.value_column,
                               label=Path(path).stem)

    a = load(config.input_x)
    same = (os.path.abspath(config.input_y) == os.path.abspath(config.input_x)
            and Path(config.input_y).stem == a.label)
    b = a if same else load(config.input_y)
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
    skipped when config.n_surrogates is 0, and the scale grid is checked
    against the series length only when "spectrum" is selected.
    """
    started = time.perf_counter()
    for name in stages:
        if name not in ALL_STAGES:
            raise PipelineError(f"unknown stage {name!r}; "
                                f"choose from {', '.join(ALL_STAGES)}")
    workers = config.workers or os.cpu_count() or 1
    pair = load_pair(config)  # input problems are fatal, not a stage failure
    if "spectrum" in stages:
        config.validate_for_length(pair.n)
    bundle = AnalysisBundle(config=config,
                            pair_label=f"{pair.x.label}-{pair.y.label}")

    def stage(name, fn):
        if name not in stages:
            return
        t0 = time.perf_counter()
        error = None
        try:
            fn()
        except Exception as exc:
            log.error("stage %s failed: %s", name, exc)
            error = f"{type(exc).__name__}: {exc}"
        status = StageStatus(name=name, ok=error is None,
                             seconds=time.perf_counter() - t0, error=error)
        bundle.stages.append(status)
        log.info("stage %-14s %s in %.2fs", name,
                 "ok" if status.ok else "FAILED", status.seconds)

    def do_qcc():
        m_max = min(config.qcc_m_max, pair.n - 1)
        bundle.qcc = stats.qcc_test(pair.x.values, pair.y.values, m_max,
                                    config.significance_level)

    def do_spectrum():
        surface, hurst = dma.analyze_pair(pair.x.values, pair.y.values, config)
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
                config, max_iter=config.iaaft_max_iter, workers=workers,
                delta_alpha_original=bundle.spectrum.delta_alpha)
        except surrogate.EnsembleFailedError as exc:
            # every scheme that completed is still reported
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
        write_provenance(bundle, out,
                         wall_seconds=time.perf_counter() - started,
                         workers=workers)
    return bundle


# ---------------------------------------------------------------------------
# serialization: every CSV is {header name: column} through _write_csv and
# every JSON document goes through _write_json.  repr() of a float
# round-trips exactly, so identical runs give byte-identical files
# ---------------------------------------------------------------------------

def _cells(column) -> list[str]:
    values = np.asarray(column)
    if values.dtype.kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    if values.dtype.kind == "f":
        return list(map(repr, values.tolist()))
    if values.dtype.kind == "U":
        return list(map(_quoted, values.tolist()))
    return list(map(str, values.tolist()))


def _quoted(text: str) -> str:
    # RFC 4180: a cell holding a separator, a quote or a line break is
    # quoted, and its quotes doubled
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, columns: dict) -> None:
    """One row per position of the equal-length columns, the keys as the
    header: flags as true/false, floats by repr, text quoted as RFC 4180
    asks, the rest by str."""
    rows = zip(*map(_cells, columns.values()))
    lines = [",".join(columns), *map(",".join, rows)]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_bundle(bundle: AnalysisBundle, out: Path) -> None:
    """Write the tables of every completed stage, the figure tables under
    out/figdata, then summary.json.  Each table is written only when the
    bundle fields it reads are set."""
    out = Path(out)
    fig = out / "figdata"
    sp, reps = bundle.spectrum, bundle.surrogate_tests
    summary: dict = {"pair": bundle.pair_label}
    if bundle.qcc is not None:
        r = bundle.qcc
        _write_csv(out / "qcc.csv", {"m": r.m_values, "qcc": r.qcc,
                                     "critical": r.critical, "reject": r.reject})
        summary["qcc"] = {"level": r.significance_level,
                          "n_lags": int(r.m_values.size),
                          "n_reject": int(np.sum(r.reject))}
    if bundle.surface is not None:
        surf = bundle.surface
        # q outer, s inner
        _write_csv(fig / "fluctuation.csv", {
            "q": np.repeat(surf.q_grid, surf.scales.size),
            "s": np.tile(surf.scales, surf.q_grid.size),
            "F": surf.values.ravel()})
    if bundle.hurst is not None:
        columns = {"q": bundle.hurst.q_grid, "H_orig": bundle.hurst.h}
        for rep in reps:
            sid = rep.scheme.value
            columns[f"H_mean_s{sid}"] = rep.h_mean
            columns[f"H_std_s{sid}"] = rep.h_std
        _write_csv(fig / "hurst_bands.csv", columns)
    if sp is not None:
        _write_csv(out / "spectrum.csv", {"q": sp.q_grid, "H": sp.h,
                                          "tau": sp.tau, "alpha": sp.alpha,
                                          "f": sp.f_alpha})
        columns = {"q": sp.q_grid, "alpha_orig": sp.alpha, "f_orig": sp.f_alpha}
        for rep in reps:
            sid = rep.scheme.value
            columns[f"alpha_mean_s{sid}"] = rep.alpha_mean
            columns[f"alpha_std_s{sid}"] = rep.alpha_std
            columns[f"f_mean_s{sid}"] = rep.f_mean
            columns[f"f_std_s{sid}"] = rep.f_std
        _write_csv(fig / "spectrum_bands.csv", columns)
        summary["delta_alpha"] = sp.delta_alpha
    if bundle.tau_fit is not None:
        fit, flag = bundle.tau_fit.fit, bundle.tau_fit.multifractal_flag
        _write_csv(out / "tau_fit.csv", {
            **{f"{prefix}{i}": [v] for prefix, values in (
                ("a", fit.coefficients), ("se", fit.std_errors),
                ("t", fit.t_stats), ("p", fit.t_pvalues))
               for i, v in enumerate(values)},
            "f_stat": [fit.f_stat], "f_pvalue": [fit.f_pvalue],
            "r_squared": [fit.r_squared], "multifractal_flag": [flag]})
        summary["tau_fit"] = {"a2": float(fit.coefficients[2]),
                              "a2_pvalue": float(fit.t_pvalues[2]),
                              "multifractal_flag": flag}
        if sp is not None:
            _write_csv(fig / "tau_fit_curve.csv", {
                "q": sp.q_grid, "tau": sp.tau,
                "tau_quadratic_fit": np.polyval(fit.coefficients[::-1],
                                                sp.q_grid)})
    for rep in reps:
        slug = rep.scheme.name.lower()
        _write_csv(out / f"surrogate_{slug}.csv", {
            "pair": [bundle.pair_label], "scheme": [rep.scheme.name],
            "delta_alpha": [rep.delta_alpha_original],
            "mean_hat": [rep.mean_surrogate_width],
            "std_hat": [rep.std_surrogate_width], "p_value": [rep.p_value],
            "n": [rep.n_surrogates], "excluded": [rep.excluded]})
        counts, edges = np.histogram(rep.widths, bins=30)
        _write_csv(fig / f"width_hist_{slug}.csv",
                   {"bin_lo": edges[:-1], "bin_hi": edges[1:], "count": counts})
        summary.setdefault("surrogate_tests", {})[slug] = {
            "p_value": rep.p_value,
            "mean_width": rep.mean_surrogate_width,
            "std_width": rep.std_surrogate_width,
            "n": rep.n_surrogates,
            "excluded": rep.excluded,
            # both conventional thresholds, reported side by side
            **{f"intrinsic_at_{int(level * 100)}pct": bool(rep.p_value < level)
               for level in REPORT_LEVELS},
        }
    if reps:
        if sp is not None:
            _write_csv(fig / "tau_deviation.csv", {
                "q": sp.q_grid,
                **{f"tau_dev_s{rep.scheme.value}": sp.tau - rep.tau_mean
                   for rep in reps}})
        summary["intrinsic_candidate"] = {
            f"{int(level * 100)}pct": bool(
                any(rep.p_value < level for rep in reps))
            for level in REPORT_LEVELS
        }
    _write_json(out / "summary.json", summary)


def write_provenance(bundle: AnalysisBundle, out: Path, wall_seconds: float,
                     workers: int) -> None:
    cfg = dataclasses.asdict(bundle.config)
    cfg["schemes"] = [s.name for s in bundle.config.schemes]
    # where the run wrote and how many workers it used say nothing about
    # the numbers; keep them with the volatile facts
    cfg.pop("out_dir")
    cfg.pop("workers")
    _write_json(Path(out) / "provenance.json", {
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
            # surrogate bits rest on scipy.fft agreeing with numpy.fft
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    })
