"""Command-line front end.

Subcommands: analyze (every stage), qcc (the qcc stage), spectrum (the
spectrum and tau_fit stages), surrogate-test (the spectrum and
surrogates stages), synth (oracle series generators).  Each of the
first four runs its stages through pipeline.run_analysis; analyze
always writes its outputs, the others only with --out, and a written
bundle always holds provenance.json.  Exit codes, under every
subcommand: 0 on success, 1 for anything raised before any stage runs
(usage, input or config errors), 2 when a stage fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, _require_integer, pipeline, series, synth
from .pipeline import AnalysisBundle, RunConfig
from .surrogate import SurrogateScheme

log = logging.getLogger(__name__)


class _UsageError(argparse.ArgumentTypeError):  # a type= error names its flag
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _parse_schemes(text: str) -> tuple[SurrogateScheme, ...]:
    if text.strip().lower() == "all":
        return tuple(SurrogateScheme)
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(SurrogateScheme(int(token)) if token.isdigit()
                       else SurrogateScheme[token.upper()])
        except (KeyError, ValueError):
            raise _UsageError(f"unknown scheme {token!r}") from None
    if not out:
        raise _UsageError("empty scheme list")
    return tuple(out)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise _UsageError(f"expected a boolean, got {text!r}")


# how a config file's text becomes each RunConfig field, by its annotation
_COERCERS_BY_TYPE = {
    "str": str, "int": int, "float": float, "bool": _parse_bool,
    "tuple[SurrogateScheme, ...]": _parse_schemes,
    "int | None": lambda t: None if t.strip().lower() == "none" else int(t),
}
_CONFIG_COERCERS = {f.name: _COERCERS_BY_TYPE[f.type]
                    for f in dataclasses.fields(RunConfig)}


def _load_config_file(path: str) -> dict:
    """Accept JSON or key=value lines; keys mirror the run-config fields."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc.strerror}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise _UsageError(f"{path}: top-level JSON must be an object")
        items = {k: ",".join(map(str, v)) if isinstance(v, list) else
                 v if v is None else str(v) for k, v in raw.items()}
    else:
        items = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"{path} line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            items[key.strip()] = value.strip()
    out = {}
    for key, value in items.items():
        if key not in _CONFIG_COERCERS:
            raise _UsageError(f"{path}: unknown config key {key!r}")
        if value is None and key != "workers":  # JSON null
            raise _UsageError(f"{path}: {key}: null is allowed only for workers")
        try:
            out[key] = None if value is None else _CONFIG_COERCERS[key](value)
        except (ValueError, _UsageError) as exc:
            raise _UsageError(f"{path}: {key}: {exc}") from None
    return out


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", dest="input_x", metavar="CSV",
                   help="first input series")
    p.add_argument("--y", dest="input_y", metavar="CSV",
                   help="second input series")
    p.add_argument("--date-column", default=None)
    p.add_argument("--value-column", default=None)
    p.add_argument("--standardize", action="store_const", const=True,
                   default=None, help="z-score the returns before analysis")


def _add_dma_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=float, default=None,
                   help=f"window position, 0=backward "
                        f"(default {RunConfig.theta:g})")
    p.add_argument("--q-min", type=float, default=None)
    p.add_argument("--q-max", type=float, default=None)
    p.add_argument("--q-step", type=float, default=None)
    p.add_argument("--scale-min", type=int, default=None)
    p.add_argument("--scale-max", type=int, default=None)
    p.add_argument("--n-scales", type=int, default=None)
    p.add_argument("--no-profile", dest="use_profile", action="store_const",
                   const=False, default=None,
                   help="detrend the raw returns instead of their cumulative sum")


def _add_ensemble_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", dest="master_seed", type=int, default=None,
                   help="master seed of the surrogates")
    p.add_argument("--surrogates", dest="n_surrogates", type=int,
                   default=None,
                   help=f"ensemble size per scheme (default "
                        f"{RunConfig.n_surrogates}; analyze skips them at 0)")
    p.add_argument("--schemes", type=_parse_schemes, default=None,
                   help="comma list of 1,2,3 or names (default all)")
    p.add_argument("--iaaft-max-iter", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="threads for the ensembles (default: CPU count)")


def build_parser() -> _Parser:
    parser = _Parser(prog="mfxdma", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    # an analysis subcommand's flags follow from the stages it runs
    for name, cmd in _STAGE_COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        _add_input_flags(p)
        if "spectrum" in cmd.stages:
            _add_dma_flags(p)
        if "surrogates" in cmd.stages:
            _add_ensemble_flags(p)
        p.add_argument("--out", dest="out_dir", default=None, metavar="DIR")
        if cmd.reads_config:
            p.add_argument("--config", default=None, metavar="FILE",
                           help="key=value or JSON file overriding defaults")
        if {"qcc", "tau_fit"} & set(cmd.stages):
            p.add_argument("--level", dest="significance_level", type=float,
                           default=None)
        if "qcc" in cmd.stages:
            p.add_argument(cmd.lag_flag, dest="qcc_m_max", type=int,
                           default=None,
                           help=f"largest lag depth "
                                f"(default {RunConfig.qcc_m_max})")

    pg = sub.add_parser("synth", help="generate oracle series")
    gsub = pg.add_subparsers(dest="generator", metavar="GENERATOR")
    pf = gsub.add_parser("fgn", help="fractional Gaussian noise levels")
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--hurst", type=float, required=True)
    pf.add_argument("--seed", type=int, default=None)
    pf.add_argument("--out", required=True)
    pf.add_argument("--scale", type=float, default=0.01,
                    help="return amplitude per step (default 0.01)")
    pf.add_argument("--start-date", default="2000-01-01")
    pc = gsub.add_parser("cascade", help="binomial measure levels")
    pc.add_argument("--levels", type=int, required=True)
    pc.add_argument("--p", type=float, required=True)
    pc.add_argument("--seed", type=int, default=None)
    pc.add_argument("--shuffle", action="store_true")
    pc.add_argument("--out", required=True)
    pc.add_argument("--scale", type=float, default=1.0)
    pc.add_argument("--start-date", default="2000-01-01")
    return parser


def _merged_config(args, need_seed: bool) -> RunConfig:
    overrides: dict = {}
    if getattr(args, "config", None):
        overrides.update(_load_config_file(args.config))
    # every flag's dest is the name of the RunConfig field it sets
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    for required in ("input_x", "input_y"):
        if not overrides.get(required):
            raise _UsageError(f"missing input series ({required.replace('input_', '--')})")
    if "master_seed" not in overrides:
        if need_seed and overrides.get("n_surrogates", RunConfig.n_surrogates) > 0:
            raise _UsageError("--seed is required when surrogates are generated")
        overrides["master_seed"] = 0
    return RunConfig(**overrides)


def _failed_stages(bundle: AnalysisBundle) -> str:
    return " ".join(f"{s.name}=failed" for s in bundle.stages if not s.ok)


def _report_analyze(bundle: AnalysisBundle) -> str:
    return (f"wrote {bundle.config.out_dir} ({bundle.pair_label}) "
            f"{_failed_stages(bundle)}").rstrip()


def _report_qcc(bundle: AnalysisBundle) -> str:
    r = bundle.qcc
    if r is None:
        return _failed_stages(bundle)
    return (f"qcc: {int(np.sum(r.reject))}/{r.m_values.size} lag depths "
            f"significant at level {r.significance_level}")


def _report_spectrum(bundle: AnalysisBundle) -> str:
    sp, fit = bundle.spectrum, bundle.tau_fit
    if fit is None:
        head = "" if sp is None else f"delta_alpha={sp.delta_alpha:.4f} "
        return head + _failed_stages(bundle)
    return (f"delta_alpha={sp.delta_alpha:.4f} "
            f"a2={fit.fit.coefficients[2]:.4f} "
            f"multifractal_flag={fit.multifractal_flag}")


def _report_surrogates(bundle: AnalysisBundle) -> str:
    lines = [f"scheme {rep.scheme.value} ({rep.scheme.name}): "
             f"p={rep.p_value:.4f} mean={rep.mean_surrogate_width:.4f} "
             f"n={rep.n_surrogates}" for rep in bundle.surrogate_tests]
    if not bundle.complete:
        lines.append(_failed_stages(bundle))
    return "\n".join(lines)


class _StageCommand(NamedTuple):
    help: str
    stages: tuple[str, ...]  # the stages of run_analysis it runs
    report: Callable[[AnalysisBundle], str]  # its printout
    lag_flag: str | None  # how it spells the qcc lag depth, if it runs qcc
    reads_config: bool  # whether it takes --config


_STAGE_COMMANDS = {
    "analyze": _StageCommand("full pipeline on one pair", pipeline.ALL_STAGES,
                             _report_analyze, "--qcc-m-max", True),
    "qcc": _StageCommand("cross-correlation significance only", ("qcc",),
                         _report_qcc, "--m-max", False),
    "spectrum": _StageCommand("scaling analysis only", ("spectrum", "tau_fit"),
                              _report_spectrum, None, False),
    "surrogate-test": _StageCommand(
        "surrogate ensembles only", ("spectrum", "surrogates"),
        _report_surrogates, None, False),
}


def _cmd_stages(args) -> int:
    cmd = _STAGE_COMMANDS[args.command]
    config = _merged_config(args, need_seed="surrogates" in cmd.stages)
    # analyze skips its ensembles at --surrogates 0; surrogate-test would
    # have nothing to run
    if args.command == "surrogate-test" and config.n_surrogates < 1:
        raise _UsageError("surrogate-test needs --surrogates >= 1")
    # analyze always writes (to mfxdma-out by default), the others only with --out
    write = args.command == "analyze" or args.out_dir is not None
    bundle = pipeline.run_analysis(config, write=write, stages=cmd.stages)
    print(cmd.report(bundle))
    return 0 if bundle.complete else 2


def _write_level_csv(path: str, increments: np.ndarray, scale: float,
                     start_date: str) -> None:
    """Integrate increments into a positive level series and save it.

    The first row is level 1.0; the standard ingestion (log returns)
    recovers scale*increments exactly.  A scale that leaves any level
    non-finite or non-positive, or a start date that is no YYYY-MM-DD day
    or runs past 9999-12-31, is refused before anything is written.
    """
    if not np.isfinite(scale):
        raise synth.SynthError(f"--scale must be finite, got {scale}")
    with np.errstate(over="ignore"):
        levels = np.concatenate([[1.0], np.exp(scale * np.cumsum(increments))])
    if not np.all(np.isfinite(levels) & (levels > 0.0)):
        raise synth.SynthError(
            f"--scale {scale} takes the levels outside the positive finite "
            "floats; choose a --scale nearer 0")
    start, _ = series._iso_days([start_date])  # the loader's day parser
    dates = None if start is None else start[0] + np.arange(levels.size)
    if dates is None or dates[-1] > np.datetime64("9999-12-31"):
        raise synth.SynthError(
            f"--start-date must be a YYYY-MM-DD day whose {levels.size} dates "
            f"end by 9999-12-31, got {start_date!r}")
    pipeline._write_csv(Path(path), {"date": dates, "value": levels})


def _cmd_synth(args) -> int:
    if args.generator is None:
        raise _UsageError("choose a generator: fgn or cascade")
    if args.seed is not None:
        _require_integer(synth.SynthError, "--seed", args.seed, 0)
    if args.generator == "fgn":
        if args.seed is None:
            raise _UsageError("--seed is required for fgn")
        values = synth.fgn(args.n, args.hurst, args.seed)
    else:
        if args.shuffle and args.seed is None:
            raise _UsageError("--seed is required with --shuffle")
        values = synth.binomial_cascade(args.levels, args.p, args.seed or 0,
                                        args.shuffle)
    _write_level_csv(args.out, values, args.scale, args.start_date)
    print(f"wrote {args.out} ({values.size + 1} rows)")
    return 0


_COMMANDS = {**{name: _cmd_stages for name in _STAGE_COMMANDS},
             "synth": _cmd_synth}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        )
        if args.command is None:
            parser.print_usage(sys.stderr)
            raise _UsageError("choose a command")
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError) as exc:
        # usage, or bad input or config raised before any stage runs
        sys.stderr.write(f"mfxdma: error: {exc}\n")
        return 1
    except Exception as exc:  # the run itself broke, say writing outputs
        log.error("run failed: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
