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

import numpy as np

from . import __version__, pipeline, series, synth
from .pipeline import AnalysisBundle, PipelineError, RunConfig
from .surrogate import SurrogateScheme

log = logging.getLogger(__name__)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
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


_CONFIG_COERCERS = {
    "input_x": str, "input_y": str, "out_dir": str,
    "date_column": str, "value_column": str,
    "master_seed": int, "scale_min": int, "scale_max": int, "n_scales": int,
    "n_surrogates": int, "qcc_m_max": int, "iaaft_max_iter": int,
    "theta": float, "q_min": float, "q_max": float, "q_step": float,
    "significance_level": float,
    "standardize": _parse_bool, "use_profile": _parse_bool,
    "schemes": _parse_schemes,
    "workers": lambda t: None if t.strip().lower() == "none" else int(t),
}


def _load_config_file(path: str) -> dict:
    """Accept JSON or key=value lines; keys mirror the run-config fields."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise _UsageError(f"config file not found: {path}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise _UsageError(f"{path}: top-level JSON must be an object")
        items = {k: str(v) if not isinstance(v, (list, tuple)) else
                 ",".join(str(x) for x in v) for k, v in raw.items()}
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
        out[key] = _CONFIG_COERCERS[key](value)
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
                   help="window position, 0=backward (default 0)")
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

    pa = sub.add_parser("analyze", help="full pipeline on one pair")
    _add_input_flags(pa)
    _add_dma_flags(pa)
    _add_ensemble_flags(pa)
    pa.add_argument("--out", dest="out_dir", default=None, metavar="DIR")
    pa.add_argument("--config", default=None, metavar="FILE",
                    help="key=value or JSON file overriding defaults")
    pa.add_argument("--level", dest="significance_level", type=float,
                    default=None)
    pa.add_argument("--qcc-m-max", type=int, default=None)

    pq = sub.add_parser("qcc", help="cross-correlation significance only")
    _add_input_flags(pq)
    pq.add_argument("--out", dest="out_dir", default=None, metavar="DIR")
    pq.add_argument("--m-max", dest="qcc_m_max", type=int, default=None,
                    help="largest lag depth (default 1000)")
    pq.add_argument("--level", dest="significance_level", type=float,
                    default=None)

    ps = sub.add_parser("spectrum", help="scaling analysis only")
    _add_input_flags(ps)
    _add_dma_flags(ps)
    ps.add_argument("--out", dest="out_dir", default=None, metavar="DIR")
    ps.add_argument("--level", dest="significance_level", type=float,
                    default=None)

    pt = sub.add_parser("surrogate-test", help="surrogate ensembles only")
    _add_input_flags(pt)
    _add_dma_flags(pt)
    _add_ensemble_flags(pt)
    pt.add_argument("--out", dest="out_dir", default=None, metavar="DIR")

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
    return f"wrote {bundle.config.out_dir} ({bundle.pair_label})"


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


# subcommand -> (the stages of run_analysis it runs, its printout)
_STAGE_COMMANDS = {
    "analyze": (pipeline.ALL_STAGES, _report_analyze),
    "qcc": (("qcc",), _report_qcc),
    "spectrum": (("spectrum", "tau_fit"), _report_spectrum),
    "surrogate-test": (("spectrum", "surrogates"), _report_surrogates),
}


def _cmd_stages(args) -> int:
    stages, report = _STAGE_COMMANDS[args.command]
    config = _merged_config(args, need_seed="surrogates" in stages)
    # analyze skips its ensembles at --surrogates 0; surrogate-test would
    # have nothing to run
    if args.command == "surrogate-test" and config.n_surrogates < 1:
        raise _UsageError("surrogate-test needs --surrogates >= 1")
    # analyze always writes (to mfxdma-out by default), the others only with --out
    write = args.command == "analyze" or args.out_dir is not None
    bundle = pipeline.run_analysis(config, write=write, stages=stages)
    print(report(bundle))
    return 0 if bundle.complete else 2


def _write_level_csv(path: str, increments: np.ndarray, scale: float,
                     start_date: str) -> None:
    """Integrate increments into a positive level series and save it.

    The first row is level 1.0; the standard ingestion (log returns)
    recovers scale*increments exactly.  A scale that leaves any level
    non-finite or non-positive is refused before anything is written.
    """
    if not np.isfinite(scale):
        raise synth.SynthError(f"--scale must be finite, got {scale}")
    with np.errstate(over="ignore"):
        levels = np.concatenate([[1.0], np.exp(scale * np.cumsum(increments))])
    if not np.all(np.isfinite(levels) & (levels > 0.0)):
        raise synth.SynthError(
            f"--scale {scale} takes the levels outside the positive finite "
            "floats; choose a --scale nearer 0")
    dates = np.datetime64(start_date, "D") + np.arange(levels.size)
    pipeline._write_csv(Path(path), {"date": dates, "value": levels})


def _cmd_synth(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise synth.SynthError(f"--seed must be >= 0, got {args.seed}")
    if args.generator == "fgn":
        if args.seed is None:
            raise _UsageError("--seed is required for fgn")
        values = synth.fgn(args.n, args.hurst, args.seed)
    elif args.generator == "cascade":
        if args.shuffle and args.seed is None:
            raise _UsageError("--seed is required with --shuffle")
        spec = synth.CascadeSpec(levels=args.levels, p=args.p,
                                 seed=args.seed or 0, shuffle=args.shuffle)
        values = synth.binomial_cascade(spec)
    else:
        raise _UsageError("choose a generator: fgn or cascade")
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
            return 1
        return _COMMANDS[args.command](args)
    except _UsageError:
        return 1
    except (series.SeriesError, PipelineError, ValueError) as exc:
        # bad input or config, raised before any stage runs
        log.error("%s", exc)
        return 1
    except Exception as exc:  # the run itself broke, say writing outputs
        log.error("run failed: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
