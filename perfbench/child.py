"""One workload in its own process: warm up, then run whole passes of the
workload through `pipeline.run_analysis` for the measuring time, starting
no pass that would likely end after it (but always at least one).

    python3 perfbench/child.py --workload NAME --inputs DIR --out DIR \
        --seed N --seconds S --trace 0|1 --result FILE [--workers W]

With --trace 0 every pass is timed untraced.  With --trace 1 untraced and
traced passes alternate (their time ratio is the tracing overhead), and
kernel probes at fixed sizes follow.  The result file is JSON; the
spans of a traced run go to <result>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _configs(workload, inputs: Path, out: Path, seed: int, overrides: dict,
             workers: int | None):
    from mfxdma.pipeline import RunConfig
    from mfxdma.surrogate import SurrogateScheme

    fields = dict(workload.run, **overrides)
    if "schemes" in fields:
        fields["schemes"] = tuple(SurrogateScheme(s) for s in fields["schemes"])
    if workers is not None:
        fields["workers"] = workers
    return [RunConfig(input_x=str(inputs / f"{x}.csv"),
                      input_y=str(inputs / f"{y}.csv"),
                      master_seed=seed, out_dir=str(out / f"{x}-{y}"), **fields)
            for x, y in workload.pairs]


def _failed_ops(config, bundle) -> int:
    """Operations of one run_analysis call that did not complete: the
    members a scheme excluded or never ran, or the whole pair analysis."""
    if not config.n_surrogates:
        return 0 if bundle is not None and bundle.complete else 1
    done = {} if bundle is None else {r.scheme: r for r in bundle.surrogate_tests}
    failed = 0
    for scheme in config.schemes:
        rep = done.get(scheme)
        failed += config.n_surrogates if rep is None else rep.excluded
    return failed


def run_pass(configs) -> tuple[float, int]:
    from mfxdma import pipeline

    failed = 0
    t0 = time.perf_counter()
    for config in configs:
        try:
            bundle = pipeline.run_analysis(config)
        except ValueError as exc:  # input errors abort the pair, not the run
            print(f"run_analysis failed for {config.out_dir}: {exc}", file=sys.stderr)
            bundle = None
        failed += _failed_ops(config, bundle)
    return time.perf_counter() - t0, failed


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def kernel_probes() -> dict[str, tuple[float, str]]:
    """The kernel sizes the retired backend comparison timed: median of
    repeated calls.  A kernel the program no longer has reads 0."""
    from mfxdma import dma
    try:
        from mfxdma import _accel
    except ImportError:
        _accel = None

    rng = np.random.default_rng(1)
    z = np.cumsum(rng.standard_normal(65536))
    ex = rng.standard_normal(65536)
    ey = rng.standard_normal(65536)
    fv = np.abs(rng.standard_normal(600)) + 1e-9
    qs = np.round(np.arange(-20, 21) * 0.25, 10)
    x = rng.standard_normal(6065)
    y = rng.standard_normal(6065)
    probes = {
        "probe.window_means.s": (getattr(_accel, "window_means", None),
                                 (z, 316), 20),
        "probe.segment_products.s": (getattr(_accel, "segment_products", None),
                                     (ex, ey, 316, 65536 // 316), 20),
        "probe.q_moments.s": (getattr(_accel, "q_moments", None), (fv, qs), 50),
        "probe.analyze_pair.s": (dma.analyze_pair, (x, y, dma.DmaConfig()), 10),
    }
    out = {}
    for name, (fn, args, repeats) in probes.items():
        out[name] = (_median_time(lambda: fn(*args), repeats) if fn else 0.0, "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()

    import mfxdma.pipeline  # noqa: F401  (import cost is setup, not a pass)

    workload = WORKLOADS[args.workload]
    run_pass(_configs(workload, args.inputs, args.out / "warmup", args.seed,
                      workload.warmup, args.workers))

    passes: list[dict] = []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(tracer) and k % 2 == 1
        out = args.out / f"pass{k}"
        configs = _configs(workload, args.inputs, out, args.seed, {}, args.workers)
        if traced:
            tracer.pass_index += 1
            tracer.install()
            try:
                wall, failed = run_pass(configs)
            finally:
                tracer.uninstall()
        else:
            wall, failed = run_pass(configs)
        passes.append({"dir": str(out), "wall_s": wall, "failed": failed,
                       "traced": traced, "bytes": _dir_bytes(out)})
        k += 1
        # start no pass that would likely end after the measuring window;
        # a traced run stops only after a traced pass
        elapsed = time.perf_counter() - start
        typical = float(np.median([p["wall_s"] for p in passes]))
        if elapsed + typical > args.seconds and (not tracer or k % 2 == 0):
            break

    result = {
        "workload": args.workload,
        "units_per_pass": workload.units_per_pass(),
        "workers": args.workers or workload.run["workers"],
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        plain = [p["wall_s"] for p in passes if not p["traced"]]
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        metrics = layer_metrics(tracer.spans)
        metrics["pipeline.write.bytes"] = (
            next(p["bytes"] for p in passes if p["traced"]), "bytes")
        metrics["trace.overhead_pct"] = (
            100.0 * (np.median(traced_walls) / np.median(plain) - 1.0), "%")
        metrics.update(kernel_probes())
        result["layer_metrics"] = {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}
        result["permutation_failures"] = tracer.permutation_failures
        spans_path = args.result.with_suffix(".spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
        result["spans_file"] = str(spans_path)
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
