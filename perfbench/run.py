"""Benchmark of mfxdma's analysis chain, end to end and per module.

    python3 perfbench/run.py --workload paper-ensemble|paper-grid|cascade-long \
        --seed N --seconds S --trace 0|1 [--workers W]

Run from the root of a source checkout.  The script writes the seeded
input CSVs, times set-up in fresh interpreters, runs the workload in a
child process through `pipeline.run_analysis`, checks every output
against values computed here, and prints one JSON object as its last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A fuller record (every pass, the checks, the machine) is written under
.perfbench/results/.  --workers overrides the workload's worker count,
for scaling measurements only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(pair_paths, repeats: int) -> dict[str, list[float]]:
    """Wall time of a fresh interpreter that imports mfxdma.cli and loads
    and aligns every pair."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    for x, y in pair_paths:
        cmd += [str(x), str(y)]
    out = {"setup_s": [], "import_s": [], "load_s": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=60, check=False)
        wall = time.perf_counter() - t0
        if proc.returncode:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"].append(wall)
        out["import_s"].append(probe["import_s"])
        out["load_s"].append(probe["load_s"])
    return out


def machine_facts(workers: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": workers,
        "commit": commit,
    }


def run_checks(workload, passes: list[dict], inputs: dict) -> list[str]:
    import checks
    from inputs import CASCADE_P

    run = workload.run
    errors = []
    first = Path(passes[0]["dir"])
    for x_name, y_name in workload.pairs:
        x, y = checks.aligned_returns(inputs[x_name], inputs[y_name])
        errors += checks.check_pair(
            first / f"{x_name}-{y_name}", x, y,
            # RunConfig's default significance level and deepest lag
            level=0.05, m_max=min(1000, x.size - 1),
            schemes=run.get("schemes", ()), n_surrogates=run.get("n_surrogates", 0),
            cascade_p=CASCADE_P if x_name == "cascade" else None)
    for p in passes[1:]:
        errors += checks.check_identical(first, Path(p["dir"]))
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()
    started = time.perf_counter()

    if not (SRC / "mfxdma" / "__init__.py").is_file():
        print(f"no mfxdma sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    from inputs import write_inputs

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_file = results_dir / f"{tag}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    try:
        inputs = write_inputs(workload.pairs, args.seed, work / "inputs")
        child_result = work / "child.json"
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", args.workload, "--inputs", str(work / "inputs"),
               "--out", str(work / "out"), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", str(child_result)]
        if args.workers is not None:
            cmd += ["--workers", str(args.workers)]
        remaining = TIME_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(cmd, env=_env(), timeout=max(remaining, 1.0),
                              check=False)
        if proc.returncode:
            print(f"workload child exited with {proc.returncode}", file=sys.stderr)
            return 1
        child = json.loads(child_result.read_text(encoding="utf-8"))
        passes = child["passes"]
        # after the child, whose imports left byte code and warm file caches
        setup = measure_setup([(inputs[x], inputs[y]) for x, y in workload.pairs],
                              SETUP_REPEATS)

        errors = run_checks(workload, passes, inputs)
        if args.trace and child["permutation_failures"]:
            errors.append(f"{child['permutation_failures']} IAAFT outputs are not "
                          f"permutations of their inputs")
        units = child["units_per_pass"]
        attempted = units * len(passes)
        failed = sum(p["failed"] for p in passes)

        if args.trace:
            metrics = dict(child["layer_metrics"])
            metrics["setup.import_s"] = {"value": median(setup["import_s"]), "unit": "s"}
            metrics["setup.load_s"] = {"value": median(setup["load_s"]), "unit": "s"}
        else:
            walls = [p["wall_s"] for p in passes]
            metrics = {
                "wall_s": {"value": median(walls), "unit": "s"},
                "units_per_s": {"value": median([units / w for w in walls]),
                                "unit": "1/s"},
                "setup_s": {"value": median(setup["setup_s"]), "unit": "s"},
                "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
            }
        spans_file = None
        if child.get("spans_file"):
            spans_file = result_file.with_suffix(".spans.jsonl")
            shutil.move(child["spans_file"], spans_file)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_facts(child["workers"]),
            "passes": passes, "setup": setup, "errors": errors,
            "spans_file": str(spans_file) if spans_file else None,
            "correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics,
        }
        result_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
        for e in errors[:20]:
            print(f"CHECK FAILED: {e}", file=sys.stderr)
        print(json.dumps({"correct": not errors, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
