"""Spans around calls into the program's modules, recorded from outside.

`Tracer.install` swaps each traced public function for a wrapper in every
`mfxdma` module namespace that holds it (modules that import a function
by name hold their own reference), and `uninstall` puts the originals
back.  Nothing inside the package changes.  Spans are kept in memory and
written out by the caller when the run ends.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# (module, function) pairs wrapped in a traced pass.  A function the
# program no longer has is skipped, and its metrics read as no calls.
TRACED = (
    ("pipeline", "run_analysis"),
    ("pipeline", "load_pair"),
    ("pipeline", "write_bundle"),
    ("pipeline", "emit_plot_data"),
    ("pipeline", "write_provenance"),
    ("series", "load_csv"),
    ("stats", "qcc_test"),
    ("stats", "chi2_critical"),
    ("stats", "ols_polyfit"),
    ("dma", "analyze_pair"),
    ("dma", "fluctuation_surface"),
    ("dma", "hurst_curve"),
    ("dma", "residuals"),
    ("multifractal", "joint_spectrum"),
    ("multifractal", "tau_nonlinearity_test"),
    ("surrogate", "intrinsic_test"),
    ("surrogate", "iaaft"),
    ("surrogate", "iaaft_with_iterations"),
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    pass_index: int
    key: object = None        # what makes this call distinct, if tracked
    iterations: int = 0       # IAAFT iterations, if this span ran them
    cpu_s: float = 0.0        # process CPU time over the span (ensembles)
    workers: int = 0
    members: int = 0
    excluded: int = 0
    scheme: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "thread": self.thread,
                "pass": self.pass_index}


def _array_key(a) -> int:
    return hash(np.ascontiguousarray(a, dtype=np.float64).tobytes())


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_index = -1
        self.permutation_failures = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # pool threads have no open span of their own; their parent is the
        # ensemble span that dispatched them
        self._ensemble_parent: int | None = None
        self._saved: list[tuple[dict, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_span(self, name: str) -> tuple[Span, list[int]]:
        stack = self._stack()
        parent = stack[-1] if stack else self._ensemble_parent
        span = Span(span_id=next(self._ids), name=name, start=0.0, end=0.0,
                    parent=parent, thread=threading.get_ident(),
                    pass_index=self.pass_index)
        stack.append(span.span_id)
        span.start = time.perf_counter()
        return span, stack

    def close_span(self, span: Span, stack: list[int]) -> None:
        span.end = time.perf_counter()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def _wrap(self, module: str, name: str, fn):
        label = f"{module}.{name}"
        tracer = self

        def traced(*args, **kwargs):
            span, stack = tracer.open_span(label)
            tracer._before(span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(span, stack)
            tracer._after(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _before(self, span: Span, args, kwargs) -> None:
        name = span.name
        if name == "surrogate.intrinsic_test":
            span.cpu_s = time.process_time()
            self._ensemble_parent = span.span_id
        elif name == "surrogate.iaaft":
            span.key = (_array_key(args[0]), _arg(args, kwargs, 2, "seed", 0))
        elif name == "dma.residuals":
            span.key = (_array_key(args[0]), int(_arg(args, kwargs, 1, "s")))
        elif name == "stats.chi2_critical":
            span.key = (int(_arg(args, kwargs, 0, "m")),
                        float(_arg(args, kwargs, 1, "level")))
        elif name == "series.load_csv":
            span.key = str(args[0] if args else kwargs["path"])

    def _after(self, span: Span, args, kwargs, result) -> None:
        name = span.name
        if name == "surrogate.intrinsic_test":
            self._ensemble_parent = None
            span.cpu_s = time.process_time() - span.cpu_s
            span.workers = int(_arg(args, kwargs, 7, "workers") or 1)
            span.members = int(_arg(args, kwargs, 2, "n"))
            span.excluded = int(result.excluded)
            span.scheme = int(result.scheme.value)
        elif name == "surrogate.iaaft_with_iterations":
            span.iterations = int(result[1])
        elif name == "surrogate.iaaft":
            original = np.sort(np.asarray(args[0], dtype=np.float64))
            if not np.array_equal(np.sort(result), original):
                with self._lock:
                    self.permutation_failures += 1

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key.startswith("mfxdma.") and m is not None]
        for module, name in TRACED:
            home = sys.modules.get(f"mfxdma.{module}")
            fn = getattr(home, name, None) if home is not None else None
            if fn is None:
                continue
            wrapper = self._wrap(module, name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((vars(mod), attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, fn in reversed(self._saved):
            namespace[attr] = fn
        self._saved.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced passes
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """name -> (value, unit).  Counts are for one pass, taken from the
    first traced pass; times are medians over every traced pass."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    first = {name: [s for s in group if s.pass_index == 0]
             for name, group in by_name.items()}

    def calls(name):
        return len(first.get(name, []))

    def med(name):
        return _median([s.seconds for s in by_name.get(name, [])])

    def total(name):
        return sum(s.seconds for s in first.get(name, []))

    def distinct(name):
        group = first.get(name, [])
        return _ratio(len({s.key for s in group}), len(group))

    out: dict[str, tuple[float, str]] = {}
    iaaft_s = total("surrogate.iaaft")
    iterations = sum(s.iterations for s in first.get("surrogate.iaaft_with_iterations", []))
    out["surrogate.iaaft.calls"] = (calls("surrogate.iaaft"), "count")
    out["surrogate.iaaft.s"] = (med("surrogate.iaaft"), "s")
    out["surrogate.iaaft.iterations"] = (iterations, "count")
    out["surrogate.iaaft.s_per_iter"] = (_ratio(iaaft_s, iterations), "s")
    out["surrogate.iaaft.distinct_ratio"] = (distinct("surrogate.iaaft"), "ratio")
    ensembles = by_name.get("surrogate.intrinsic_test", [])
    for scheme in (1, 2, 3):
        out[f"surrogate.intrinsic_test.scheme{scheme}.s"] = (
            _median([s.seconds for s in ensembles if s.scheme == scheme]), "s")
    out["surrogate.members_per_s"] = (
        _ratio(sum(s.members for s in ensembles), sum(s.seconds for s in ensembles)),
        "1/s")
    out["surrogate.excluded"] = (
        sum(s.excluded for s in first.get("surrogate.intrinsic_test", [])), "count")
    out["surrogate.parallel_efficiency"] = (
        _ratio(sum(s.cpu_s for s in ensembles),
               sum(s.seconds * s.workers for s in ensembles)), "ratio")

    out["dma.analyze_pair.calls"] = (calls("dma.analyze_pair"), "count")
    out["dma.analyze_pair.s"] = (med("dma.analyze_pair"), "s")
    out["dma.fluctuation_surface.s"] = (med("dma.fluctuation_surface"), "s")
    out["dma.hurst_curve.s"] = (med("dma.hurst_curve"), "s")
    out["dma.residuals.calls"] = (calls("dma.residuals"), "count")
    out["dma.residuals.distinct_ratio"] = (distinct("dma.residuals"), "ratio")

    out["stats.qcc_test.s"] = (med("stats.qcc_test"), "s")
    out["stats.chi2_critical.calls"] = (calls("stats.chi2_critical"), "count")
    out["stats.chi2_critical.total_s"] = (total("stats.chi2_critical"), "s")
    out["stats.chi2_critical.distinct_ratio"] = (distinct("stats.chi2_critical"), "ratio")
    out["stats.ols_polyfit.calls"] = (calls("stats.ols_polyfit"), "count")
    out["stats.ols_polyfit.total_s"] = (total("stats.ols_polyfit"), "s")

    out["multifractal.joint_spectrum.s"] = (med("multifractal.joint_spectrum"), "s")
    out["multifractal.tau_nonlinearity_test.s"] = (
        med("multifractal.tau_nonlinearity_test"), "s")

    out["series.load_csv.calls"] = (calls("series.load_csv"), "count")
    out["series.load_csv.s"] = (med("series.load_csv"), "s")
    out["series.load_csv.distinct_ratio"] = (distinct("series.load_csv"), "ratio")
    out["pipeline.load_pair.s"] = (med("pipeline.load_pair"), "s")

    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    writes, self_times = [], []
    for run in by_name.get("pipeline.run_analysis", []):
        kids = children.get(run.span_id, [])
        writes.append(sum(k.seconds for k in kids if k.name in (
            "pipeline.write_bundle", "pipeline.emit_plot_data",
            "pipeline.write_provenance")))
        # direct children run on the same thread one after another
        self_times.append(run.seconds - sum(k.seconds for k in kids))
    out["pipeline.write.s"] = (_median(writes), "s")
    out["pipeline.run_analysis.self_s"] = (_median(self_times), "s")
    out["trace.spans"] = (sum(1 for s in spans if s.pass_index == 0), "count")
    return out
