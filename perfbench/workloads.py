"""The three workloads: which input pairs a pass analyses, with which
run settings.  Plain data, imported by both run.py and child.py, so
it imports nothing from the program or from numpy."""

from __future__ import annotations

from dataclasses import dataclass, field

GRAINS = tuple(f"grain{i}" for i in range(6))
UNCERTAINTIES = tuple(f"unc{j}" for j in range(3))


@dataclass(frozen=True)
class Workload:
    pairs: tuple[tuple[str, str], ...]
    # RunConfig fields of every pass; worker counts are always explicit
    run: dict
    # the same fields, overridden, for the one untimed warm-up pass
    warmup: dict = field(default_factory=dict)

    def units_per_pass(self) -> int:
        """Operations in one pass: a surrogate member of one scheme when
        the pass runs ensembles, else a whole pair analysis."""
        n = self.run.get("n_surrogates", 0)
        if n:
            return len(self.pairs) * n * len(self.run["schemes"])
        return len(self.pairs)


WORKLOADS = {
    # the paper's per-pair verdict: n=6065, default grids, three schemes
    "paper-ensemble": Workload(
        pairs=(("grain0", "unc0"),),
        run={"n_surrogates": 6, "schemes": (1, 2, 3), "workers": 1},
        warmup={"n_surrogates": 1},
    ),
    # 6 x 3 pairs, everything but the ensembles
    "paper-grid": Workload(
        pairs=tuple((g, u) for g in GRAINS for u in UNCERTAINTIES),
        run={"n_surrogates": 0, "workers": 1},
    ),
    # a 2^16-point cascade against itself, scheme 3 on two threads
    "cascade-long": Workload(
        pairs=(("cascade", "cascade"),),
        run={"n_surrogates": 10, "schemes": (3,), "workers": 2,
             "scale_min": 16, "scale_max": 4096, "n_scales": 30},
        warmup={"n_surrogates": 2},
    ),
}
