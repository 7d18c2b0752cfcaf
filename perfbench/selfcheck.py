"""Self-check of the benchmark's correctness checks, on small inputs.

    python3 perfbench/selfcheck.py

Runs the program on a short grain-like/uncertainty-like pair and on a
short cascade, shows that every check passes on the real output, and
that each one fails on a copy with a single corrupted value.  Exits 0
when every expectation holds, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402

N = 1500
LEVEL = 0.05
M_MAX = 100
MEMBERS = 4
CASCADE_LEVELS = 14


def _write_pair(tmp: Path) -> tuple[Path, Path]:
    rng = np.random.default_rng(7)
    dates = inputs.weekdays(N + 1)
    x = inputs.grain_returns(N, rng)
    y = inputs.uncertainty_returns(N, x, rng)
    inputs.write_levels(tmp / "x.csv", dates, x, 100.0)
    inputs.write_levels(tmp / "y.csv", dates, y, 100.0)
    return tmp / "x.csv", tmp / "y.csv"


def _write_cascade(tmp: Path) -> Path:
    mass = inputs.cascade_returns(CASCADE_LEVELS)
    path = tmp / "c.csv"
    inputs.write_levels(path, inputs.START + np.arange(mass.size + 1), mass, 1.0)
    return path


def _corrupt(src: Path, dst: Path, rel: str, column: str, row: int, change) -> None:
    """Copy a pair directory and replace one CSV cell with change(cell)."""
    shutil.copytree(src, dst)
    path = dst / rel
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[1 + row].split(",")
    cells[col] = change(cells[col])
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _nudge(cell: str) -> str:
    return repr(float(cell) * (1.0 + 1e-6))


def main() -> int:
    from mfxdma.pipeline import RunConfig, run_analysis
    from mfxdma.surrogate import SurrogateScheme

    ok = True

    def expect(passes: bool, errors: list[str], what: str) -> None:
        nonlocal ok
        good = (not errors) if passes else bool(errors)
        ok &= good
        detail = "" if passes or not errors else f": {errors[0]}"
        print(f"[{'PASS' if good else 'FAIL'}] {what}{detail}")
        if passes and errors:
            for e in errors[:5]:
                print(f"       {e}")

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp_name:
        tmp = Path(tmp_name)
        xp, yp = _write_pair(tmp)
        config = RunConfig(input_x=str(xp), input_y=str(yp), master_seed=3,
                           out_dir=str(tmp / "run1"), n_surrogates=MEMBERS,
                           scale_max=N // 5, qcc_m_max=M_MAX, workers=1)
        run_analysis(config)
        run_analysis(dataclasses.replace(config, out_dir=str(tmp / "run2")))
        cp = _write_cascade(tmp)
        cascade = RunConfig(input_x=str(cp), input_y=str(cp), master_seed=3,
                            out_dir=str(tmp / "cascade"), n_surrogates=MEMBERS,
                            schemes=(SurrogateScheme.IAAFT_X_IAAFT_Y,),
                            scale_min=16, scale_max=2048, workers=1)
        run_analysis(cascade)

        real = tmp / "run1"
        x, y = checks.aligned_returns(xp, yp)
        c, _ = checks.aligned_returns(cp, cp)
        schemes = (1, 2, 3)
        expect(True, checks.check_pair(real, x, y, level=LEVEL, m_max=M_MAX,
                                       schemes=schemes, n_surrogates=MEMBERS,
                                       cascade_p=None),
               "every check passes on real output")
        expect(True, checks.check_pair(tmp / "cascade", c, c, level=LEVEL,
                                       m_max=1000, schemes=(3,),
                                       n_surrogates=MEMBERS,
                                       cascade_p=inputs.CASCADE_P),
               "every check, the cascade oracle too, passes on a cascade run")
        expect(True, checks.check_identical(real, tmp / "run2"),
               "two runs are identical outside the provenance runtime block")

        cases = [
            ("F cell", "figdata/fluctuation.csv", "F", 3, _nudge,
             lambda d: checks.check_fluctuation(d, x, y)),
            ("Qcc value", "qcc.csv", "qcc", 40, _nudge,
             lambda d: checks.check_qcc(d, x, y, LEVEL, M_MAX)),
            ("critical value", "qcc.csv", "critical", 60,
             lambda v: repr(float(v) * (1.0 + 1e-5)),
             lambda d: checks.check_qcc(d, x, y, LEVEL, M_MAX)),
            ("p-value", "surrogate_orig_x_iaaft_y.csv", "p_value", 0,
             lambda v: repr(float(v) + 0.01),
             lambda d: checks.check_surrogates(d, schemes, MEMBERS)),
            ("histogram count", "figdata/width_hist_iaaft_x_orig_y.csv", "count",
             5, lambda v: str(int(v) + 1),
             lambda d: checks.check_surrogates(d, schemes, MEMBERS)),
            ("spectrum row (tau)", "spectrum.csv", "tau", 12, _nudge,
             checks.check_spectrum),
            ("spectrum row (H)", "spectrum.csv", "H", 30, _nudge,
             checks.check_hurst),
        ]
        for k, (what, rel, column, row, change, check) in enumerate(cases):
            bad = tmp / f"bad{k}"
            _corrupt(real, bad, rel, column, row, change)
            expect(False, check(bad), f"check rejects one corrupted {what}")
            expect(False, checks.check_identical(real, bad),
                   f"determinism check sees the corrupted {what}")

        bad = tmp / "bad-cascade"
        _corrupt(tmp / "cascade", bad, "spectrum.csv", "tau", 0,
                 lambda v: repr(float(v) + 0.2))
        expect(False, checks.check_cascade(bad, inputs.CASCADE_P, (3,)),
               "cascade oracle rejects tau(-5) moved by 0.2")

        prov = tmp / "bad-provenance"
        shutil.copytree(real, prov)
        doc = json.loads((prov / "provenance.json").read_text(encoding="utf-8"))
        doc["runtime"]["wall_seconds"] = -1.0
        (prov / "provenance.json").write_text(json.dumps(doc), encoding="utf-8")
        expect(True, checks.check_identical(real, prov),
               "determinism check ignores the provenance runtime block")
        doc["master_seed"] += 1
        (prov / "provenance.json").write_text(json.dumps(doc), encoding="utf-8")
        expect(False, checks.check_identical(real, prov),
               "determinism check sees a change elsewhere in provenance")
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
