"""Correctness checks on a run's output directories.

Every expected value is computed here from the method's definitions with
numpy and scipy, or is a property the method must have; nothing is
compared against a stored copy of earlier output, and nothing here
imports the program.  Each check returns a list of failure messages,
empty when it passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

F_RTOL = 1e-9
QCC_RTOL = 1e-9
CRIT_RTOL = 1e-6
IDENTITY_TOL = 1e-9
CASCADE_TAU_TOL = 0.1
CASCADE_P_MAX = 0.10


def read_csv(path: Path) -> dict[str, list[str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cols: dict[str, list[str]] = {h: [] for h in header}
    for line in lines[1:]:
        for h, cell in zip(header, line.split(",")):
            cols[h].append(cell)
    return cols


def floats(cells: list[str]) -> np.ndarray:
    return np.array([float(c) for c in cells])


def _levels(path: Path) -> tuple[np.ndarray, np.ndarray]:
    cols = read_csv(path)
    return np.array(cols["date"], dtype="datetime64[D]"), floats(cols["value"])


def aligned_returns(x_csv: Path, y_csv: Path) -> tuple[np.ndarray, np.ndarray]:
    """Log returns of the two level series over their common dates."""
    dx, vx = _levels(x_csv)
    dy, vy = _levels(y_csv)
    _, ix, iy = np.intersect1d(dx, dy, return_indices=True)
    return np.diff(np.log(vx[ix])), np.diff(np.log(vy[iy]))


def _rel(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Qcc
# ---------------------------------------------------------------------------

def qcc_definition(x: np.ndarray, y: np.ndarray, m_max: int) -> np.ndarray:
    """Qcc(m) for m = 1..m_max: N^2 sum_{i=1..m} X_i^2 / (N - i), with
    X_i = sum_k x_k y_{k-i} / sqrt(sum x^2 sum y^2)."""
    n = x.size
    denom = math.sqrt(float(x @ x) * float(y @ y))
    terms = np.empty(m_max)
    for i in range(1, m_max + 1):
        xi = float(x[i:] @ y[: n - i]) / denom
        terms[i - 1] = xi * xi / (n - i)
    return n * n * np.cumsum(terms)


def check_qcc(pair_dir: Path, x: np.ndarray, y: np.ndarray, level: float,
              m_max: int) -> list[str]:
    cols = read_csv(pair_dir / "qcc.csv")
    m = np.array([int(c) for c in cols["m"]])
    qcc = floats(cols["qcc"])
    critical = floats(cols["critical"])
    reject = np.array([c == "true" for c in cols["reject"]])
    if not np.array_equal(m, np.arange(1, m_max + 1)):
        return [f"{pair_dir.name}: qcc.csv lag depths are not 1..{m_max}"]
    errors = []
    for name, got, expect, rtol in (
            ("Qcc", qcc, qcc_definition(x, y, m_max), QCC_RTOL),
            ("critical value", critical, stats.chi2.isf(level, m), CRIT_RTOL)):
        bad = np.flatnonzero(_rel(got, expect) > rtol)
        if bad.size:
            i = bad[0]
            errors.append(f"{pair_dir.name}: {name} at m={m[i]} {float(got[i])!r} != "
                          f"{float(expect[i])!r} ({bad.size} lags off)")
    if not np.array_equal(reject, qcc > critical):
        errors.append(f"{pair_dir.name}: reject flags disagree with Qcc > critical")
    return errors


# ---------------------------------------------------------------------------
# fluctuation surface, Hurst exponents, spectrum
# ---------------------------------------------------------------------------

def dma_fluctuation(x: np.ndarray, y: np.ndarray, s: int,
                    q_grid: np.ndarray) -> np.ndarray:
    """F_xy(q, s) by backward moving-average detrending of the profiles.

    The residual at the trailing edge of the window z_j..z_{j+s-1} is
    z_{j+s-1} - mean(window) = (1/s) sum_{m=1}^{s-1} m (z_{j+m} - z_{j+m-1}),
    a weighted sum of profile increments, so no large profile values
    cancel.  Residuals are cut into floor((N-s+1)/s) disjoint segments."""
    weights = np.arange(s, dtype=np.float64) / s
    ex = np.correlate(np.diff(np.cumsum(x), prepend=0.0), weights, mode="valid")
    ey = np.correlate(np.diff(np.cumsum(y), prepend=0.0), weights, mode="valid")
    n_seg = ex.size // s
    fv = np.abs(ex[: n_seg * s] * ey[: n_seg * s]).reshape(n_seg, s).mean(axis=1)
    out = np.empty(q_grid.size)
    for i, q in enumerate(q_grid):
        if q == 0.0:
            out[i] = np.exp(0.5 * np.mean(np.log(fv)))
        else:
            out[i] = np.mean(fv ** (q / 2.0)) ** (1.0 / q)
    return out


def read_surface(pair_dir: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cols = read_csv(pair_dir / "figdata" / "fluctuation.csv")
    q, s, f = floats(cols["q"]), floats(cols["s"]), floats(cols["F"])
    q_grid = np.unique(q)
    scales = np.unique(s)
    if q.size != q_grid.size * scales.size:
        raise ValueError(f"{pair_dir.name}: fluctuation.csv is not a full q x s grid")
    # rows are written q-major, s-minor
    return q_grid, scales, f.reshape(q_grid.size, scales.size)


def check_fluctuation(pair_dir: Path, x: np.ndarray, y: np.ndarray) -> list[str]:
    """Every cell of the surface against dma_fluctuation."""
    q_grid, scales, values = read_surface(pair_dir)
    errors = []
    for j, s in enumerate(scales):
        expect = dma_fluctuation(x, y, int(s), q_grid)
        rel = _rel(values[:, j], expect)
        if rel.max() > F_RTOL:
            i = int(rel.argmax())
            errors.append(f"{pair_dir.name}: F(q={q_grid[i]}, s={s:g}) "
                          f"{float(values[i, j])!r} != {float(expect[i])!r}")
    return errors


def read_spectrum(pair_dir: Path) -> dict[str, np.ndarray]:
    return {k: floats(v) for k, v in read_csv(pair_dir / "spectrum.csv").items()}


def check_hurst(pair_dir: Path) -> list[str]:
    q_grid, scales, values = read_surface(pair_dir)
    sp = read_spectrum(pair_dir)
    if not np.array_equal(sp["q"], q_grid):
        return [f"{pair_dir.name}: spectrum.csv and fluctuation.csv q grids differ"]
    slopes = np.array([np.polyfit(np.log(scales), np.log(row), 1)[0]
                       for row in values])
    bad = np.flatnonzero(np.abs(sp["H"] - slopes) > IDENTITY_TOL)
    if bad.size:
        i = bad[0]
        return [f"{pair_dir.name}: H(q={q_grid[i]}) {float(sp['H'][i])!r} != "
                f"polyfit slope {float(slopes[i])!r}"]
    return []


def check_spectrum(pair_dir: Path) -> list[str]:
    sp = read_spectrum(pair_dir)
    q, h, tau, alpha, f = sp["q"], sp["H"], sp["tau"], sp["alpha"], sp["f"]
    errors = []
    i0 = np.flatnonzero(q == 0.0)
    if i0.size != 1:
        return [f"{pair_dir.name}: q grid has no single q=0 row"]
    i0 = int(i0[0])
    if abs(tau[i0] + 1.0) > IDENTITY_TOL:
        errors.append(f"{pair_dir.name}: tau(0) = {float(tau[i0])!r}, not -1")
    if abs(f[i0] - 1.0) > IDENTITY_TOL:
        errors.append(f"{pair_dir.name}: f(alpha(0)) = {float(f[i0])!r}, not 1")
    bad = np.flatnonzero(np.abs(tau - (q * h - 1.0)) > IDENTITY_TOL)
    if bad.size:
        errors.append(f"{pair_dir.name}: tau != qH - 1 at q={q[bad[0]]}")
    bad = np.flatnonzero(np.abs(f - (q * alpha - tau)) > IDENTITY_TOL)
    if bad.size:
        errors.append(f"{pair_dir.name}: f != q alpha - tau at q={q[bad[0]]}")
    return errors


# ---------------------------------------------------------------------------
# surrogate ensembles and the cascade oracle
# ---------------------------------------------------------------------------

SCHEME_SLUGS = {1: "iaaft_x_orig_y", 2: "orig_x_iaaft_y", 3: "iaaft_x_iaaft_y"}


def check_surrogates(pair_dir: Path, schemes, requested: int) -> list[str]:
    errors = []
    for scheme in schemes:
        slug = SCHEME_SLUGS[scheme]
        path = pair_dir / f"surrogate_{slug}.csv"
        if not path.exists():
            errors.append(f"{pair_dir.name}: scheme {scheme} wrote no {path.name}")
            continue
        row = {k: v[0] for k, v in read_csv(path).items()}
        n, excluded, p = int(row["n"]), int(row["excluded"]), float(row["p_value"])
        if n + excluded != requested:
            errors.append(f"{pair_dir.name}: scheme {scheme} n {n} + excluded "
                          f"{excluded} != {requested} requested")
        if abs(p * n - round(p * n)) > 1e-9 * max(n, 1):
            errors.append(f"{pair_dir.name}: scheme {scheme} p {p!r} x n {n} "
                          f"is not a whole count")
        hist = read_csv(pair_dir / "figdata" / f"width_hist_{slug}.csv")
        counts = sum(int(c) for c in hist["count"])
        if counts != n:
            errors.append(f"{pair_dir.name}: scheme {scheme} histogram holds "
                          f"{counts} members, not {n}")
    return errors


def cascade_tau(q: np.ndarray, p: float) -> np.ndarray:
    return -np.log2(p ** q + (1.0 - p) ** q)


def check_cascade(pair_dir: Path, p: float, schemes) -> list[str]:
    sp = read_spectrum(pair_dir)
    errors = []
    dev = np.abs(sp["tau"] - cascade_tau(sp["q"], p))
    if dev.max() > CASCADE_TAU_TOL:
        i = int(dev.argmax())
        errors.append(f"{pair_dir.name}: cascade tau(q={sp['q'][i]}) off the "
                      f"closed form by {dev[i]:.4f} (tolerance {CASCADE_TAU_TOL})")
    if 3 in schemes:
        path = pair_dir / f"surrogate_{SCHEME_SLUGS[3]}.csv"
        if path.exists():
            pv = float(read_csv(path)["p_value"][0])
            if not pv < CASCADE_P_MAX:
                errors.append(f"{pair_dir.name}: cascade scheme-3 p-value {pv} "
                              f"is not below {CASCADE_P_MAX}")
    return errors


# ---------------------------------------------------------------------------
# determinism between passes
# ---------------------------------------------------------------------------

def _files(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*")) if p.is_file()}


def check_identical(reference: Path, other: Path) -> list[str]:
    """Byte-identical trees, except the provenance `runtime` block."""
    ref, oth = _files(reference), _files(other)
    if set(ref) != set(oth):
        return [f"{other.name}: file set differs from {reference.name}: "
                f"{sorted(set(ref) ^ set(oth))[:3]}"]
    errors = []
    for rel, path in ref.items():
        a, b = path.read_bytes(), oth[rel].read_bytes()
        if path.name == "provenance.json":
            da, db = json.loads(a), json.loads(b)
            da.pop("runtime", None)
            db.pop("runtime", None)
            same = da == db
        else:
            same = a == b
        if not same:
            errors.append(f"{other.name}/{rel} differs from {reference.name}")
    return errors


def check_pair(pair_dir: Path, x: np.ndarray, y: np.ndarray, *, level: float,
               m_max: int, schemes, n_surrogates: int,
               cascade_p: float | None) -> list[str]:
    """All output checks of one pair's directory."""
    for name in ("qcc.csv", "spectrum.csv", "tau_fit.csv", "summary.json",
                 "provenance.json", "figdata/fluctuation.csv"):
        if not (pair_dir / name).exists():
            return [f"{pair_dir.name}: {name} missing"]
    errors = check_qcc(pair_dir, x, y, level, m_max)
    errors += check_fluctuation(pair_dir, x, y)
    errors += check_hurst(pair_dir)
    errors += check_spectrum(pair_dir)
    if n_surrogates:
        errors += check_surrogates(pair_dir, schemes, n_surrogates)
    if cascade_p is not None:
        errors += check_cascade(pair_dir, cascade_p, schemes)
    return errors
