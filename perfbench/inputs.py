"""Seeded input series for the benchmark workloads.

Everything here is generated with numpy alone, so the program under test
only ever sees CSV files.  The same seed always gives the same bytes.

- grain-like: daily log returns with long memory (fGn, H=0.6) whose
  volatility clusters (log-volatility is a persistent fGn, H=0.9);
- uncertainty-like: spiky, heavy-tailed returns (Student-t with 3 degrees
  of freedom) with a volatility that follows its own large moves, plus
  coupling to one grain series at lags 1, 2 and 5;
- both kinds then get a marginal distribution that does not depend on the
  seed: the values are replaced, rank for rank, by one sorted sample drawn
  with a fixed seed.  The seed sets the order of the values (memory,
  clustering, coupling), not the values.  IAAFT iterations grow with tail
  weight, and a sample t(3) tail swings widely from draw to draw, so
  without this the work of a run followed the seed (a CV of 8.7% in the
  IAAFT iterations of ten paper-ensemble seeds, against 3.4% with it);
- cascade: the binomial multiplicative cascade (p=0.3, 2^16 cells, left
  child always p); its log levels are the cumulative mass, so its log
  returns are the cell masses and tau(q) = -log2(p^q + (1-p)^q).  It does
  not depend on the seed: a seeded branch order keeps the measure's
  partition sums but moved the moving-average estimate of tau(-5) 0.28
  off the closed form, so the oracle would test the estimator's bias
  on that ordering rather than the program.  The seed still sets the
  surrogate seeds of the run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from workloads import GRAINS, UNCERTAINTIES

PAPER_N = 6065           # returns per aligned pair, as in the paper
CASCADE_P = 0.3
CASCADE_LEVELS = 16
_EXTRA_DATES = 10        # each side misses 5 of these, so the other 5 pad
MARGINAL_SEED = 20241003
START = np.datetime64("2000-01-03", "D")


def fgn(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Fractional Gaussian noise by circulant embedding, scaled to unit
    sample variance."""
    k = np.arange(n + 1, dtype=np.float64)
    two_h = 2.0 * hurst
    gamma = 0.5 * ((k + 1) ** two_h - 2.0 * k ** two_h + np.abs(k - 1) ** two_h)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.maximum(np.fft.rfft(row).real, 0.0)
    m = row.size
    w = np.sqrt(lam / m) * (rng.standard_normal(lam.size)
                            + 1j * rng.standard_normal(lam.size))
    out = np.fft.irfft(w, n=m)[:n]
    return out / out.std()


def grain_returns(n: int, rng: np.random.Generator) -> np.ndarray:
    base = fgn(n, 0.6, rng)
    log_vol = fgn(n, 0.9, rng)
    log_vol = 0.5 * (log_vol - log_vol.mean())
    return 0.012 * np.exp(log_vol) * base


def uncertainty_returns(n: int, grain: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    shocks = rng.standard_t(3, size=n)
    vol = np.empty(n)
    level = 1.0
    for t in range(n):
        vol[t] = level
        level = 0.2 + 0.75 * level + 0.05 * min(abs(shocks[t]), 10.0)
    z = grain / grain.std()
    coupled = np.zeros(n)
    for lag, weight in ((1, 0.30), (2, 0.20), (5, 0.15)):
        coupled[lag:] += weight * z[:-lag]
    return vol * shocks + coupled


def cascade_returns(levels: int = CASCADE_LEVELS) -> np.ndarray:
    """Cell masses of the binomial cascade: a cell with k right turns in
    its address holds p^(levels-k) (1-p)^k."""
    mass = np.array([1.0])
    for _ in range(levels):
        nxt = np.empty(2 * mass.size)
        nxt[0::2] = mass * CASCADE_P
        nxt[1::2] = mass * (1.0 - CASCADE_P)
        mass = nxt
    return mass


def _with_marginal(values: np.ndarray, sorted_target: np.ndarray) -> np.ndarray:
    """sorted_target rearranged into the rank order of values."""
    out = np.empty_like(sorted_target)
    out[np.argsort(values, kind="stable")] = sorted_target
    return out


def _fixed_marginals(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(MARGINAL_SEED)
    grain = np.sort(grain_returns(n, rng))
    uncertainty = np.sort(0.06 * rng.standard_t(3, size=n))
    return grain, uncertainty


def weekdays(count: int) -> np.ndarray:
    days = START + np.arange(2 * count, dtype=np.int64)
    weekday = (days.astype(np.int64) + 3) % 7   # 1970-01-01 was a Thursday
    return days[weekday < 5][:count]


def write_levels(path: Path, dates: np.ndarray, returns: np.ndarray,
                 start_level: float) -> None:
    levels = start_level * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,value\n")
        for d, v in zip(dates, levels):
            fh.write(f"{d},{float(v)!r}\n")


def paper_series(seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """name -> (dates, returns over those dates) for the 6 grain-like and
    3 uncertainty-like series.  Grains skip 5 of 10 spare dates and
    uncertainties the other 5, so every grain x uncertainty pair aligns
    on exactly PAPER_N + 1 dates."""
    rng = np.random.default_rng([seed, 6065])
    all_dates = weekdays(PAPER_N + 1 + _EXTRA_DATES)
    spare = rng.choice(np.arange(1, all_dates.size - 1), _EXTRA_DATES,
                       replace=False)
    grain_dates = np.delete(all_dates, spare[:5])
    uncertainty_dates = np.delete(all_dates, spare[5:])
    n_ret = grain_dates.size - 1
    grain_values, uncertainty_values = _fixed_marginals(n_ret)
    out = {}
    grains = []
    for name in GRAINS:
        grains.append(_with_marginal(grain_returns(n_ret, rng), grain_values))
        out[name] = (grain_dates, grains[-1])
    for name, grain in zip(UNCERTAINTIES, grains):
        r = uncertainty_returns(n_ret, grain, rng)
        out[name] = (uncertainty_dates, _with_marginal(r, uncertainty_values))
    return out


def write_inputs(workload_pairs, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write the CSV files a workload's pairs name; returns name -> path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    names = sorted({n for pair in workload_pairs for n in pair})
    paths = {}
    paper = None
    for name in names:
        path = out_dir / f"{name}.csv"
        paths[name] = path
        if name == "cascade":
            m = cascade_returns()
            write_levels(path, START + np.arange(m.size + 1), m, 1.0)
        else:
            if paper is None:
                paper = paper_series(seed)
            dates, r = paper[name]
            write_levels(path, dates, r, 100.0)
    return paths
