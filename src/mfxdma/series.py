"""Loading, validation and alignment of dated value series."""

from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np


_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_DIGIT_PLACES = [0, 1, 2, 3, 5, 6, 8, 9]  # of YYYY-MM-DD


class SeriesError(ValueError):
    """Raised for malformed or inconsistent input series."""


@dataclass(frozen=True)
class RawSeries:
    """A labeled sequence of dated positive levels, sorted by date."""

    label: str
    dates: np.ndarray  # datetime64[D], strictly increasing
    values: np.ndarray  # float64, positive

    def __post_init__(self):
        if self.dates.shape != self.values.shape or self.dates.ndim != 1:
            raise SeriesError(f"{self.label}: dates/values shape mismatch")
        if self.values.size < 2:
            raise SeriesError(f"{self.label}: need at least 2 observations")
        if not np.all(np.isfinite(self.values)):
            raise SeriesError(f"{self.label}: non-finite value present")
        if np.any(self.values <= 0.0):
            raise SeriesError(f"{self.label}: non-positive value present")
        if np.any(np.diff(self.dates).astype(int) <= 0):
            raise SeriesError(f"{self.label}: dates not strictly increasing")

    @property
    def length(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns with the date of the later observation of each pair."""

    label: str
    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.dates.shape != self.values.shape or self.dates.ndim != 1:
            raise SeriesError(f"{self.label}: dates/values shape mismatch")
        if not np.all(np.isfinite(self.values)):
            raise SeriesError(f"{self.label}: non-finite return present")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class AlignedPair:
    x: ReturnSeries
    y: ReturnSeries

    def __post_init__(self):
        if self.x.n != self.y.n:
            raise SeriesError("pair lengths differ")
        if not np.array_equal(self.x.dates, self.y.dates):
            raise SeriesError("pair dates differ")

    @property
    def n(self) -> int:
        return self.x.n


def load_csv(path, date_column: str = "date", value_column: str = "value",
             label: str | None = None) -> RawSeries:
    """Read a dated series from a UTF-8 CSV with a header row.

    Dates must be ISO-8601 calendar days written YYYY-MM-DD, values
    positive decimal reals.  A byte-order mark is skipped, blank lines are
    ignored, and an error names the file line of the first bad row (its
    date is checked before its value).  Rows are sorted by date on load;
    duplicate dates are an error.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SeriesError(f"{path}: empty file, expected a header row")
            for col in (date_column, value_column):
                if col not in header:
                    raise SeriesError(
                        f"{path}: missing column {col!r} (header has {header})")
                if header.count(col) > 1:
                    raise SeriesError(f"{path}: header names column {col!r} "
                                      f"{header.count(col)} times")
            di, vi = header.index(date_column), header.index(value_column)
            width = max(di, vi) + 1
            dates, values = [], []
            unparsed = None
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [""] * (width - len(row))
                dates.append(row[di].strip())
                try:
                    values.append(float(row[vi]))
                except ValueError:
                    unparsed = row[vi].strip()
                    break
    except FileNotFoundError:
        raise SeriesError(f"input file not found: {path}") from None
    except OSError as exc:
        raise SeriesError(
            f"cannot read input file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise SeriesError(
            f"{path}: not UTF-8 text ({exc.reason}, byte 0x{bad:02x})") from None
    dates_arr, bad_date = _iso_days(dates)
    values_arr = np.array(values, dtype=np.float64)
    wrong = np.flatnonzero(~((values_arr > 0.0) & (values_arr < math.inf)))
    bad_value = (int(wrong[0]) if wrong.size
                 else len(values) if unparsed is not None else None)
    # the first bad row is reported, and a row's date before its value
    if bad_date is not None and (bad_value is None or bad_date <= bad_value):
        raise SeriesError(f"{path} row {_data_row(path, bad_date)[0]}: "
                          f"unparseable date {dates[bad_date]!r}")
    if bad_value is not None:
        line, row = _data_row(path, bad_value)
        why = (f"value must be a positive finite real, got {row[vi].strip()}"
               if wrong.size else f"unparseable value {unparsed!r}")
        raise SeriesError(f"{path} row {line}: {why}")
    if len(values) < 2:
        raise SeriesError(f"{path}: need at least 2 data rows, got {len(values)}")
    order = np.argsort(dates_arr, kind="stable")
    dates_arr = dates_arr[order]
    values_arr = values_arr[order]
    dup = np.nonzero(np.diff(dates_arr).astype(int) == 0)[0]
    if dup.size:
        raise SeriesError(f"{path}: duplicate date {dates_arr[dup[0]]}")
    return RawSeries(label=label or str(path), dates=dates_arr, values=values_arr)


def _iso_days(texts: list[str]) -> tuple[np.ndarray | None, int | None]:
    """texts as datetime64[D], or None and the index of the first one that
    is not a YYYY-MM-DD calendar day."""
    # One byte per character, each text followed by a comma: the texts
    # are all days exactly when this is n rows of "DDDD-DD-DD,", as a
    # text of another length or with a comma in it shifts a later comma.
    joined = np.frombuffer((",".join(texts) + ",").encode(), dtype=np.uint8)
    if joined.size == 11 * len(texts):
        rows = joined.reshape(-1, 11)
        if (np.all(rows[:, _DIGIT_PLACES] - ord("0") < 10)
                and np.all(rows[:, [4, 7]] == ord("-"))
                and np.all(rows[:, 10] == ord(","))):
            try:
                return np.array(texts, dtype="datetime64[D]"), None
            except ValueError:  # a month or a day out of range
                pass
    for i, text in enumerate(texts):
        if not _ISO_DAY.fullmatch(text):
            return None, i
        try:
            np.datetime64(text, "D")
        except ValueError:
            return None, i
    return np.array(texts, dtype="datetime64[D]"), None


def _data_row(path, index: int) -> tuple[int, list[str]]:
    """The file line and the fields of the index-th non-blank row after
    the header (the last line of a row whose quoted field spans lines)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = ((reader.line_num, row) for row in reader if row)
        return next(itertools.islice(rows, index, None))


def log_returns(s: RawSeries) -> ReturnSeries:
    """First differences of log levels, dated by the later observation."""
    if s.length < 2:
        raise SeriesError(f"{s.label}: need at least 2 observations for returns")
    vals = np.diff(np.log(s.values))
    return ReturnSeries(label=s.label, dates=s.dates[1:], values=vals)


def align(a: RawSeries, b: RawSeries) -> AlignedPair:
    """Intersect on dates, then take log returns of each side.

    Dates present in only one series are dropped; no interpolation is
    performed, so every return spans exactly one retained-date step.
    """
    common, ia, ib = np.intersect1d(a.dates, b.dates, return_indices=True)
    if common.size < 3:
        raise SeriesError(
            f"series {a.label!r} and {b.label!r} share only {common.size} dates; need >= 3"
        )
    ra = RawSeries(label=a.label, dates=common, values=a.values[ia])
    rb = RawSeries(label=b.label, dates=common, values=b.values[ib])
    return AlignedPair(x=log_returns(ra), y=log_returns(rb))
