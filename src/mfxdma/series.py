"""Loading, validation and alignment of dated value series."""

from __future__ import annotations

import csv
import functools
import io
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
    positive decimal reals in ASCII (no '_' digit separators).  A
    byte-order mark is skipped, blank lines are ignored, and an error
    names the file line of the first bad row (its date is checked before
    its value), also when a non-UTF-8 byte follows that row.  The input
    is read once, whole, and parsed up to its first bad row, so a pipe
    gets the same errors as a file.  Rows are sorted by date on load;
    duplicate dates are an error.

    Each distinct content is parsed once per process (the parses of up
    to 16 inputs are kept), so the returned series' dates and values are
    read-only arrays, which loads of the same bytes share.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise SeriesError(f"input file not found: {path}") from None
    except OSError as exc:
        raise SeriesError(
            f"cannot read input file {path}: {exc.strerror}") from None
    try:
        dates, values = _parse(data, date_column, value_column)
    except _BadInput as exc:
        where = path if exc.row is None else f"{path} row {exc.row}"
        raise SeriesError(f"{where}: {exc}") from None
    return RawSeries(label=label or str(path), dates=dates, values=values)


# Parses _parse keeps, by content: the paper's grid reads 9 inputs.
_PARSED_INPUTS = 16


class _BadInput(Exception):
    """A parse error without the input's path; row is the file line of
    the bad row, if a row is at fault."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


@functools.lru_cache(maxsize=_PARSED_INPUTS)
def _parse(data: bytes, date_column: str, value_column: str
           ) -> tuple[np.ndarray, np.ndarray]:
    """The dates and values of a CSV's bytes, sorted by date, as
    read-only arrays.

    A pure function of its arguments, so a memo of it never serves stale
    data: a changed file is new bytes.  Errors raise and so are never
    kept.
    """
    not_utf8 = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the complete lines before the bad byte are parsed, so that a
        # bad row among them is reported in its place
        not_utf8 = (f"not UTF-8 text ({exc.reason}, "
                    f"byte 0x{data[exc.start]:02x})")
        data = data[:max(data.rfind(b"\n", 0, exc.start),
                         data.rfind(b"\r", 0, exc.start)) + 1]
    # decoded again, block by block: a StringIO of the whole text would
    # hold 4 bytes a character
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data),
                                         encoding="utf-8-sig", newline=""))
    header = next(reader, None)
    if header is None:
        raise _BadInput(not_utf8 or "empty file, expected a header row")
    for col in (date_column, value_column):
        if col not in header:
            raise _BadInput(f"missing column {col!r} (header has {header})")
        if header.count(col) > 1:
            raise _BadInput(
                f"header names column {col!r} {header.count(col)} times")
    di, vi = header.index(date_column), header.index(value_column)
    width = max(di, vi) + 1
    dates, values, lines = [], [], []
    bad_value = None
    for row in reader:
        if len(row) < width:
            if not row:
                continue
            row += [""] * (width - len(row))
        dates.append(row[di].strip())
        lines.append(reader.line_num)
        cell = row[vi]
        try:
            # float() also takes digit separators ('1_5') and non-ASCII
            # digits and spaces
            if not cell.isascii() or "_" in cell:
                raise ValueError(cell)
            value = float(cell)
        except ValueError:
            bad_value = f"unparseable value {cell.strip()!r}"
            break
        if not 0.0 < value < math.inf:
            bad_value = ("value must be a positive finite real, "
                         f"got {cell.strip()}")
            break
        values.append(value)
    # the rows end at the first bad value, so a bad date among them is
    # the first bad row: a row's date is checked before its value
    dates_arr, bad_date = _iso_days(dates)
    if bad_date is not None:
        raise _BadInput(f"unparseable date {dates[bad_date]!r}",
                        lines[bad_date])
    if bad_value is not None:
        raise _BadInput(bad_value, lines[-1])
    if not_utf8 is not None:
        raise _BadInput(not_utf8)
    if len(values) < 2:
        raise _BadInput(f"need at least 2 data rows, got {len(values)}")
    order = np.argsort(dates_arr, kind="stable")
    dates_arr = dates_arr[order]
    values_arr = np.array(values, dtype=np.float64)[order]
    dup = np.nonzero(np.diff(dates_arr).astype(int) == 0)[0]
    if dup.size:
        raise _BadInput(f"duplicate date {dates_arr[dup[0]]}")
    dates_arr.flags.writeable = False
    values_arr.flags.writeable = False
    return dates_arr, values_arr


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
