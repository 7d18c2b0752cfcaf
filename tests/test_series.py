import math
import os
import re
import threading

import numpy as np
import pytest

from mfxdma import cli, series
from mfxdma.series import RawSeries, SeriesError, align, load_csv, log_returns


def _raw(dates, values, label="s"):
    return RawSeries(label=label,
                     dates=np.array(dates, dtype="datetime64[D]"),
                     values=np.array(values, dtype=np.float64))


def _write(tmp_path, text, name="in.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


@pytest.fixture
def read_once():
    """Make /dev/fd/N paths of pipes that a thread fills with a text."""
    pipes = []

    def make(text):
        r, w = os.pipe()
        writer = threading.Thread(target=_write_fd, args=(w, text),
                                  daemon=True)
        writer.start()
        pipes.append((r, writer))
        return f"/dev/fd/{r}"

    yield make
    for r, writer in pipes:
        writer.join(timeout=10)
        os.close(r)


def _write_fd(fd, text):
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text)


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        p = _write(tmp_path, "date,value\n2020-01-01,100\n2020-01-02,110\n2020-01-03,105\n")
        s = load_csv(p)
        assert s.length == 3
        assert s.values.tolist() == [100.0, 110.0, 105.0]
        assert str(s.dates[0]) == "2020-01-01"

    def test_unsorted_rows_are_sorted(self, tmp_path):
        p = _write(tmp_path, "date,value\n2020-01-03,105\n2020-01-01,100\n2020-01-02,110\n")
        s = load_csv(p)
        assert s.values.tolist() == [100.0, 110.0, 105.0]

    def test_duplicate_date_rejected(self, tmp_path):
        p = _write(tmp_path, "date,value\n2020-01-01,100\n2020-01-02,110\n2020-01-02,105\n")
        with pytest.raises(SeriesError, match="2020-01-02"):
            load_csv(p)

    def test_negative_value_rejected(self, tmp_path):
        p = _write(tmp_path, "date,value\n2020-01-01,100\n2020-01-02,-5\n")
        with pytest.raises(SeriesError, match="row 3"):
            load_csv(p)

    def test_zero_value_rejected(self, tmp_path):
        p = _write(tmp_path, "date,value\n2020-01-01,100\n2020-01-02,0\n")
        with pytest.raises(SeriesError, match="positive"):
            load_csv(p)

    def test_malformed_date_reports_row(self, tmp_path):
        p = _write(tmp_path, "date,value\n2020-01-01,100\nnot-a-date,110\n")
        with pytest.raises(SeriesError, match="row 3"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SeriesError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_non_utf8_byte_names_file(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"date,value\n2020-01-01,100\n2020-01-02,1\xff1\n")
        with pytest.raises(SeriesError) as info:
            load_csv(p)
        assert str(info.value) == (
            f"{p}: not UTF-8 text (invalid start byte, byte 0xff)")

    def test_missing_column(self, tmp_path):
        p = _write(tmp_path, "day,value\n2020-01-01,100\n")
        with pytest.raises(SeriesError, match="date"):
            load_csv(p)

    def test_custom_columns(self, tmp_path):
        p = _write(tmp_path, "day,close,junk\n2020-01-01,100,x\n2020-01-02,101,y\n")
        s = load_csv(p, date_column="day", value_column="close")
        assert s.values.tolist() == [100.0, 101.0]

    def test_too_few_rows(self, tmp_path):
        p = _write(tmp_path, "date,value\n2020-01-01,100\n")
        with pytest.raises(SeriesError, match="at least 2"):
            load_csv(p)


class TestLoadCsvDates:
    @pytest.mark.parametrize("cell", [
        "", "NaT", "2000-01", "2000-01-03T10:00", "2000-1-3", "today",
        "+2000-01-03", "20000103", "2000-02-30", "2000-13-01"])
    def test_only_calendar_days_parse(self, tmp_path, cell):
        p = _write(tmp_path, f"date,value\n2000-01-01,100\n{cell},110\n"
                             "2000-01-05,120\n")
        with pytest.raises(SeriesError, match=re.escape(
                f"row 3: unparseable date {cell!r}")):
            load_csv(p)

    def test_padded_date_is_stripped(self, tmp_path):
        p = _write(tmp_path, "date,value\n 2020-01-01 ,100\n2020-01-02, 110 \n")
        s = load_csv(p)
        assert str(s.dates[0]) == "2020-01-01"
        assert s.values.tolist() == [100.0, 110.0]

    def test_first_bad_row_wins(self, tmp_path):
        # a row's date is checked before its value, earlier rows first
        p = _write(tmp_path, "date,value\n2020-01-01,100\n2020-01-02,x\n"
                             "2020-01,110\n")
        with pytest.raises(SeriesError, match="row 3: unparseable value 'x'"):
            load_csv(p)
        p = _write(tmp_path, "date,value\n2020-01-01,100\n2020-01,x\n")
        with pytest.raises(SeriesError, match="row 3: unparseable date"):
            load_csv(p)
        p = _write(tmp_path, "date,value\n2020-01-01,-1\n2020-01-02,x\n")
        with pytest.raises(SeriesError, match="row 2: value must be"):
            load_csv(p)
        p = _write(tmp_path, "date,value\n2020-01-01,1\n2020-01-02,0\nNaT,1\n")
        with pytest.raises(SeriesError, match="row 3: value must be .* got 0$"):
            load_csv(p)


class TestLoadCsvValues:
    # float() takes each of these: digit separators, non-ASCII digits
    # (full-width, Arabic-Indic) and a no-break space
    @pytest.mark.parametrize("cell", ["1_5", "\uff11\uff12", "\u0661\u0662",
                                      "12\u00a0"])
    def test_only_ascii_decimals_parse(self, tmp_path, cell):
        p = _write(tmp_path, f"date,value\n2000-01-01,100\n2000-01-03,{cell}\n"
                             "2000-01,120\n")
        with pytest.raises(SeriesError, match=re.escape(
                f"row 3: unparseable value {cell.strip()!r}")):
            load_csv(p)

    def test_checked_cells_keep_the_first_bad_row(self, tmp_path):
        # a '_' or a non-ASCII character outside the value cells is no
        # error; good cells still load, and an earlier bad date is still
        # the one reported
        p = _write(tmp_path, "date,value_usd,note\n2000-01-01,100,caf\u00e9\n"
                             "2000-01-03, 1.5e2 ,x\n")
        assert load_csv(p, value_column="value_usd").values.tolist() == [
            100.0, 150.0]
        p = _write(tmp_path, "date,value\n2000-01,1_0\n2000-01-03,1_5\n")
        with pytest.raises(SeriesError, match="row 2: unparseable date"):
            load_csv(p)

    @pytest.mark.parametrize("cell, why", [
        ("1..5", "unparseable value '1..5'"),
        ("-1", "value must be a positive finite real, got -1")],
        ids=["1..5", "-1"])
    def test_bad_value_before_a_late_non_utf8_byte(self, tmp_path, cell, why):
        # the rows are read no further than the first bad one
        p = tmp_path / "late.csv"
        p.write_bytes(f"date,value\n2000-01-01,{cell}\n".encode()
                      + b"2000-01-03,100\n" * 20000 + b"2000-01-04,\xff\n")
        with pytest.raises(SeriesError, match=re.escape(f"row 2: {why}")):
            load_csv(p)


class TestLoadCsvHeader:
    def test_byte_order_mark(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfdate,value\r\n2020-01-01,100\r\n"
                      b"2020-01-02,101\r\n")
        assert load_csv(p).values.tolist() == [100.0, 101.0]

    @pytest.mark.parametrize("header", ["date,value,date", "value,date,value"])
    def test_column_named_twice(self, tmp_path, header):
        p = _write(tmp_path, f"{header}\n2020-01-01,100,1\n2020-01-02,101,2\n")
        with pytest.raises(SeriesError, match="2 times"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        with pytest.raises(SeriesError, match="empty file"):
            load_csv(_write(tmp_path, ""))


class TestLoadCsvLayout:
    """File layouts the loader accepts and the row numbers it reports."""

    def test_blank_lines_skipped(self, tmp_path):
        p = _write(tmp_path, "date,value\n\n2020-01-01,100\n\n\n2020-01-02,110\n\n")
        assert load_csv(p).values.tolist() == [100.0, 110.0]

    def test_short_row(self, tmp_path):
        p = _write(tmp_path, "date,value\n2020-01-01,100\n2020-01-02\n")
        with pytest.raises(SeriesError, match="row 3: unparseable value ''"):
            load_csv(p)

    def test_row_number_after_blank_line(self, tmp_path):
        p = _write(tmp_path, "date,value\n2020-01-01,100\n\n2020-01-02,-5\n")
        with pytest.raises(SeriesError, match="row 4: value must be"):
            load_csv(p)

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"date,value\r\n2020-01-01,100\r\n2020-01-02,101.5\r\n")
        assert load_csv(p).values.tolist() == [100.0, 101.5]

    def test_quoted_fields(self, tmp_path):
        p = _write(tmp_path, '"date","value"\n"2020-01-01","100"\n'
                             '"2020-01-02","1.5e2"\n')
        assert load_csv(p).values.tolist() == [100.0, 150.0]

    def test_extra_columns_ignored(self, tmp_path):
        p = _write(tmp_path, "id,value,note,date,more\n1,100,a,2020-01-01,x,y\n"
                             "2,110,b,2020-01-02\n")
        s = load_csv(p)
        assert s.values.tolist() == [100.0, 110.0]
        assert str(s.dates[1]) == "2020-01-02"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe(self, tmp_path):
        # an input that cannot seek, such as `--x <(gunzip -c a.csv.gz)`
        p = tmp_path / "pipe.csv"
        os.mkfifo(p)
        text = "date,value\n2020-01-01,100\n2020-01-02,1.5e2\n"
        writer = threading.Thread(target=p.write_text, args=(text,),
                                  daemon=True)
        writer.start()
        assert load_csv(p).values.tolist() == [100.0, 150.0]
        writer.join(timeout=10)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_bad_row_of_a_pipe(self, tmp_path, read_once, capsys):
        # bash's `--x <(...)` names a /dev/fd/N pipe, which can be read
        # only once
        text = "date,value\n2020-01-01,100\n2020-01-02,1..5\n2020-01-03,101\n"
        path = read_once(text)
        with pytest.raises(SeriesError, match=re.escape(
                f"{path} row 3: unparseable value '1..5'")):
            load_csv(path)
        path = read_once(text)
        y = _write(tmp_path, "date,value\n2020-01-01,100\n2020-01-02,101\n"
                             "2020-01-03,102\n")
        assert cli.main(["qcc", "--x", path, "--y", str(y)]) == 1
        assert capsys.readouterr().err == (
            f"mfxdma: error: {path} row 3: unparseable value '1..5'\n")

    def test_file_is_opened_once(self, tmp_path, monkeypatch):
        # the bad row is named from the one read, so a pipe gets it too
        p = _write(tmp_path, "date,value\n2020-01-01,100\n2020-01-02,-5\n")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(series, "open", counting_open, raising=False)
        with pytest.raises(SeriesError, match="row 3: value must be"):
            load_csv(p)
        assert opened == [p]


class TestLogReturns:
    def test_constant_price(self):
        r = log_returns(_raw(["2020-01-01", "2020-01-02", "2020-01-03"], [100, 100, 100]))
        assert r.values.tolist() == [0.0, 0.0]
        assert str(r.dates[0]) == "2020-01-02"

    def test_exact_exponential(self):
        r = log_returns(_raw(["2020-01-01", "2020-01-02", "2020-01-03"],
                             [1.0, math.e, math.e ** 2]))
        np.testing.assert_allclose(r.values, [1.0, 1.0], rtol=1e-14)

    def test_hand_computed(self):
        r = log_returns(_raw(["2020-01-01", "2020-01-02", "2020-01-03"], [100, 110, 105]))
        np.testing.assert_allclose(
            r.values, [math.log(1.1), math.log(105 / 110)], rtol=1e-12)

    def test_scale_invariance(self):
        dates = [f"2020-01-{d:02d}" for d in range(1, 11)]
        values = np.abs(np.random.default_rng(4).standard_normal(10)) + 0.5
        base = log_returns(_raw(dates, values))
        scaled = log_returns(_raw(dates, 37.5 * values))
        np.testing.assert_allclose(scaled.values, base.values, atol=1e-12)


class TestAlign:
    def test_identical_dates(self):
        dates = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04"]
        pair = align(_raw(dates, [1, 2, 3, 4], "a"), _raw(dates, [4, 3, 2, 1], "b"))
        assert pair.n == 3
        assert np.array_equal(pair.x.dates, pair.y.dates)

    def test_extra_date_dropped(self):
        a = _raw(["2020-01-03", "2020-01-04", "2020-01-05", "2020-01-06"], [1, 2, 3, 4], "a")
        b = _raw(["2020-01-03", "2020-01-04", "2020-01-06"], [5, 6, 7], "b")
        pair = align(a, b)
        # the unmatched date contributes nothing; returns span retained dates
        assert pair.n == 2
        assert str(pair.x.dates[-1]) == "2020-01-06"
        np.testing.assert_allclose(pair.x.values[-1], math.log(4 / 2))

    def test_disjoint_ranges(self):
        a = _raw(["2020-01-01", "2020-01-02", "2020-01-03"], [1, 2, 3], "a")
        b = _raw(["2021-01-01", "2021-01-02", "2021-01-03"], [1, 2, 3], "b")
        with pytest.raises(SeriesError, match="share only"):
            align(a, b)

    def test_random_subsets_share_dates(self):
        rng = np.random.default_rng(11)
        base = np.datetime64("2020-01-01") + np.arange(60)
        for _ in range(20):
            da = np.sort(rng.choice(base, size=40, replace=False))
            db = np.sort(rng.choice(base, size=40, replace=False))
            va = np.abs(rng.standard_normal(40)) + 0.5
            vb = np.abs(rng.standard_normal(40)) + 0.5
            try:
                pair = align(RawSeries("a", da, va), RawSeries("b", db, vb))
            except SeriesError:
                continue
            assert np.array_equal(pair.x.dates, pair.y.dates)
            assert pair.x.n == pair.y.n


class TestRawSeriesValidation:
    def test_non_increasing_dates(self):
        with pytest.raises(SeriesError, match="increasing"):
            _raw(["2020-01-02", "2020-01-01"], [1, 2])

    def test_nonpositive_value(self):
        with pytest.raises(SeriesError, match="non-positive"):
            _raw(["2020-01-01", "2020-01-02"], [1, -2])
