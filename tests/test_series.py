"""Ingestion, transforms and descriptive statistics."""

import csv
import datetime as dt
import io
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smfdfa import (
    CsvConfig,
    InputError,
    TimeSeries,
    describe,
    load_csv,
    outlier_census,
    to_fluctuations,
)
from smfdfa import series as series_module
from conftest import make_series, write_price_csv


class TestLoadCsv:
    def test_three_row_csv_loads_three_points(self, tmp_path):
        # [TRIVIAL] identity load
        p = write_price_csv(tmp_path / "a.csv", [1.0, 2.0, 3.0])
        series = load_csv(p)
        assert len(series) == 3
        assert series.label == "a"
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_rows_are_sorted_by_date(self, tmp_path):
        # [TRIVIAL] the loader orders by timestamp, not file order
        p = tmp_path / "b.csv"
        p.write_text("date,price\n2000-01-03,3\n2000-01-01,1\n2000-01-02,2\n")
        series = load_csv(p)
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_duplicate_date_rejected_naming_the_date(self, tmp_path):
        # [TRIVIAL] invariant violation
        p = tmp_path / "c.csv"
        p.write_text("date,price\n2000-01-01,1\n2000-01-01,2\n")
        with pytest.raises(InputError, match="2000-01-01"):
            load_csv(p)

    def test_bad_value_reports_line_number(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("date,price\n2000-01-01,1\n2000-01-02,oops\n")
        with pytest.raises(InputError, match="line 3"):
            load_csv(p)

    def test_missing_column_named(self, tmp_path):
        p = write_price_csv(tmp_path / "e.csv", [1, 2])
        with pytest.raises(InputError, match="close"):
            load_csv(p, CsvConfig(value_column="close"))

    def test_custom_date_format(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("date,price\n01/31/2000,1\n02/01/2000,2\n")
        series = load_csv(p, CsvConfig(date_format="%m/%d/%Y"))
        assert len(series) == 2

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(InputError, match="nope.csv"):
            load_csv(tmp_path / "nope.csv")

    def test_blank_lines_short_rows_and_repeated_names(self, tmp_path):
        # [TRIVIAL] csv.DictReader's rules: the last "price" column wins, a
        # short row reads "" for it, blank rows are skipped but counted in
        # line numbers, and an error names the bad row's own line, not the
        # first blank line before it
        p = tmp_path / "b.csv"
        p.write_text("date,price\n\n1990-01-01,x\n")
        with pytest.raises(InputError, match="line 3: bad value 'x'"):
            load_csv(p)
        p = tmp_path / "g.csv"
        p.write_text("date,price,price\n\n2000-01-02, 1 ,2\n2000-01-01,3,4,extra\n\n\n"
                     "2000-01-03,5\n")
        with pytest.raises(InputError, match="line 7: bad value ''"):
            load_csv(p)
        p.write_text("date,price,price\n\n2000-01-02, 1 ,2\n2000-01-01,3,4,extra\n\n")
        series = load_csv(p)
        np.testing.assert_array_equal(series.values, [4.0, 2.0])
        assert series.timestamps.dtype == np.dtype("datetime64[D]")

    def test_field_over_the_csv_limit_is_an_input_error(self, tmp_path):
        # csv.reader refuses a field longer than csv.field_size_limit()
        # (131072 characters by default); that names the file and the line
        # instead of escaping as a csv.Error
        p = tmp_path / "long.csv"
        p.write_text("date,price\n2000-01-01,1\n2000-01-02," + "9" * 200000 + "\n")
        with pytest.raises(InputError,
                           match=r"long.csv line 3: field larger than field limit \(131072\)"):
            load_csv(p)

    def test_bad_row_of_a_late_chunk_named_by_its_line(self, tmp_path):
        # [TRIVIAL] more than three chunks, with blank lines and quoted
        # two-line fields in the earlier ones, and a bad value in the last:
        # the error names the bad row's own line, counted here by hand
        chunk = series_module.LOAD_CHUNK_ROWS
        lines = ["date,price,note"]
        day = dt.date(1900, 1, 1)
        for k in range(3 * chunk + 100):
            if k % 97 == 0:
                lines.append("")
            note = '"two\nlines"' if k % 89 == 0 else "x"
            value = "oops" if k == 3 * chunk + 60 else repr(1.0 + k / 7)
            lines.append(f"{day + dt.timedelta(days=k)},{value},{note}")
            if value == "oops":
                bad_line = sum(line.count("\n") + 1 for line in lines)
        p = tmp_path / "long.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=f"line {bad_line}: bad value 'oops'$"):
            load_csv(p)
        assert load_outcome(load_csv, p, CsvConfig()) == load_outcome(reference_load_csv, p,
                                                                       CsvConfig())
        assert bad_line > 3 * chunk + 3 * chunk // 89 + 3 * chunk // 97

    @pytest.mark.parametrize("bad_row_first", [True, False])
    def test_bad_row_and_bad_byte_in_one_chunk(self, tmp_path, bad_row_first):
        # a bad row and a byte that is not UTF-8, in one chunk but in
        # different 8 KiB blocks of the decoder: whichever comes first in
        # the file is reported, as a row-at-a-time read reports it. The
        # chunk's read fails at the byte, so its rows before the byte are
        # checked again
        rows = [f"{dt.date(1900, 1, 1) + dt.timedelta(days=k)},{1.0 + k / 7!r}\n"
                for k in range(series_module.LOAD_CHUNK_ROWS)]
        bad_row, bad_byte = (100, 800) if bad_row_first else (800, 100)
        rows[bad_row] = rows[bad_row].replace(",", ",x")
        data = [row.encode() for row in rows]
        data[bad_byte] = data[bad_byte].replace(b",", b",\xff")
        assert sum(map(len, data[:max(bad_row, bad_byte)])) > 2 * 8192
        p = tmp_path / "mixed.csv"
        p.write_bytes(b"date,price\n" + b"".join(data))
        message = (f"line {bad_row + 2}: bad value 'x" if bad_row_first
                   else "not UTF-8 text (invalid start byte)")
        with pytest.raises(InputError, match=re.escape(message)):
            load_csv(p)


def reference_load_csv(path, config=CsvConfig()):
    """The ingest loop as first written, on csv.DictReader, with one array
    conversion of the dates per use, and csv.reader's field-limit error
    worded as load_csv words it."""
    path = Path(path)
    dates = []
    values = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            for col in (config.date_column, config.value_column):
                if col not in header:
                    raise InputError(f"column '{col}' not found in {path} (header: {header})")
            for row in reader:
                raw_date = (row.get(config.date_column) or "").strip()
                raw_val = (row.get(config.value_column) or "").strip()
                try:
                    if config.date_format is None:
                        date = dt.date.fromisoformat(raw_date)
                    else:
                        date = dt.datetime.strptime(raw_date, config.date_format).date()
                except ValueError as exc:
                    raise InputError(f"{path} line {reader.line_num}: bad date '{raw_date}' ({exc})")
                try:
                    value = float(raw_val)
                except ValueError:
                    raise InputError(f"{path} line {reader.line_num}: bad value '{raw_val}'")
                if not math.isfinite(value):
                    raise InputError(f"{path} line {reader.line_num}: non-finite value '{raw_val}'")
                dates.append(date)
                values.append(value)
    except csv.Error as exc:  # a field over csv.field_size_limit(), on the line
        # csv.reader counts; DictReader's own count stops at the last good row
        raise InputError(f"{path} line {reader.reader.line_num}: {exc}") from exc
    if len(dates) < 2:
        raise InputError(f"{path}: need at least 2 rows, got {len(dates)}")
    order = np.argsort(np.asarray(dates, dtype="datetime64[D]"), kind="stable")
    ts = np.asarray(dates, dtype="datetime64[D]")[order]
    vals = np.asarray(values, dtype=float)[order]
    dup = np.flatnonzero(ts[1:] == ts[:-1])
    if dup.size:
        raise InputError(f"{path}: duplicated date {ts[dup[0]]}")
    return TimeSeries(timestamps=ts, values=vals, label=path.stem)


DATE_FORMATS = (None, "%m/%d/%Y", "%Y%m%d")
BAD_DATES = ("", "yesterday", "2021-02-30", "13/45/2020", "2020-1-1")
BAD_VALUES = ("", "abc", "nan", "-inf", "1e400", "1,5")


def padded(draw, text: str) -> str:
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", "  "]))


# cells of the plain documents that a plain file may not hold, or that
# np.loadtxt or the date checks refuse, so that the csv path reads the file
PLAIN_BAD_DATES = ("2000-02-30", "1900-02-29", "0000-01-01", " 1990-01-05", "1990-1-05",
                   "1990-01-055")
PLAIN_BAD_VALUES = ("1_5", "2.5\x1c", "nan", "-inf", "1e400", "", "x")


def plain_document(draw) -> tuple[str, CsvConfig]:
    """A document in the plain form np.loadtxt reads: the two columns in any
    order among extra columns, no quoting, LF line ends, and values in
    repr, exponent and signed-zero forms on unsorted unique dates. A few
    cells break the form or are bad (PLAIN_BAD_DATES, PLAIN_BAD_VALUES, an
    unused field longer than csv.field_size_limit()), and a few rows are
    short or follow a blank line; the file may lack its final newline or
    hold no data rows."""
    value_column = draw(st.sampled_from(["price", "close"]))
    extra = draw(st.lists(st.sampled_from(["note", "open", "price", "close"]), max_size=3))
    header = draw(st.permutations(["date", value_column, *extra]))
    size = draw(st.sampled_from([0, 1, 2, 3, 5, 8]))
    days = draw(st.lists(st.dates(dt.date(1896, 1, 1), dt.date(2004, 12, 31)), unique=True,
                         min_size=size, max_size=size))
    numbers = st.floats(allow_nan=False, allow_infinity=False)
    values = st.one_of(numbers.map(repr), numbers.map("{:.17e}".format),
                       numbers.map("{:g}".format), st.sampled_from(["-0", "0", "5e-324", " 7 "]))
    rarely = st.integers(0, 29).map(lambda k: k == 7)  # hypothesis favours the ends
    lines = [",".join(header)]
    for day in days:
        row = []
        for name in header:
            if name == "date":
                row.append(draw(st.sampled_from(("2000-02-29", *PLAIN_BAD_DATES)))
                           if draw(rarely) else day.isoformat())
            elif name in ("price", "close"):
                row.append(draw(st.sampled_from(PLAIN_BAD_VALUES)) if draw(rarely)
                           else draw(values))
            else:
                row.append("y" * (csv.field_size_limit() + 1) if draw(rarely)
                           else draw(st.sampled_from(["x", "", "a b", "#"])))
        lines += [""] * draw(rarely)  # a blank line, which both readers skip
        lines.append(",".join(row[:len(row) - draw(rarely)]))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return text, CsvConfig(value_column=value_column)


@st.composite
def csv_documents(draw):
    """(text, CsvConfig) pairs. A third are plain documents (see
    plain_document). The rest have a header drawn from a few names, repeats
    allowed, then data rows that are blank, short, long or well formed,
    with padded fields and some bad dates and values."""
    if draw(st.integers(0, 2)) == 0:
        return plain_document(draw)
    date_format = draw(st.sampled_from(DATE_FORMATS))
    value_column = draw(st.sampled_from(["price", "close"]))
    header = draw(st.lists(st.sampled_from(["date", "price", "close", "note"]), max_size=5))
    if draw(st.booleans()):
        header += ["date", value_column]  # mostly loadable documents
    dates = st.dates(dt.date(1990, 1, 1), dt.date(1990, 3, 1))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 5)) == 0:
            rows.append([])
            continue
        row = []
        for name in header:
            if name == "date" and draw(st.integers(0, 9)):
                day = draw(dates)
                row.append(padded(draw, day.isoformat() if date_format is None
                                  else day.strftime(date_format)))
            elif name == "date":
                row.append(draw(st.sampled_from(BAD_DATES)))
            elif name in ("price", "close") and draw(st.integers(0, 9)):
                row.append(padded(draw, repr(draw(st.floats(-1e6, 1e6)))))
            elif name in ("price", "close"):
                row.append(draw(st.sampled_from(BAD_VALUES)))
            else:
                row.append(draw(st.sampled_from(["x", "a,b", "two\nlines", ""])))
        cut = draw(st.integers(0, len(row) + 2))
        rows.append(row[:cut] + ["extra"] * (cut - len(row)))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    if header or draw(st.booleans()):
        writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue(), CsvConfig(value_column=value_column, date_format=date_format)


def load_outcome(loader, path, config):
    try:
        series = loader(path, config)
    except InputError as exc:
        return str(exc)
    return (series.timestamps.dtype, series.timestamps.tobytes(), series.values.tobytes(),
            series.label)


class TestLoadCsvMatchesDictReader:
    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(csv_documents())
    @example(("date,price\n\n\n1990-01-01,1\n1990-01-01,2\n", CsvConfig()))
    @example(("date,price\n\n1990-01-01,x\n", CsvConfig()))
    @example(("date,price\n1990-01-01,1\n\n\n1990-01-02\n", CsvConfig()))
    @example(("\ndate,price\n1990-01-01,1\n", CsvConfig()))
    @example(("", CsvConfig()))
    @example(("date,price\n", CsvConfig()))
    @example(("note,price,date\nx,2,1990-01-02\n,1,1990-01-01", CsvConfig()))
    def test_same_arrays_and_messages(self, tmp_path_factory, document):
        # [DERIVED] load_csv, on whichever path reads the document, against
        # the DictReader loop it replaced: equal arrays, or the same
        # InputError message, line numbers included
        text, config = document
        path = tmp_path_factory.getbasetemp() / "prices.csv"
        path.write_text(text, newline="")
        assert load_outcome(load_csv, path, config) == load_outcome(reference_load_csv, path,
                                                                     config)

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(csv_documents(), st.integers(1, 3))
    @example(("date,price,note\n1990-01-01,1,\"two\nlines\"\n\n1990-01-02,2,x\n\n"
              "1990-01-03,3\n1990-01-04,x,y\n", CsvConfig()), 2)
    def test_same_arrays_and_messages_in_small_chunks(self, tmp_path_factory, document, chunk):
        # [DERIVED] the same documents read by the csv path 1-3 rows per
        # chunk, plain ones included, so that bad, blank, short and
        # multi-line rows fall in later chunks: a chunk that fails is checked
        # again from its own first line
        text, config = document
        path = tmp_path_factory.getbasetemp() / "prices.csv"
        path.write_text(text, newline="")
        with mock.patch.object(series_module, "LOAD_CHUNK_ROWS", chunk), \
                mock.patch.object(series_module, "_load_plain", return_value=None):
            got = load_outcome(load_csv, path, config)
        assert got == load_outcome(reference_load_csv, path, config)


PLAIN_TEXT = "note,price,date\nx,1.5,1990-01-02\n,-0,1990-01-01\n#,5e-324,1990-01-04\n"
LONG_LINE = csv.field_size_limit()  # the longest line a plain file may hold
# files that differ from PLAIN_TEXT, which np.loadtxt reads, in one trigger
# of the csv path
NON_PLAIN = {
    "date_format": (PLAIN_TEXT, CsvConfig(date_format="%Y-%m-%d")),
    "quote": (PLAIN_TEXT.replace("x", '"x"'), CsvConfig()),
    "crlf": (PLAIN_TEXT.replace("\n", "\r\n"), CsvConfig()),
    "tab": (PLAIN_TEXT.replace("1.5", "1.5\t"), CsvConfig()),
    "non_ascii": (PLAIN_TEXT.replace("x", "\u00e9"), CsvConfig()),
    "bom": ("\ufeff" + PLAIN_TEXT, CsvConfig()),
    "x1c": (PLAIN_TEXT.replace("1.5", "1.5\x1c"), CsvConfig()),
    "long_line": (PLAIN_TEXT.replace("#", "y" * (LONG_LINE - 17)), CsvConfig()),
    "long_field": (PLAIN_TEXT.replace("#", "y" * (LONG_LINE + 1)), CsvConfig()),
    "long_first_row": (PLAIN_TEXT.replace("x", "y" * series_module._PLAIN_BLOCK), CsvConfig()),
    "missing_column": (PLAIN_TEXT, CsvConfig(value_column="close")),
    "one_column": (PLAIN_TEXT, CsvConfig(date_column="price")),
    "header_only": ("date,price\n", CsvConfig()),
    "one_row": ("date,price\n1990-01-01,1\n", CsvConfig()),
    "blank_after_header": ("date,price\n\n1990-01-01,1\n1990-01-02,2\n", CsvConfig()),
    "short_row": (PLAIN_TEXT + "y,2\n", CsvConfig()),
    "bad_value": (PLAIN_TEXT.replace("1.5", "x"), CsvConfig()),
    "underscore": (PLAIN_TEXT.replace("1.5", "1_5"), CsvConfig()),
    "non_finite": (PLAIN_TEXT.replace("1.5", "1e400"), CsvConfig()),
    "padded_date": (PLAIN_TEXT.replace(",1990-01-02", ", 1990-01-02"), CsvConfig()),
    "long_date": (PLAIN_TEXT.replace("1990-01-02", "1990-01-022"), CsvConfig()),
    "short_date": (PLAIN_TEXT.replace("1990-01-02", "1990-1-02"), CsvConfig()),
    "feb_30": (PLAIN_TEXT.replace("1990-01-02", "2000-02-30"), CsvConfig()),
    "feb_29_1900": (PLAIN_TEXT.replace("1990-01-02", "1900-02-29"), CsvConfig()),
    "year_0": (PLAIN_TEXT.replace("1990-01-02", "0000-01-01"), CsvConfig()),
}


class TestPlainFiles:
    @pytest.mark.parametrize("text", [
        None,  # 3000 rows as the synth command writes them
        PLAIN_TEXT,
        PLAIN_TEXT + "\n\n y , 2.5e3 ,1990-01-03\n\nz,-7,1990-01-05,extra",
        PLAIN_TEXT.replace("#", "y" * (LONG_LINE - 18)),
    ], ids=["synth", "plain", "blank_lines", "long_line"])
    def test_plain_file_is_read_without_csv_reader(self, tmp_path, text):
        # blank lines after the first two rows, padded values, extra fields,
        # a missing final newline and a line as long as the field limit are
        # plain too
        path = tmp_path / "p.csv"
        if text is None:
            write_price_csv(path, 1.0 + np.arange(3000) / 7)
        else:
            path.write_text(text)
        want = load_outcome(reference_load_csv, path, CsvConfig())
        with mock.patch.object(series_module.csv, "reader", side_effect=AssertionError):
            assert load_outcome(load_csv, path, CsvConfig()) == want
        assert not isinstance(want, str)

    @pytest.mark.parametrize("text,config", NON_PLAIN.values(), ids=NON_PLAIN)
    def test_each_non_plain_trigger_falls_back_to_the_csv_path(self, tmp_path, text, config):
        # [DERIVED] the csv path reads each file, as the oracle does; a line
        # one byte over the field limit goes there although no field is, and
        # so does a first row that does not end within the first scan block
        path = tmp_path / "p.csv"
        path.write_text(PLAIN_TEXT, newline="")
        assert series_module._load_plain(path, CsvConfig()) is not None
        path.write_text(text, newline="")
        assert series_module._load_plain(path, config) is None
        assert load_outcome(load_csv, path, config) == load_outcome(reference_load_csv, path,
                                                                     config)

    def test_lowered_field_limit_and_compressed_suffix_fall_back(self, tmp_path):
        # a field limit below the scan block, and a name np.loadtxt would
        # open as compressed, send a plain text to the csv path
        path = tmp_path / "p.xz"
        path.write_text(PLAIN_TEXT)
        assert series_module._load_plain(path, CsvConfig()) is None
        assert load_outcome(load_csv, path, CsvConfig()) == load_outcome(reference_load_csv,
                                                                          path, CsvConfig())
        path = path.rename(tmp_path / "p.csv")
        old = csv.field_size_limit(1000)
        try:
            assert series_module._load_plain(path, CsvConfig()) is None
            assert len(load_csv(path)) == 3
        finally:
            csv.field_size_limit(old)
        assert series_module._load_plain(path, CsvConfig()) is not None


class TestTimeSeries:
    def test_non_finite_value_rejected_with_position(self):
        with pytest.raises(InputError, match="position 1"):
            make_series([1.0, math.nan, 2.0])

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(InputError, match="increasing"):
            TimeSeries(timestamps=np.array([2, 1, 3]), values=np.array([1.0, 2.0, 3.0]))

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            make_series([1.0])


class TestToFluctuations:
    def test_values_are_absolute_log10_return_magnitudes(self):
        # [TRIVIAL] 1 -> 10 is one decade up, 10 -> 1 one decade down
        f = to_fluctuations(make_series([1.0, 10.0, 1.0]))
        np.testing.assert_allclose(f, [1.0, 1.0], rtol=1e-15)
        assert len(f) == 2  # length = source length - 1

    def test_scale_invariance(self):
        # [TRIVIAL] |log10(c x_{t+1} / (c x_t))| is independent of c > 0
        x = np.array([3.0, 5.0, 4.0, 8.0, 6.5])
        f1 = to_fluctuations(make_series(x))
        f2 = to_fluctuations(make_series(1234.5 * x))
        np.testing.assert_allclose(f1, f2, rtol=0, atol=1e-14)

    def test_non_positive_price_rejected_at_transform_time(self):
        series = make_series([1.0, -2.0, 3.0])
        with pytest.raises(InputError, match="index 1"):
            to_fluctuations(series)


class TestDescribe:
    def test_hand_case_symmetric_sample(self):
        # [TRIVIAL] hand arithmetic on x = 1..4: mean 2.5, sample sd
        # sqrt(5/3), skew 0, excess kurtosis 2.5625/1.5625 - 3 = -1.36,
        # JB = 4/6 * (0 + 1.36^2/4)
        st = describe([1.0, 2.0, 3.0, 4.0])
        assert st.n == 4
        assert st.minimum == 1.0 and st.maximum == 4.0
        assert math.isclose(st.mean, 2.5)
        assert math.isclose(st.std_dev, math.sqrt(5.0 / 3.0))
        assert math.isclose(st.coef_variation, 100.0 * math.sqrt(5.0 / 3.0) / 2.5)
        assert math.isclose(st.skewness, 0.0, abs_tol=1e-15)
        assert math.isclose(st.excess_kurtosis, -1.36)
        assert math.isclose(st.jarque_bera_stat, 4.0 / 6.0 * (1.36**2 / 4.0))

    def test_invariants_on_random_sample(self, rng):
        x = rng.standard_normal(500) * 3 + 7
        st = describe(x)
        assert st.minimum <= st.mean <= st.maximum
        assert st.std_dev >= 0
        assert st.jarque_bera_stat >= 0

    def test_skewness_flips_sign_under_negation(self, rng):
        x = rng.exponential(size=400)
        a, b = describe(x), describe(-x)
        assert math.isclose(a.skewness, -b.skewness, rel_tol=1e-12)
        assert math.isclose(a.excess_kurtosis, b.excess_kurtosis, rel_tol=1e-12)

    def test_degenerate_sample_yields_nan_not_error(self):
        st = describe([5.0, 5.0, 5.0, 5.0])
        assert math.isnan(st.skewness) and math.isnan(st.jarque_bera_stat)
        assert st.std_dev == 0.0


class TestOutlierCensus:
    def test_hand_case_counts(self):
        # [TRIVIAL] sorted sample [-50,1..8,16,100]: q1=2.5, q3=7.5, iqr=5;
        # fences: mild at (-5, 15), extreme at (-12.5, 22.5)
        x = [1, 2, 3, 4, 5, 6, 7, 8, 16, 100, -50]
        c = outlier_census(x)
        assert (c.q1, c.q3, c.iqr) == (2.5, 7.5, 5.0)
        assert (c.low_mild, c.high_mild) == (1, 2)
        assert (c.low_extreme, c.high_extreme) == (1, 1)

    def test_shift_invariance(self, rng):
        # counts depend only on relative spread, not location
        x = rng.standard_normal(300)
        a, b = outlier_census(x), outlier_census(x + 1e6)
        assert (a.low_mild, a.high_mild, a.low_extreme, a.high_extreme) == (
            b.low_mild, b.high_mild, b.low_extreme, b.high_extreme)

    @pytest.mark.parametrize("stat", [describe, outlier_census])
    def test_non_finite_and_non_1d_samples_rejected(self, stat, rng):
        # outlier_census once counted a NaN sample as all-zero counts with
        # NaN quartiles
        x = rng.standard_normal(300)
        x[9] = np.nan
        with pytest.raises(InputError, match="non-finite value at index 9"):
            stat(x)
        with pytest.raises(InputError, match=r"1-d array, got shape \(2, 150\)"):
            stat(np.zeros((2, 150)))

    def test_extreme_never_exceeds_mild(self, rng):
        for _ in range(5):
            x = rng.standard_t(df=2, size=200)
            c = outlier_census(x)
            assert c.low_extreme <= c.low_mild
            assert c.high_extreme <= c.high_mild

