"""Time-series containers, transforms and descriptive statistics.

All containers are frozen dataclasses wrapping 1-d float arrays; they are
validated on construction and never mutated afterwards, so instances are
safe to share across threads.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError, finite_1d

_UNIX_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


@dataclass(frozen=True)
class TimeSeries:
    """Strictly ordered finite observations, calendar-dated or integer-indexed.

    timestamps may be a numpy datetime64 array or an integer array; they must
    be strictly increasing and aligned with ``values``.
    """

    timestamps: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        ts = np.asarray(self.timestamps)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or ts.shape != vals.shape:
            raise InputError("timestamps and values must be 1-d and aligned")
        if vals.size < 2:
            raise InputError("a series needs at least 2 observations")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise InputError(f"non-finite value at position {bad}")
        if not np.all(ts[1:] > ts[:-1]):
            raise InputError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class DescriptiveStats:
    n: int
    minimum: float
    maximum: float
    mean: float
    std_dev: float
    coef_variation: float  # percent; NaN when the mean is too close to zero
    skewness: float        # NaN for degenerate (zero variance) input
    excess_kurtosis: float
    jarque_bera_stat: float


@dataclass(frozen=True)
class OutlierCensus:
    low_mild: int
    high_mild: int
    low_extreme: int
    high_extreme: int
    q1: float
    q3: float
    iqr: float


@dataclass(frozen=True)
class CsvConfig:
    """Column names and date format for price CSV ingestion. With no
    date_format the plain path reads only YYYY-MM-DD, and the csv path reads
    dates with date.fromisoformat, which from Python 3.11 on also accepts
    forms such as 19900102 and 1990-W01-2 (an input error on 3.10)."""

    date_column: str = "date"
    value_column: str = "price"
    date_format: str | None = None  # None means ISO-8601 (YYYY-MM-DD)


def load_csv(path: str | Path, config: CsvConfig = CsvConfig()) -> TimeSeries:
    """Load a dated price CSV into a TimeSeries sorted by date, labelled with
    the file stem.

    The file must have a header row containing the configured columns.
    Duplicate dates are rejected; every parse failure reports the offending
    line number.

    A plain file (see _load_plain) is read by NumPy's C reader in one call.
    Every other file is read by the csv path, and so is a plain file that
    fails to load, so that the csv path alone words the errors. It reads and
    checks one row at a time, so the first bad row, or the first read that
    fails, is the one reported.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    loaded = _load_plain(path, config)
    day_numbers, vals = loaded if loaded is not None else _load_with_csv(path, config)
    if day_numbers.size < 2:
        raise InputError(f"{path}: need at least 2 rows, got {day_numbers.size}")
    if not np.all(day_numbers[1:] >= day_numbers[:-1]):
        order = np.argsort(day_numbers, kind="stable")
        day_numbers, vals = day_numbers[order], vals[order]
    ts = (day_numbers - _UNIX_EPOCH_ORDINAL).astype("datetime64[D]")
    dup = np.flatnonzero(ts[1:] == ts[:-1])
    if dup.size:
        raise InputError(f"{path}: duplicated date {ts[dup[0]]}")
    return TimeSeries(timestamps=ts, values=vals, label=path.stem)


# Bytes a plain file may hold: the newline, and printable ASCII but the
# quote. Such a file has no quoting, \r or non-ASCII text, so a line split
# on "," gives the fields csv.reader gives, and NumPy reads it as the csv
# path does
_PLAIN_BYTES = bytes([ord("\n"), *range(0x20, 0x7F)]).replace(b'"', b"")
# Bytes scanned per read of a plain-file check. A line within one block is
# shorter than the block, so only a line that spans blocks is measured; under
# a csv.field_size_limit() below the block, the csv path reads every file
_PLAIN_BLOCK = 1 << 16
# np.loadtxt decompresses a file named so, and raises lzma.LZMAError, say,
# on one that is not compressed
_DECOMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _load_plain(path: Path, config: CsvConfig) -> tuple[np.ndarray, np.ndarray] | None:
    """Day ordinals and values of a plain file, in file order, read by
    np.loadtxt; None for any other file, which the csv path then reads.

    A file is plain when the dates are ISO (no date_format); its name has no
    suffix np.loadtxt decompresses; every byte is in _PLAIN_BYTES; no line is
    longer than csv.field_size_limit(), so no field is one the csv path
    rejects; the header names both columns at different positions (the last
    of a repeated name wins); the two lines after the header are not blank,
    so there are at least two rows, and the first of them ends within the
    first _PLAIN_BLOCK bytes; every row holds both columns; every value
    converts and is finite; and every date is exactly YYYY-MM-DD and names a
    real day in the years 1-9999.
    """
    limit = csv.field_size_limit()
    if (config.date_format is not None or limit < _PLAIN_BLOCK
            or path.suffix in _DECOMPRESSED_SUFFIXES):
        return None
    try:
        with open(path, "rb") as fh:
            first = block = fh.read(_PLAIN_BLOCK)
            start, last_newline = 0, -1
            while block:
                if block.translate(None, _PLAIN_BYTES):
                    return None
                newline = block.find(b"\n")
                line_end = start + (newline if newline >= 0 else len(block))
                if line_end - last_newline - 1 > limit:
                    return None
                if newline >= 0:
                    last_newline = start + block.rfind(b"\n")
                start += len(block)
                block = fh.read(_PLAIN_BLOCK)
        head, *rows = first.split(b"\n", 3)[:3]
        if len(rows) < 2 or not all(rows):
            return None
        header = head.decode("ascii").split(",")
        names = (config.date_column, config.value_column)
        if not all(name in header for name in names):
            return None
        cols = tuple(len(header) - 1 - header[::-1].index(name) for name in names)
        if cols[0] == cols[1]:
            return None
        table = np.loadtxt(path, delimiter=",", comments=None, quotechar=None, skiprows=1,
                           usecols=cols, dtype=[("d", "S11"), ("v", "f8")])
    except (OSError, ValueError):  # a short row, a bad or underscored value, say
        return None
    if not np.isfinite(table["v"]).all():
        return None
    # each record's first 11 bytes are its date field
    days = _iso_day_ordinals(table.view(np.uint8).reshape(table.size, -1)[:, :11])
    return None if days is None else (days, np.ascontiguousarray(table["v"]))


# days before each month (1-12) of a common year, and each month's length in
# a leap year
_DAYS_BEFORE_MONTH = np.array([0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334],
                              dtype=np.int16)
_MONTH_DAYS = np.array([0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int8)


def _iso_day_ordinals(raw: np.ndarray) -> np.ndarray | None:
    """Proleptic Gregorian ordinals (int32) of YYYY-MM-DD dates held as rows
    of 11 bytes (an S11 field); None if any row is not exactly that (an 11th
    byte means a longer field, which S11 truncated) or names no real day in
    the years 1-9999."""
    if raw[:, 10].any() or not ((raw[:, 4] == ord("-")) & (raw[:, 7] == ord("-"))).all():
        return None
    digits = raw[:, [0, 1, 2, 3, 5, 6, 8, 9]]
    digits -= ord("0")  # wraps below "0"
    if digits.max() > 9:
        return None
    d = digits.T
    year = ((d[0].astype(np.int16) * 10 + d[1]) * 10 + d[2]) * 10 + d[3]
    month = d[4] * 10 + d[5]
    day = d[6] * 10 + d[7]
    del d, digits  # the arithmetic below holds a few int32 arrays at a time
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)).all():
        return None
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    if not (day <= _MONTH_DAYS[month] - ((month == 2) & ~leap)).all():
        return None
    y = year.astype(np.int32)
    y -= 1
    ordinals = y * 365
    ordinals += y // 4
    ordinals -= y // 100
    ordinals += y // 400
    ordinals += _DAYS_BEFORE_MONTH[month]
    ordinals += (month > 2) & leap
    ordinals += day
    return ordinals


def _load_with_csv(path: Path, config: CsvConfig) -> tuple[np.ndarray, np.ndarray]:
    """Day ordinals and values of any file, in file order, read by
    csv.reader one row at a time; every failure raises an InputError naming
    the file and, for a bad row, its line (a row's last line, as csv.reader
    counts lines)."""
    from array import array  # only here: a plain file never loads the module

    days = array("q")  # proleptic Gregorian ordinals
    values = array("d")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None) or []
            for col in (config.date_column, config.value_column):
                if col not in header:
                    raise InputError(f"column '{col}' not found in {path} (header: {header})")
            # csv.DictReader's rules: the last of a repeated name wins, a
            # short row reads "" for the fields it lacks, and blank rows are
            # skipped (but counted in line numbers)
            cols = tuple(len(header) - 1 - header[::-1].index(col)
                         for col in (config.date_column, config.value_column))
            for row in filter(None, reader):
                raw_date, raw_val = (row[i].strip() if i < len(row) else "" for i in cols)
                try:
                    if config.date_format is None:
                        date = dt.date.fromisoformat(raw_date)
                    else:
                        date = dt.datetime.strptime(raw_date, config.date_format).date()
                except ValueError as exc:
                    raise InputError(
                        f"{path} line {reader.line_num}: bad date '{raw_date}' ({exc})")
                try:
                    value = float(raw_val)
                except ValueError:
                    raise InputError(f"{path} line {reader.line_num}: bad value '{raw_val}'")
                if not math.isfinite(value):
                    raise InputError(
                        f"{path} line {reader.line_num}: non-finite value '{raw_val}'")
                days.append(date.toordinal())
                values.append(value)
    except OSError as exc:  # a directory, say, or no read permission
        raise InputError(f"cannot read input file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read input file {path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise InputError(f"{path} line {reader.line_num}: {exc}") from exc
    return np.frombuffer(days, dtype=np.int64), np.frombuffer(values)


def to_fluctuations(series: TimeSeries) -> np.ndarray:
    """Absolute log10 return magnitudes: out[t] = |log10(x[t+1]/x[t])|."""
    x = series.values
    bad = np.flatnonzero(x <= 0)
    if bad.size:
        raise InputError(
            f"non-positive value {x[bad[0]]} at index {int(bad[0])}: log transform undefined"
        )
    return np.abs(np.diff(np.log10(x)))


def describe(values: Sequence[float] | np.ndarray) -> DescriptiveStats:
    """Moment-based descriptive statistics with a Jarque-Bera normality stat.

    The standard deviation uses the sample (n-1) denominator; skewness and
    excess kurtosis are the plain moment ratios m3/m2^1.5 and m4/m2^2 - 3
    that feed JB = n/6 * (S^2 + K^2/4). Degenerate quantities come back as
    NaN rather than raising.
    """
    x = finite_1d(values)
    if x.size < 4:
        raise InputError("describe needs a 1-d sample with n >= 4")
    n = x.size
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1))
    centered = x - mean
    m2 = float(np.mean(centered**2))
    if m2 > 0:
        skew = float(np.mean(centered**3) / m2**1.5)
        exkurt = float(np.mean(centered**4) / m2**2 - 3.0)
        jb = n / 6.0 * (skew**2 + exkurt**2 / 4.0)
    else:
        skew = exkurt = jb = float("nan")
    if mean == 0.0 or abs(mean) < 1e-12 * std:
        cv = float("nan")
    else:
        cv = 100.0 * std / abs(mean)
    return DescriptiveStats(
        n=n,
        minimum=float(np.min(x)),
        maximum=float(np.max(x)),
        mean=mean,
        std_dev=std,
        coef_variation=cv,
        skewness=skew,
        excess_kurtosis=exkurt,
        jarque_bera_stat=jb,
    )


def outlier_census(values: Sequence[float] | np.ndarray) -> OutlierCensus:
    """Count mild (1.5 IQR) and extreme (3 IQR) outliers on each side.

    Quartiles use linear interpolation of order statistics (numpy default).
    Mild counts include the extreme ones.
    """
    x = finite_1d(values)
    if x.size < 4:
        raise InputError("outlier_census needs a 1-d sample with n >= 4")
    q1, q3 = np.percentile(x, [25.0, 75.0])
    iqr = q3 - q1
    return OutlierCensus(
        low_mild=int(np.sum(x < q1 - 1.5 * iqr)),
        high_mild=int(np.sum(x > q3 + 1.5 * iqr)),
        low_extreme=int(np.sum(x < q1 - 3.0 * iqr)),
        high_extreme=int(np.sum(x > q3 + 3.0 * iqr)),
        q1=float(q1),
        q3=float(q3),
        iqr=float(iqr),
    )
