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

from .errors import InputError


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
    """Column names and date format for price CSV ingestion."""

    date_column: str = "date"
    value_column: str = "price"
    date_format: str | None = None  # None means ISO-8601 (YYYY-MM-DD)


def load_csv(path: str | Path, config: CsvConfig = CsvConfig()) -> TimeSeries:
    """Load a dated price CSV into a TimeSeries sorted by date, labelled with
    the file stem.

    The file must have a header row containing the configured columns.
    Duplicate dates are rejected; every parse failure reports the offending
    line number.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    dates: list[dt.date] = []
    values: list[float] = []
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
    if len(dates) < 2:
        raise InputError(f"{path}: need at least 2 rows, got {len(dates)}")
    order = np.argsort(np.asarray(dates, dtype="datetime64[D]"), kind="stable")
    ts = np.asarray(dates, dtype="datetime64[D]")[order]
    vals = np.asarray(values, dtype=float)[order]
    dup = np.flatnonzero(ts[1:] == ts[:-1])
    if dup.size:
        raise InputError(f"{path}: duplicated date {ts[dup[0]]}")
    return TimeSeries(timestamps=ts, values=vals, label=path.stem)


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
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise InputError("describe needs a 1-d sample with n >= 4")
    if not np.all(np.isfinite(x)):
        raise InputError("describe: sample contains non-finite values")
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
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 4:
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
