"""CSV emission: the row builders and write_csv against the per-cell writer
and the row builders they replaced, byte for byte."""

import csv
import math
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smfdfa import cli, serialize
from smfdfa.changepoint import ChangePointConfig, ChangePointResult
from smfdfa.cli import main
from smfdfa.forecast import ForecastReport, ForecastRow
from smfdfa.mfdfa import (
    FluctuationSurface,
    HurstCurve,
    SegmentReport,
    SingularitySpectrum,
    StructuredReport,
)
from smfdfa.surrogate import SurrogateComparison
from conftest import write_price_csv


def reference_cell(v) -> str:
    """The writer's cell rule as first written: None and a float NaN are
    empty, NumPy scalars are written as Python ones, all else by str."""
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return ""
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    return str(v)


def reference_write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([reference_cell(v) for v in row])


# The row builders as first written, one Python row at a time.

def reference_surface_rows(label, surface):
    for i, q in enumerate(surface.q_grid):
        for j, s in enumerate(surface.scale_grid):
            yield (label, float(q), int(s), float(surface.phi[i, j]), int(surface.n_windows[j]))


def reference_hurst_rows(label, curve):
    return ((label, float(q), float(r), float(e), float(r2))
            for q, r, e, r2 in zip(curve.q_grid, curve.rho, curve.stderr, curve.r_squared))


def reference_spectrum_rows(label, spec):
    return ((label, float(q), float(t), float(a), float(f))
            for q, t, a, f in zip(spec.q_grid, spec.tau, spec.alpha, spec.f_alpha))


def reference_segment_rows(report):
    return ((s.label, s.start, s.stop, s.spectrum.delta_alpha if s.spectrum else None, s.d_hat,
             s.hurst_dfa, "; ".join(filter(None, (s.skipped_reason, s.gph_failure))) or None)
            for s in report.segments)


def reference_surrogate_rows(cmp_):
    return enumerate(cmp_.surrogate_delta_alphas)


def reference_forecast_rows(report):
    return ((r.segment_label, r.method, r.d_used, r.mape, r.seed, r.n_eval, r.start, r.stop,
             r.skipped_reason, r.stop_reason, r.iterations, r.best_step) for r in report.rows)


def reference_fitted_rows(report):
    return ((r.segment_label, r.method, r.seed, r.eval_start + i, a_i, f_i)
            for r in report.rows if r.fitted is not None
            for i, (a_i, f_i) in enumerate(zip(r.actual, r.fitted)))


def reference_series_rows(dates, values):
    return ((str(d), float(v)) for d, v in zip(dates, values))


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-7, 1e16, 0.1, 1.0, -2.5)
floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
labels = st.sampled_from(["seg", "a,b", 'say "hi"', "two\nlines", "", "é"])


def float_arrays(size):
    return st.lists(floats, min_size=size, max_size=size).map(np.array)


def maybe_numpy(value):
    """A float as itself or as a NumPy float64 scalar."""
    return st.sampled_from([value, np.float64(value)])


@st.composite
def surfaces(draw):
    n_q, n_s = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return FluctuationSurface(
        q_grid=draw(float_arrays(n_q)),
        scale_grid=np.array(draw(st.lists(st.integers(2, 10**6), min_size=n_s, max_size=n_s)),
                            dtype=int),
        phi=draw(float_arrays(n_q * n_s)).reshape(n_q, n_s),
        n_windows=np.array(draw(st.lists(st.integers(0, 10**6), min_size=n_s, max_size=n_s)),
                           dtype=int),
        n_samples=100, detrend_order=1)


@st.composite
def spectra(draw):
    n = draw(st.integers(0, 5))
    return SingularitySpectrum(*(draw(float_arrays(n)) for _ in range(4)),
                               delta_alpha=draw(floats.flatmap(maybe_numpy)),
                               alpha_monotone=draw(st.booleans()))


@st.composite
def curves(draw):
    n = draw(st.integers(0, 5))
    return HurstCurve(*(draw(float_arrays(n)) for _ in range(4)))


optional_floats = st.none() | floats.flatmap(maybe_numpy)


@st.composite
def structured_reports(draw):
    segments = tuple(
        SegmentReport(draw(labels), draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6)),
                      None, None, draw(st.none() | spectra()),
                      draw(st.none() | labels), draw(optional_floats), draw(optional_floats),
                      draw(optional_floats), draw(st.none() | labels))
        for _ in range(draw(st.integers(0, 4))))
    result = ChangePointResult(breaks=(), segment_costs=(), total_cost=0.0,
                               config_used=ChangePointConfig(), n=10)
    return StructuredReport(result, segments)


@st.composite
def forecast_reports(draw):
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        scored = draw(st.booleans())
        n = draw(st.integers(0, 4))
        rows.append(ForecastRow(
            draw(labels), draw(st.sampled_from(["FD-NAR", "LFD-NAR"])),
            draw(floats.flatmap(maybe_numpy)), draw(floats.flatmap(maybe_numpy)),
            draw(st.integers(0, 2**31)), n, draw(st.integers(0, 10**4)),
            draw(st.integers(0, 10**4)), None if scored else draw(labels),
            stop_reason=draw(st.sampled_from(["cap", "validation", "tolerance"])) if scored else None,
            iterations=draw(st.integers(0, 200)) if scored else None,
            best_step=draw(st.integers(0, 200)) if scored else None,
            eval_start=draw(st.integers(0, 10**4)) if scored else None,
            actual=tuple(draw(st.lists(floats, min_size=n, max_size=n))) if scored else None,
            fitted=tuple(draw(st.lists(floats, min_size=n, max_size=n))) if scored else None))
    return ForecastReport(rows=tuple(rows))


@st.composite
def surrogate_comparisons(draw):
    widths = draw(st.lists(floats.flatmap(maybe_numpy), max_size=6))
    return SurrogateComparison("shuffle", 0.5, tuple(widths), 0.5, 0)


def assert_same_bytes(tmp_path, header, rows, reference_rows):
    serialize.write_csv(tmp_path / "new.csv", header, rows)
    reference_write_csv(tmp_path / "old.csv", header, reference_rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestBuildersMatchPerCellWriter:
    # [DERIVED] every builder, written by write_csv, gives the bytes of the
    # builder it replaced written cell by cell: NaN and None as empty
    # fields, floats by their shortest repr, NumPy scalars as Python ones

    @PROPERTY
    @given(labels, surfaces())
    def test_surface_rows(self, tmp_path, label, surface):
        assert_same_bytes(tmp_path, serialize.SURFACE_HEADER,
                          serialize.surface_rows(label, surface),
                          reference_surface_rows(label, surface))

    @PROPERTY
    @given(labels, curves())
    def test_hurst_rows(self, tmp_path, label, curve):
        assert_same_bytes(tmp_path, serialize.HURST_HEADER, serialize.hurst_rows(label, curve),
                          reference_hurst_rows(label, curve))

    @PROPERTY
    @given(labels, spectra())
    def test_spectrum_rows(self, tmp_path, label, spec):
        assert_same_bytes(tmp_path, serialize.SPECTRUM_HEADER,
                          serialize.spectrum_rows(label, spec),
                          reference_spectrum_rows(label, spec))

    @PROPERTY
    @given(structured_reports())
    def test_segment_rows(self, tmp_path, report):
        assert_same_bytes(tmp_path, serialize.SEGMENTS_HEADER,
                          serialize.segment_rows(serialize.segment_entries(report)),
                          reference_segment_rows(report))

    @PROPERTY
    @given(surrogate_comparisons())
    def test_surrogate_rows(self, tmp_path, cmp_):
        assert_same_bytes(tmp_path, serialize.SURROGATE_HEADER, serialize.surrogate_rows(cmp_),
                          reference_surrogate_rows(cmp_))

    @PROPERTY
    @given(forecast_reports())
    def test_forecast_and_fitted_rows(self, tmp_path, report):
        assert_same_bytes(tmp_path, serialize.FORECAST_HEADER, serialize.forecast_rows(report),
                          reference_forecast_rows(report))
        assert_same_bytes(tmp_path, serialize.FITTED_HEADER, serialize.fitted_rows(report),
                          reference_fitted_rows(report))

    @PROPERTY
    @given(st.integers(-200000, 2900000), st.lists(floats, max_size=6))
    def test_series_rows(self, tmp_path, first_day, values):
        dates = np.datetime64("0001-01-01") + first_day % 3000000 + np.arange(len(values))
        assert_same_bytes(tmp_path, serialize.SERIES_HEADER,
                          serialize.series_rows(dates, np.array(values)),
                          reference_series_rows(dates, values))

    def test_series_rows_across_chunks(self, tmp_path):
        # rows are built a chunk at a time: two chunks and a short one, whose
        # dates run from year 9999 into five-digit years
        n = 2 * serialize.SERIES_CHUNK + 3
        dates = np.datetime64("9999-12-31") - serialize.SERIES_CHUNK + np.arange(n)
        values = np.random.default_rng(0).standard_normal(n)
        values[::1000] = math.nan
        assert_same_bytes(tmp_path, serialize.SERIES_HEADER, serialize.series_rows(dates, values),
                          reference_series_rows(dates, values))
        last_date = (tmp_path / "new.csv").read_text().splitlines()[-1].split(",")[0]
        assert int(last_date.split("-")[0]) > 9999

    def test_changepoint_rows(self, tmp_path):
        result = ChangePointResult(breaks=(3, 9), segment_costs=(0.0, 0.0, 0.0),
                                   total_cost=0.0, config_used=ChangePointConfig(), n=12)
        timestamps = np.datetime64("2000-01-01") + np.arange(12)
        rows = list(serialize.changepoint_rows(result, timestamps))
        assert_same_bytes(tmp_path, serialize.CHANGEPOINT_HEADER, rows, rows)


float_cells = st.sampled_from(SPECIAL_FLOATS).flatmap(maybe_numpy) | st.none() | floats
other_cells = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | labels
               | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
               | st.floats(allow_nan=False).flatmap(maybe_numpy))


@st.composite
def tables(draw):
    """(float column flags, columns): float columns hold floats, NaN, NumPy
    float64 and None; the others hold any other cell write_csv takes."""
    n_rows = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=5))
    columns = [draw(st.lists(float_cells if is_float else other_cells,
                             min_size=n_rows, max_size=n_rows)) for is_float in kinds]
    return kinds, columns


class TestWriterMatchesPerCellWriter:
    @PROPERTY
    @given(tables())
    def test_generated_rows(self, tmp_path, table):
        # [DERIVED] float columns pass through the builders' column rule,
        # the rest go to write_csv as they are; the bytes equal the per-cell
        # writer's on the raw cells
        kinds, columns = table
        built = [serialize._floats(c) if is_float else c for is_float, c in zip(kinds, columns)]
        header = [f"c{k}" for k in range(len(columns))]
        assert_same_bytes(tmp_path, header, zip(*built), zip(*columns))

    def test_floats_keeps_python_floats_and_empties_nan(self):
        got = serialize._floats((1e16, np.float64(-0.0), None, math.nan, -math.inf))
        assert got == [1e16, -0.0, None, None, -math.inf]
        assert [type(v) for v in got] == [float, float, type(None), type(None), float]
        assert math.copysign(1.0, got[1]) == -1.0


def test_json_runs_build_no_csv_rows(tmp_path):
    # the builders are lazy: a --format json run never starts one, and no
    # column is converted; the same spies see a --format csv run start them
    rng = np.random.default_rng(0)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 400)))
    path = str(write_price_csv(tmp_path / "p.csv", prices))
    started = []

    def spy(name, builder):
        def wrapper(*args):
            rows = builder(*args)

            def watched():
                started.append(name)
                yield from rows
            return watched()
        return wrapper

    runs = [["analyze", path, "--surrogates", "10"], ["changepoints", path], ["mfdfa", path],
            ["surrogate", path, "--n", "10"],
            ["forecast", path, "--breaks", "none", "--method", "fd", "--p", "2", "--hidden",
             "2"]]
    builders = {name: getattr(cli, name) for name in vars(cli) if name.endswith("_rows")}
    assert len(builders) == 9
    with mock.patch.multiple(cli, **{n: spy(n, b) for n, b in builders.items()}), \
            mock.patch.object(serialize, "_floats", wraps=serialize._floats) as columns:
        for k, argv in enumerate(runs):
            assert main([*argv, "--format", "json", "--out", str(tmp_path / f"j{k}")]) == 0
        assert started == [] and columns.call_count == 0
        assert main([*runs[2], "--out", str(tmp_path / "csv")]) == 0
        assert started == ["surface_rows", "hurst_rows", "spectrum_rows"]
        assert columns.call_count > 0
