"""Ingestion, transforms and descriptive statistics."""

import math

import numpy as np
import pytest

from smfdfa import (
    CsvConfig,
    InputError,
    TimeSeries,
    describe,
    load_csv,
    outlier_census,
    to_fluctuations,
)
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

    def test_extreme_never_exceeds_mild(self, rng):
        for _ in range(5):
            x = rng.standard_t(df=2, size=200)
            c = outlier_census(x)
            assert c.low_extreme <= c.low_mild
            assert c.high_extreme <= c.high_mild

