"""Fractional integration: GPH estimation, differencing, generators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smfdfa import (
    InputError,
    MfdfaConfig,
    analyze_segment,
    arfima_generate,
    fgn_generate,
    frac_diff,
    frac_diff_weights,
    gph_estimate,
    hurst_dfa,
)
from smfdfa.longmemory import MAX_AUTO_TRUNCATION, WEIGHT_CUTOFF, _auto_weights


def reference_auto_truncation(d: float, n: int) -> int:
    """K as first written: its own running product of the binomial weights,
    rounded as w *= (k - 1 - d) / k, stopping at the first |w_k| below the
    cutoff."""
    k_cap = min(MAX_AUTO_TRUNCATION, max(n // 4, 1))
    w = 1.0
    for k in range(1, k_cap + 1):
        w *= (k - 1 - d) / k
        if abs(w) < WEIGHT_CUTOFF:
            return k
    return k_cap


class TestWeights:
    def test_hand_values_for_d_04(self):
        # [TRIVIAL] w_0=1, w_1=-0.4, w_2=-0.4*0.6/2=-0.12,
        # w_3=-0.12*1.6/3=-0.064
        w = frac_diff_weights(0.4, 3)
        np.testing.assert_allclose(w, [1.0, -0.4, -0.12, -0.064], rtol=1e-14)

    def test_sign_pattern_matches_alternating_binomials(self):
        # [DERIVED] w_k = (-1)^k C(d,k); checked against a direct product
        # evaluation of the binomial coefficient
        for d in (0.3, 0.7, 1.5, 2.4, -0.4):
            w = frac_diff_weights(d, 12)
            for k in range(13):
                binom = 1.0
                for i in range(k):
                    binom *= (d - i) / (i + 1)
                want = (-1.0) ** k * binom
                assert math.isclose(w[k], want, rel_tol=1e-12, abs_tol=1e-300), (d, k)

    def test_absolute_sum_converges_to_two_for_small_positive_d(self):
        # [DERIVED] for 0 < d < 1 all weights beyond w_0 = 1 are negative
        # and sum to -1, so sum|w_k| -> 2 from below at rate K^{-d};
        # d = 0.3 at K = 40000 leaves a ~0.032 tail, d = 0.7 a ~2e-4 one
        for d, floor in ((0.3, 1.9), (0.7, 1.99)):
            w = frac_diff_weights(d, 40000)
            partial = np.cumsum(np.abs(w))
            assert np.all(np.diff(partial) >= 0)
            assert floor < partial[-1] < 2.0, d
            assert partial[-1] > partial[20000]  # still climbing toward 2

    def test_integer_orders_terminate(self):
        # [TRIVIAL] d=1 -> (1, -1, 0, ...); d=2 -> (1, -2, 1, 0, ...)
        np.testing.assert_array_equal(frac_diff_weights(1.0, 4), [1, -1, 0, 0, 0])
        np.testing.assert_array_equal(frac_diff_weights(2.0, 4), [1, -2, 1, 0, 0])


class TestFracDiff:
    def test_zero_order_is_identity(self, rng):
        # [TRIVIAL]
        x = rng.standard_normal(700)
        out = frac_diff(x, 0.0, truncation=100)
        np.testing.assert_array_equal(out.values, x)

    def test_unit_order_is_first_differences(self, rng):
        # [TRIVIAL] with out[0] = x[0] (implicit zero history)
        x = rng.standard_normal(300)
        out = frac_diff(x, 1.0, truncation=50)
        np.testing.assert_array_equal(out.values[1:], np.diff(x))
        assert out.values[0] == x[0]

    def test_linearity(self, rng):
        x, y = rng.standard_normal(400), rng.standard_normal(400)
        a, b = 2.5, -1.25
        lhs = frac_diff(a * x + b * y, 0.37, truncation=120).values
        rhs = (a * frac_diff(x, 0.37, truncation=120).values
               + b * frac_diff(y, 0.37, truncation=120).values)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_round_trip_exact_inside_filter_memory(self, rng):
        # [DERIVED] the composed filter conv(w_d, w_-d) truncated at K is
        # the identity for lags <= K, so positions whose full history fits
        # are recovered to float precision; beyond K the dropped filter
        # tails leave a remainder that never vanishes (O(1e-2) of the
        # signal scale for d=0.3, K=500 on stationary input, and growing
        # with low-frequency content), which is why the exactness claim
        # stops at K
        x = rng.standard_normal(2000)
        k = 500
        forward = frac_diff(x, 0.3, truncation=k)
        back = frac_diff(forward.values, -0.3, truncation=k)
        err = np.abs(back.values - x)
        assert err[: k + 1].max() <= 1e-12
        assert 1e-4 < err[k + 1 :].max() < 0.2

    def test_round_trip_at_a_short_truncation(self, rng):
        x = rng.standard_normal(600)
        fd = frac_diff(x, 0.42, truncation=80)
        fi = frac_diff(fd.values, -0.42, truncation=80)
        np.testing.assert_allclose(fi.values[:81], x[:81], atol=1e-12)

    def test_burn_in_equals_truncation(self, rng):
        out = frac_diff(rng.standard_normal(900), 0.3, truncation=200)
        assert out.burn_in == 200
        assert out.values.size == 900  # full length, flagged not dropped

    def test_auto_truncation_caps_at_500(self, rng):
        out = frac_diff(rng.standard_normal(4000), 0.3)
        assert out.burn_in == 500

    def test_auto_truncation_stops_at_negligible_weights(self, rng):
        # near-integer order: weights decay fast, the filter shortens
        out = frac_diff(rng.standard_normal(4000), 0.95)
        assert out.burn_in < 500

    @settings(max_examples=300, deadline=None)
    @given(d=st.floats(-1.5, 1.5), n=st.sampled_from([1, 7, 40, 400, 2000, 5000]))
    @example(d=0.0, n=400)  # w_1 = -0.0: K = 1
    @example(d=1.0, n=400)  # w_2 = 0 exactly: K = 2
    @example(d=0.3, n=2000)  # the cap binds
    def test_auto_truncation_equals_reference(self, d, n):
        # [DERIVED] K read from frac_diff_weights' recurrence equals the
        # running product's, whose rounding order differs, and the weights
        # cut from the capped run are those of a run to K, bit for bit
        w = _auto_weights(d, n)
        assert w.size - 1 == reference_auto_truncation(d, n)
        assert w.tobytes() == frac_diff_weights(d, w.size - 1).tobytes()

    def test_truncation_must_fit_series(self, rng):
        with pytest.raises(InputError, match="smaller than the series length"):
            frac_diff(rng.standard_normal(100), 0.3, truncation=100)

    def test_config_validation(self):
        with pytest.raises(InputError, match="order must be finite"):
            frac_diff(np.zeros(10), math.inf)
        with pytest.raises(InputError, match="truncation must be >= 1"):
            frac_diff(np.zeros(10), 0.3, truncation=0)


class TestGph:
    def test_iid_noise_estimates_near_zero(self):
        # [DERIVED] white noise has d = 0; isqrt bandwidth, 5 fixed seeds
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal(4096)
            est = gph_estimate(x)
            assert abs(est.d_hat) < 3.0 * est.stderr + 0.05, f"seed {seed}"
            assert est.bandwidth == 64  # isqrt(4096)
            assert est.stderr > 0

    def test_recovers_fractional_order(self):
        # [DERIVED] mean over 5 seeds within 0.12 of the true order
        # (the full 20-seed version runs in the acceptance suite)
        d_hats = [gph_estimate(arfima_generate(0.3, 4096, seed)).d_hat for seed in range(5)]
        assert abs(float(np.mean(d_hats)) - 0.3) < 0.12

    def test_length_guard(self, rng):
        with pytest.raises(InputError, match="128"):
            gph_estimate(rng.standard_normal(100))
        # 2-d input used to raise a bare NumPy ValueError, and one inf
        # gave d_hat = nan without an error
        with pytest.raises(InputError, match="1-d"):
            gph_estimate(rng.standard_normal((2, 600)))
        x = rng.standard_normal(600)
        x[7] = np.inf
        with pytest.raises(InputError, match="non-finite value at index 7"):
            gph_estimate(x)

    def test_whitening_reduces_memory(self):
        # differencing by the estimated order must shrink the next
        # estimate in >= 9/10 seeds
        wins = 0
        for seed in range(10):
            x = arfima_generate(0.35, 4096, seed=700 + seed)
            before = gph_estimate(x).d_hat
            filtered = frac_diff(x, before)
            after = gph_estimate(filtered.values[filtered.burn_in:]).d_hat
            if abs(after) < abs(before):
                wins += 1
        assert wins >= 9


class TestHurstDfa:
    def test_matches_generator_exponent(self):
        # [DERIVED] fGn with H=0.8: estimates measured in [0.72, 0.79]
        # over these seeds
        vals = [hurst_dfa(fgn_generate(8192, 0.8, seed)) for seed in range(5)]
        assert all(0.65 < v < 0.95 for v in vals)
        assert abs(float(np.mean(vals)) - 0.8) < 0.1

    def test_relation_to_fractional_order(self):
        # [DERIVED] H ~ d + 0.5 on stationary fractional noise, within
        # 0.15 on 10-seed means
        h_vals, d_vals = [], []
        for seed in range(10):
            x = arfima_generate(0.2, 4096, seed=40 + seed)
            h_vals.append(hurst_dfa(x))
            d_vals.append(gph_estimate(x).d_hat)
        assert abs(float(np.mean(h_vals)) - (float(np.mean(d_vals)) + 0.5)) < 0.15

    def test_length_guard(self, rng):
        with pytest.raises(InputError, match="256"):
            hurst_dfa(rng.standard_normal(255))

    def test_respects_custom_detrend_order(self):
        x = fgn_generate(4096, 0.7, seed=1)
        h1 = hurst_dfa(x)
        h2 = hurst_dfa(x, MfdfaConfig(detrend_order=2))
        assert h1 != h2
        assert abs(h1 - h2) < 0.1

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_q2_row_of_segment_surface(self, data):
        # [DERIVED] the q = 2 power mean is computed per moment, so the q = 2
        # row of a full MF-DFA surface is the DFA surface bit for bit; the
        # analyze command reads each regime's Hurst exponent from that row
        n = data.draw(st.integers(256, 4096), label="n")
        order = data.draw(st.integers(1, 3), label="detrend_order")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = np.abs(gen.standard_t(df=3, size=n))
        regression_range = None
        if data.draw(st.booleans(), label="restrict"):
            scales = MfdfaConfig(detrend_order=order).resolve_scales(n)
            lo = data.draw(st.integers(0, scales.size - 4), label="lo")
            hi = data.draw(st.integers(lo + 3, scales.size - 1), label="hi")
            regression_range = (int(scales[lo]), int(scales[hi]))
        cfg = MfdfaConfig(detrend_order=order, regression_range=regression_range)
        _, curve, _ = analyze_segment(x, cfg)
        assert curve.rho[cfg.q_grid.index(2.0)] == hurst_dfa(x, cfg)


class TestArfimaGenerate:
    def test_deterministic_and_shaped(self):
        a = arfima_generate(0.3, 1000, seed=5)
        b = arfima_generate(0.3, 1000, seed=5)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1000,)
        assert not np.array_equal(a, arfima_generate(0.3, 1000, seed=6))

    def test_sigma_scales_linearly(self):
        a = arfima_generate(0.25, 500, seed=9, sigma=1.0)
        b = arfima_generate(0.25, 500, seed=9, sigma=3.0)
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-12)

    def test_zero_order_is_white_noise(self):
        x = arfima_generate(0.0, 8192, seed=2)
        assert abs(float(np.var(x)) - 1.0) < 0.05
        r1 = float(np.corrcoef(x[:-1], x[1:])[0, 1])
        assert abs(r1) < 0.05

    def test_stationarity_guard(self):
        with pytest.raises(InputError, match="0.5"):
            arfima_generate(0.5, 100, seed=0)
        with pytest.raises(InputError, match="0.5"):
            arfima_generate(-0.6, 100, seed=0)


class TestFgnGenerate:
    def test_deterministic(self):
        np.testing.assert_array_equal(fgn_generate(512, 0.7, 3), fgn_generate(512, 0.7, 3))

    def test_variance_and_lag_one_autocorrelation(self):
        # [DERIVED] gamma(1)/gamma(0) = 2^{2H-1} - 1; H=0.7 gives 0.3195
        x = fgn_generate(2**15, 0.7, seed=11)
        assert abs(float(np.var(x)) - 1.0) < 0.05
        xc = x - x.mean()
        r1 = float(np.dot(xc[:-1], xc[1:]) / np.dot(xc, xc))
        assert abs(r1 - (2.0**0.4 - 1.0)) < 0.05

    def test_half_exponent_is_white_noise(self):
        x = fgn_generate(2**14, 0.5, seed=4)
        xc = x - x.mean()
        r1 = float(np.dot(xc[:-1], xc[1:]) / np.dot(xc, xc))
        assert abs(r1) < 0.05

    def test_sigma_scaling(self):
        a = fgn_generate(256, 0.6, 7, sigma=1.0)
        b = fgn_generate(256, 0.6, 7, sigma=2.0)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-10)

    def test_exponent_guard(self):
        with pytest.raises(InputError, match="hurst"):
            fgn_generate(128, 1.0, 0)
        with pytest.raises(InputError, match="hurst"):
            fgn_generate(128, 0.0, 0)
