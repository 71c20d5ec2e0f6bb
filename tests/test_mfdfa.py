"""Multifractal fluctuation analysis: surfaces, spectra, cascade oracle."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfdfa import (
    ChangePointConfig,
    FluctuationSurface,
    HurstCurve,
    InputError,
    MfdfaConfig,
    NumericalError,
    analytic_delta_alpha,
    analytic_rho,
    analyze_segment,
    default_scale_grid,
    fa_partition,
    fluctuation_surface,
    generalized_hurst,
    generate_cascade,
    gph_estimate,
    hurst_dfa,
    s_mfdfa,
    scaling_and_spectrum,
    to_fluctuations,
)
from smfdfa.mfdfa import _detrended_window_variances, _detrending_operator, _phi_column
from conftest import integrate_magnitudes, make_series


def reference_window_variances(profile: np.ndarray, s: int, order: int) -> np.ndarray:
    """The detrending kernel as first written: a fresh design matrix and
    pseudo-inverse per call, out-of-place residuals and np.mean."""
    n = profile.size
    t = n // s
    fwd = profile[: t * s].reshape(t, s)
    bwd = profile[n - t * s:].reshape(t, s)[::-1]
    windows = np.concatenate([fwd, bwd], axis=0)
    u = (np.arange(1, s + 1, dtype=float)) / s
    design = np.vander(u, order + 1, increasing=True)
    pinv = np.linalg.pinv(design)
    coefs = windows @ pinv.T
    resid = windows - coefs @ design.T
    return np.mean(resid * resid, axis=1)


def reference_phi_column(sig2: np.ndarray, q_grid: np.ndarray, s: int) -> np.ndarray:
    """The power means as first written: one log-sum-exp per q, each with
    its own np.max, np.exp and np.sum over the window variances."""
    n_s = sig2.size
    zero = sig2 <= 0.0
    neg_q = q_grid[q_grid <= 0]
    if zero.any() and neg_q.size:
        gamma = int(np.flatnonzero(zero)[0]) + 1
        raise NumericalError(
            f"window variance is exactly 0 at (s={s}, gamma={gamma}); "
            f"moments q <= 0 are singular there"
        )
    log_sig2 = np.log(sig2[~zero])
    phi = np.empty(q_grid.size)
    for i, q in enumerate(q_grid):
        if q == 0.0:
            phi[i] = 0.0 if zero.any() else math.exp(float(np.sum(log_sig2)) / (2.0 * n_s))
        else:
            a = (q / 2.0) * log_sig2
            m = float(np.max(a)) if a.size else -math.inf
            if not math.isfinite(m):
                phi[i] = 0.0
                continue
            lse = m + math.log(float(np.sum(np.exp(a - m))))
            phi[i] = math.exp((lse - math.log(n_s)) / q)
    return phi


def reference_ols_loglog(log_s: np.ndarray, log_phi: np.ndarray):
    """One straight-line fit of a 1-d row, as first written."""
    n = log_s.size
    sx = log_s - log_s.mean()
    sy = log_phi - log_phi.mean()
    ssx = float(np.dot(sx, sx))
    slope = float(np.dot(sx, sy)) / ssx
    resid = sy - slope * sx
    ssr = float(np.dot(resid, resid))
    sst = float(np.dot(sy, sy))
    stderr = math.sqrt(max(ssr / (n - 2), 0.0) / ssx) if n > 2 else 0.0
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    return slope, stderr, max(min(r2, 1.0), 0.0)


def reference_generalized_hurst(surface: FluctuationSurface) -> np.ndarray:
    """(rho, stderr, r_squared) rows of generalized_hurst as first written:
    one masked 1-d row and one fit per q."""
    scales = surface.scale_grid
    mask = np.ones(scales.size, dtype=bool)
    if surface.regression_range is not None:
        lo, hi = surface.regression_range
        mask = (scales >= lo) & (scales <= hi)
    log_s = np.log10(scales[mask].astype(float))
    fits = [reference_ols_loglog(log_s, np.log10(surface.phi[i, mask]))
            for i in range(surface.q_grid.size)]
    return np.array(fits).T


def reference_fa_partition(measure: np.ndarray, q_grid, scale_grid):
    """z and tau_fa of fa_partition as first written, one q at a time."""
    q = np.asarray(q_grid, dtype=float)
    scales = np.asarray(scale_grid, dtype=int)
    z = np.empty((q.size, scales.size))
    for j, s in enumerate(scales):
        nb = measure.size // int(s)
        p = measure[: nb * int(s)].reshape(nb, int(s)).sum(axis=1)
        logp = np.log(p[p > 0])
        for i, qi in enumerate(q):
            a = qi * logp
            m = float(np.max(a))
            z[i, j] = math.exp(m + math.log(float(np.sum(np.exp(a - m)))))
    log_s = np.log10(scales.astype(float))
    tau = np.array([reference_ols_loglog(log_s, np.log10(z[i]))[0] for i in range(q.size)])
    return z, tau


class TestScaleGrid:
    def test_default_grid_shape(self):
        g = default_scale_grid(4096)
        assert g[0] == 16 and g[-1] == 1024  # n // 4
        assert np.all(np.diff(g) > 0)
        assert g.dtype.kind == "i"

    def test_too_short_for_any_scale(self):
        with pytest.raises(InputError):
            default_scale_grid(40)


class TestConfigValidation:
    def test_rejects_bad_grids(self):
        with pytest.raises(InputError):
            MfdfaConfig(q_grid=())
        with pytest.raises(InputError):
            MfdfaConfig(q_grid=(1.0, 1.0))
        with pytest.raises(InputError):
            MfdfaConfig(scale_grid=(32, 16))
        with pytest.raises(InputError):
            MfdfaConfig(scale_grid=())
        with pytest.raises(InputError):
            MfdfaConfig(regression_range=(16,))
        with pytest.raises(InputError):
            MfdfaConfig(detrend_order=0)

    @pytest.mark.parametrize("bad", [
        {"q_grid": (-2.0, -1.0, 1.0, math.nan, 2.0, 3.0)},
        {"q_grid": (-math.inf, -2.0, 2.0)},
        {"q_grid": (1.0, math.inf)},
        {"q_grid": (math.nan,)},
        {"regression_range": (16, math.inf)},
        {"regression_range": (math.nan, 64)},
    ])
    def test_rejects_non_finite_moments_and_bounds(self, bad):
        # a NaN q passed the strictly-increasing check and surfaced as a
        # monotonicity "bug"; the power-sum kernel picks each row maximum
        # by the sign of q, which needs a finite q
        with pytest.raises(InputError, match="must hold finite values"):
            MfdfaConfig(**bad)

    def test_scale_must_leave_detrend_dof(self):
        # smallest scale must be >= m + 2
        with pytest.raises(InputError):
            MfdfaConfig(scale_grid=(4, 64), detrend_order=3)

    def test_segment_must_cover_four_max_scales(self, rng):
        cfg = MfdfaConfig(scale_grid=(16, 64))
        with pytest.raises(InputError):
            fluctuation_surface(rng.standard_normal(100), cfg)
        # a segment must also be 1-d and finite: one NaN used to give phi = 0
        # and a misleading "vanished" NumericalError, a (2, 600) array was
        # analysed as 1200 samples
        x = np.abs(rng.standard_normal(600))
        x[5] = np.nan
        with pytest.raises(InputError, match="non-finite value at index 5"):
            fluctuation_surface(x, MfdfaConfig(q_grid=(2.0,)))
        with pytest.raises(InputError, match="non-finite value at index 5"):
            s_mfdfa(x)
        for bad in (np.abs(rng.standard_normal((2, 600))), np.float64(1.0)):
            with pytest.raises(InputError, match="1-d"):
                fluctuation_surface(bad)
            with pytest.raises(InputError, match="1-d"):
                s_mfdfa(bad)


class TestFluctuationSurface:
    def test_window_count_is_twice_floor_t_over_s(self, rng):
        # checked exactly on a grid with non-dividing scales
        cfg = MfdfaConfig(q_grid=(-2.0, 0.0, 2.0), scale_grid=(50, 166, 250))
        surf = fluctuation_surface(rng.standard_normal(1000), cfg)
        np.testing.assert_array_equal(
            surf.n_windows, [2 * (1000 // 50), 2 * (1000 // 166), 2 * (1000 // 250)]
        )

    def test_six_windows_at_scale_300_of_1000(self):
        # [PAPER] 1000 samples at scale 300: floor gives 3 forward and 3
        # backward windows. The scale exceeds the quarter-length cap that
        # surface configs enforce, so the window helper is checked directly.
        profile = np.cumsum(np.random.default_rng(0).standard_normal(1000))
        sig2 = _detrended_window_variances(profile, 300, order=1)
        assert sig2.size == 6

    def test_constant_input_perfectly_detrended(self):
        # [TRIVIAL] constant fluctuations (exactly representable value):
        # the profile is identically zero, all window variances vanish,
        # positive moments report 0
        cfg = MfdfaConfig(q_grid=(1.0, 2.0), scale_grid=(8, 16))
        surf = fluctuation_surface(np.full(128, 0.5), cfg)
        np.testing.assert_array_equal(surf.phi, 0.0)

    def test_zero_variance_with_negative_q_is_an_error_naming_window(self):
        # [TRIVIAL] negative moments of zero are singular
        cfg = MfdfaConfig(q_grid=(-2.0, 2.0), scale_grid=(8, 16))
        with pytest.raises(NumericalError, match=r"s=8, gamma=1"):
            fluctuation_surface(np.full(128, 0.5), cfg)

    def test_overflowing_window_variance_is_named(self):
        # values near 1e155 square past the largest float while detrending:
        # once overflow RuntimeWarnings and a "monotonicity violated" error
        # meant for computation bugs
        x = np.where(np.arange(1000) % 2, 2e155, 1e155)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cfg in (MfdfaConfig(), MfdfaConfig(q_grid=(1.0, 2.0))):
                with pytest.raises(NumericalError,
                                   match=r"window variance overflows at \(s=16, gamma=1\)"):
                    fluctuation_surface(x, cfg)

    def test_white_noise_scales_like_square_root(self):
        # [DERIVED] classic DFA result: i.i.d. input has slope 1/2; Monte
        # Carlo with fixed seeds, tolerance 0.1
        for seed in (0, 1, 2):
            x = np.random.default_rng(seed).standard_normal(4096)
            cfg = MfdfaConfig(q_grid=(2.0,))
            curve = generalized_hurst(fluctuation_surface(x, cfg))
            assert abs(curve.rho[0] - 0.5) < 0.1, f"seed {seed}: {curve.rho[0]}"

    def test_power_mean_monotone_in_q(self, rng):
        # phi_q(s) is a power mean of window variances: non-decreasing in q
        surf = fluctuation_surface(rng.standard_normal(2048), MfdfaConfig())
        assert np.all(np.diff(surf.phi, axis=0) >= -1e-9 * surf.phi[:-1])

    def test_q_zero_between_small_flanking_moments(self, rng):
        # the q=0 logarithmic mean is the q -> 0 limit of the power mean
        cfg = MfdfaConfig(q_grid=(-0.1, 0.0, 0.1))
        surf = fluctuation_surface(rng.standard_normal(2048), cfg)
        assert np.all(surf.phi[0] <= surf.phi[1] * (1 + 1e-12))
        assert np.all(surf.phi[1] <= surf.phi[2] * (1 + 1e-12))

    def test_detrend_order_two_removes_quadratic_profile(self):
        # fluctuations whose profile is exactly quadratic: order-2 detrend
        # wipes every window, order-1 does not
        t = np.arange(1, 513, dtype=float)
        values = 2.0 * t + 1.0  # profile = cumsum(values - mean) is quadratic
        cfg2 = MfdfaConfig(q_grid=(2.0,), scale_grid=(8, 16, 32), detrend_order=2)
        surf2 = fluctuation_surface(values, cfg2)
        assert np.all(surf2.phi < 1e-8)
        cfg1 = MfdfaConfig(q_grid=(2.0,), scale_grid=(8, 16, 32), detrend_order=1)
        surf1 = fluctuation_surface(values, cfg1)
        assert np.all(surf1.phi > 1e-3)


class TestDetrendingKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_bit_identical_to_reference_formula(self, data):
        # [TRIVIAL] the cached operators and in-place residuals run the same
        # GEMMs, subtraction, squares, pairwise row sums and division by s
        # as the reference, so every variance matches it bit for bit
        n = data.draw(st.integers(8, 3000), label="n")
        order = data.draw(st.integers(1, 3), label="order")
        s = data.draw(st.integers(order + 2, n), label="s")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        magnitude = data.draw(st.sampled_from([1e-12, 1e-3, 1.0, 1e4, 1e12]), label="magnitude")
        profile = np.cumsum(np.random.default_rng(seed).standard_normal(n) * magnitude)
        got = _detrended_window_variances(profile, s, order)
        assert got.tobytes() == reference_window_variances(profile, s, order).tobytes()

    def test_cached_operators_are_read_only(self):
        design, pinv_t = _detrending_operator(64, 2)
        assert design.shape == (64, 3) and pinv_t.shape == (64, 3)
        for array in (design, pinv_t, pinv_t.base):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pinv_t[0, 0] = 1.0
        assert _detrending_operator(64, 2)[1] is pinv_t


class TestPowerSumKernel:
    @pytest.mark.parametrize(
        "case", ["both signs", "one point", "zeros, q > 0", "all zero", "single window"]
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_power_means_bit_identical_to_reference(self, case, data):
        # [TRIVIAL] every q's row maximum is q/2 times the largest or the
        # smallest log variance, and exp and the pairwise row sums run on a
        # C-ordered block in one row's loop: the arithmetic of one q at a time
        n_s = 1 if case == "single window" else data.draw(st.integers(2, 400), label="windows")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        magnitude = data.draw(st.sampled_from([1e-200, 1e-12, 1.0, 1e12, 1e200]),
                              label="magnitude")
        spread = data.draw(st.floats(0.0, 8.0), label="spread")
        rng = np.random.default_rng(seed)
        sig2 = magnitude * np.exp(spread * rng.standard_normal(n_s))
        positive = case in ("zeros, q > 0", "all zero")
        if case == "zeros, q > 0":
            sig2[rng.random(n_s) < data.draw(st.floats(0.05, 0.95), label="zero share")] = 0.0
        elif case == "all zero":
            sig2[:] = 0.0
        moment = st.floats(0.05 if positive else -6.0, 6.0)
        if case == "one point":
            moment = st.sampled_from([-2.0, 0.0, 2.0]) | moment
        size = 1 if case == "one point" else data.draw(st.integers(2, 25), label="moments")
        q = np.unique(data.draw(st.lists(moment, min_size=size, max_size=size), label="q"))
        if not positive and size > 1 and data.draw(st.booleans(), label="with q = 0"):
            q = np.unique(np.append(q, 0.0))
        got = _phi_column(sig2, q, 16)
        assert got.tobytes() == reference_phi_column(sig2, q, 16).tobytes()

    @pytest.mark.parametrize("masked", [False, True], ids=["all scales", "regression_range"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_surfaces_and_hurst_curves_bit_identical_to_reference(self, masked, data):
        # [TRIVIAL] each surface column is the reference power means of its
        # window variances, and the row regression is one fit per q; a
        # regression_range mask copies phi in F order, whose row means would
        # sum in another order unless the copy is made C-ordered first
        n = data.draw(st.integers(256, 6000), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = {
            "noise": lambda: rng.standard_normal(n),
            "magnitudes": lambda: np.abs(rng.standard_normal(n)) * 1e-3,
            "walk": lambda: np.cumsum(rng.standard_normal(n)),
            "heavy tails": lambda: rng.standard_t(2, n),
        }[data.draw(st.sampled_from(["noise", "magnitudes", "walk", "heavy tails"]),
                    label="input")]()
        cfg = data.draw(st.sampled_from([
            MfdfaConfig(),
            MfdfaConfig(q_grid=(2.0,)),
            MfdfaConfig(q_grid=(-3.0, -1.0, 0.0, 1.5, 4.0), detrend_order=2),
        ]), label="config")
        scales = cfg.resolve_scales(n)
        if masked:
            lo = data.draw(st.integers(0, scales.size - 4), label="lo")
            hi = data.draw(st.integers(lo + 3, scales.size - 1), label="hi")
            cfg = replace(cfg, regression_range=(float(scales[lo]), float(scales[hi])))
        surface = fluctuation_surface(x, cfg)
        profile = np.cumsum(x - x.mean())
        want = np.column_stack([
            reference_phi_column(
                _detrended_window_variances(profile, int(s), cfg.detrend_order),
                surface.q_grid, int(s))
            for s in scales
        ])
        assert surface.phi.tobytes() == want.tobytes()
        curve = generalized_hurst(surface)
        got = np.array([curve.rho, curve.stderr, curve.r_squared])
        assert got.tobytes() == reference_generalized_hurst(surface).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_partition_function_bit_identical_to_reference(self, data):
        # [TRIVIAL] fa_partition runs the same power-sum kernel (coefficient
        # q) and row regression as the surfaces
        levels = data.draw(st.integers(5, 12), label="levels")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        if data.draw(st.booleans(), label="cascade"):
            b1 = data.draw(st.floats(0.51, 0.95), label="b1")
            measure = generate_cascade(b1, 1.0 - b1, levels, shuffle_seed=seed)
        else:  # empty boxes at small scales
            rng = np.random.default_rng(seed)
            measure = rng.random(2**levels) * (rng.random(2**levels) < 0.4)
            measure[0] = 1.0
            measure /= measure.sum()
        q = data.draw(st.lists(st.floats(-6.0, 6.0) | st.just(0.0), min_size=1, max_size=25),
                      label="q")
        pf = fa_partition(measure, q_grid=q)
        z, tau = reference_fa_partition(measure, q, pf.scale_grid)
        assert pf.z.tobytes() == z.tobytes()
        assert pf.tau_fa.tobytes() == tau.tobytes()


class TestGeneralizedHurst:
    @staticmethod
    def synthetic_surface(slope: float, scales=(16, 32, 64, 128, 256)) -> FluctuationSurface:
        s = np.asarray(scales, dtype=int)
        q = np.array([-2.0, 0.0, 2.0])
        phi = np.vstack([3.0 * s.astype(float) ** slope] * q.size)
        return FluctuationSurface(
            q_grid=q, scale_grid=s, phi=phi,
            n_windows=2 * (1024 // s), n_samples=1024, detrend_order=1,
        )

    def test_exact_power_law_recovered(self):
        # [TRIVIAL] phi = c * s^0.7 -> slope 0.7 to 1e-10
        curve = generalized_hurst(self.synthetic_surface(0.7))
        np.testing.assert_allclose(curve.rho, 0.7, rtol=0, atol=1e-10)
        np.testing.assert_allclose(curve.stderr, 0.0, atol=1e-9)
        np.testing.assert_allclose(curve.r_squared, 1.0, atol=1e-9)

    def test_regression_range_restricts_scales(self):
        # piecewise surface: slope 0.5 below 100, garbage above; a range
        # mask must recover the clean slope exactly
        s = np.array([16, 32, 64, 128, 256, 512])
        phi_clean = 2.0 * s.astype(float) ** 0.5
        phi = phi_clean.copy()
        phi[4:] *= 10.0  # corrupt the large scales
        surf = FluctuationSurface(
            q_grid=np.array([2.0]), scale_grid=s, phi=phi[None, :],
            n_windows=2 * (4096 // s), n_samples=4096, detrend_order=1,
            regression_range=(16, 128),
        )
        curve = generalized_hurst(surf)
        assert abs(curve.rho[0] - 0.5) < 1e-10

    def test_fewer_than_four_scales_rejected(self):
        surf = self.synthetic_surface(0.5, scales=(16, 32, 64))
        with pytest.raises(InputError, match="4"):
            generalized_hurst(surf)

    def test_zero_phi_rejected(self):
        surf = self.synthetic_surface(0.5)
        broken = FluctuationSurface(
            q_grid=surf.q_grid, scale_grid=surf.scale_grid,
            phi=np.zeros_like(surf.phi), n_windows=surf.n_windows,
            n_samples=surf.n_samples, detrend_order=1,
        )
        with pytest.raises(NumericalError):
            generalized_hurst(broken)


class TestSpectrum:
    def test_monofractal_collapse(self):
        # [TRIVIAL] constant rho = H: tau = qH - 1, alpha = H, f = 1,
        # width 0
        q = np.arange(-4.0, 4.5, 0.5)
        curve = HurstCurve(q_grid=q, rho=np.full(q.size, 0.6),
                           stderr=np.zeros(q.size), r_squared=np.ones(q.size))
        spec = scaling_and_spectrum(curve)
        np.testing.assert_allclose(spec.tau, q * 0.6 - 1.0, atol=1e-14)
        np.testing.assert_allclose(spec.alpha, 0.6, atol=1e-14)
        np.testing.assert_allclose(spec.f_alpha, 1.0, atol=1e-14)
        assert spec.delta_alpha == 0.0
        assert spec.alpha_monotone  # trivially (non-strictly) monotone

    def test_tau_at_unit_moment_is_rho_minus_one(self, rng):
        # [TRIVIAL] tau(1) = rho(1) - 1 by definition
        x = rng.standard_normal(2048)
        _, curve, spec = analyze_segment(x, MfdfaConfig())
        i = int(np.argwhere(np.isclose(curve.q_grid, 1.0))[0, 0])
        assert math.isclose(spec.tau[i], curve.rho[i] - 1.0, rel_tol=1e-12)

    def test_needs_five_moments(self):
        q = np.array([1.0, 2.0, 3.0, 4.0])
        curve = HurstCurve(q_grid=q, rho=np.full(4, 0.5),
                           stderr=np.zeros(4), r_squared=np.ones(4))
        with pytest.raises(InputError):
            scaling_and_spectrum(curve)

    def test_exact_derivative_override(self):
        # analytic rho' for the cascade tightens alpha vs finite differences
        b1, b2 = 0.75, 0.25
        q = np.arange(-5.0, 5.5, 0.5)
        rho = np.asarray(analytic_rho(b1, b2, q))
        eps = 1e-6
        rho_prime = (np.asarray(analytic_rho(b1, b2, q + eps))
                     - np.asarray(analytic_rho(b1, b2, q - eps))) / (2 * eps)
        curve = HurstCurve(q_grid=q, rho=rho, stderr=np.zeros(q.size),
                           r_squared=np.ones(q.size))
        spec = scaling_and_spectrum(curve, rho_prime=rho_prime)
        # alpha = d tau / dq must be decreasing in q for a cascade
        assert np.all(np.diff(spec.alpha) < 0)
        assert not np.any(np.diff(spec.f_alpha[q < 0]) < -1e-9)  # rising left branch

    def test_wide_moment_range_width_approaches_analytic(self):
        # [DERIVED] on the analytic curve with |q| up to 40 the Legendre
        # width converges to log2(b1/b2) = log2(3) = 1.58496
        b1, b2 = 0.75, 0.25
        q = np.arange(-40.0, 40.5, 0.5)
        rho = np.asarray(analytic_rho(b1, b2, q))
        curve = HurstCurve(q_grid=q, rho=rho, stderr=np.zeros(q.size),
                           r_squared=np.ones(q.size))
        spec = scaling_and_spectrum(curve)
        assert abs(spec.delta_alpha - math.log2(3.0)) < 0.05
        assert abs(analytic_delta_alpha(b1, b2) - 1.5849625007211562) < 1e-15


class TestAnalyticRho:
    def test_unit_moment_is_one_for_normalized_weights(self):
        # [TRIVIAL] b1 + b2 = 1 makes the log vanish at q = 1
        assert math.isclose(analytic_rho(0.75, 0.25, 1.0), 1.0, abs_tol=1e-14)

    def test_symmetric_weights_are_monofractal(self):
        # [TRIVIAL] b1 = b2 = 0.5 would give rho = 1 for every q, but the
        # validator requires b1 > b2; approach the limit instead
        for q in (-3.0, 0.5, 2.0, 7.0):
            assert abs(analytic_rho(0.5 + 1e-9, 0.5 - 1e-9, q) - 1.0) < 1e-6

    def test_hand_value_at_q_two(self):
        # [DERIVED] 1/2 - log2(0.75^2 + 0.25^2)/2 = 0.5 - log2(0.625)/2
        want = 0.5 - math.log2(0.625) / 2.0
        assert math.isclose(analytic_rho(0.75, 0.25, 2.0), want, rel_tol=1e-14)
        assert abs(want - 0.839) < 5e-4

    def test_continuous_through_zero(self):
        # the q -> 0 limit is -log2(b1*b2)/2
        want = -math.log2(0.75 * 0.25) / 2.0
        assert math.isclose(analytic_rho(0.75, 0.25, 0.0), want, rel_tol=1e-12)
        assert math.isclose(analytic_rho(0.75, 0.25, 1e-9), want, rel_tol=1e-6)

    def test_non_increasing_in_q(self):
        q = np.arange(-6.0, 6.01, 0.25)
        rho = np.asarray(analytic_rho(0.7, 0.3, q))
        assert np.all(np.diff(rho) < 0)

    def test_array_input(self):
        q = np.array([-2.0, 0.0, 2.0])
        out = np.asarray(analytic_rho(0.75, 0.25, q))
        assert out.shape == (3,)

    def test_invalid_weights_rejected(self):
        with pytest.raises(InputError):
            analytic_rho(0.25, 0.75, 2.0)


class TestCascadeGenerator:
    def test_one_level(self):
        # [TRIVIAL]
        np.testing.assert_allclose(generate_cascade(0.75, 0.25, 1), [0.75, 0.25])

    def test_two_levels_products(self):
        # [TRIVIAL]
        want = [0.75 * 0.75, 0.75 * 0.25, 0.25 * 0.75, 0.25 * 0.25]
        np.testing.assert_allclose(generate_cascade(0.75, 0.25, 2), want, rtol=1e-15)

    def test_normalization_and_length(self):
        m = generate_cascade(0.6, 0.4, 12)
        assert m.size == 4096
        assert math.isclose(m.sum(), 1.0, abs_tol=1e-9)
        assert np.all(m > 0)

    def test_shuffle_preserves_multiset(self):
        det = generate_cascade(0.75, 0.25, 8)
        shuf = generate_cascade(0.75, 0.25, 8, shuffle_seed=3)
        np.testing.assert_allclose(np.sort(det), np.sort(shuf), rtol=1e-12)
        assert not np.array_equal(det, shuf)

    def test_weight_validation(self):
        with pytest.raises(InputError):
            generate_cascade(0.2, 0.8, 4)
        with pytest.raises(InputError):
            generate_cascade(0.7, 0.2, 4)  # does not sum to 1
        with pytest.raises(InputError):
            generate_cascade(0.75, 0.25, 0)


class TestFaPartition:
    def test_uniform_measure_has_linear_exponents(self):
        # [TRIVIAL] p = s/T in every box: tau(q) = q - 1 exactly
        t = 1024
        pf = fa_partition(np.full(t, 1.0 / t), q_grid=(-3.0, -1.0, 0.5, 2.0, 4.0))
        np.testing.assert_allclose(pf.tau_fa, np.asarray([-4.0, -2.0, -0.5, 1.0, 3.0]),
                                   rtol=0, atol=1e-10)

    def test_point_mass_has_zero_exponents(self):
        # [TRIVIAL] one box holds everything: Z = 1 at every scale
        x = np.zeros(512)
        x[100] = 1.0
        pf = fa_partition(x, q_grid=(-2.0, 1.0, 3.0))
        np.testing.assert_allclose(pf.z, 1.0, rtol=1e-12)
        np.testing.assert_allclose(pf.tau_fa, 0.0, atol=1e-12)

    def test_cascade_boxes_are_exact_at_dyadic_scales(self):
        # [DERIVED] box sums of a depth-L cascade at scale 2^k are the
        # depth-(L-k) cascade, so Z_q(2^k) = (b1^q + b2^q)^(L-k) exactly
        b1, b2, levels = 0.75, 0.25, 10
        m = generate_cascade(b1, b2, levels)
        q_grid = (-4.0, -1.5, 2.0, 5.0)
        pf = fa_partition(m, q_grid=q_grid)
        for i, q in enumerate(q_grid):
            for j, s in enumerate(pf.scale_grid):
                k = int(math.log2(s))
                want = (b1**q + b2**q) ** (levels - k)
                assert math.isclose(pf.z[i, j], want, rel_tol=1e-9), (q, s)
            # and the fitted slope equals the closed form
            assert math.isclose(pf.tau_fa[i], -math.log2(b1**q + b2**q), rel_tol=1e-9)

    def test_both_scaling_routes_agree_on_cascade(self):
        # [DERIVED] q*rho(q) - 1 from the closed form equals the box-sum
        # exponents
        b1, b2 = 0.75, 0.25
        q_grid = np.array([-5.0, -2.0, 1.0, 3.0, 5.0])
        pf = fa_partition(generate_cascade(b1, b2, 12), q_grid=q_grid)
        tau_from_rho = q_grid * np.asarray(analytic_rho(b1, b2, q_grid)) - 1.0
        np.testing.assert_allclose(pf.tau_fa, tau_from_rho, atol=1e-8)

    def test_shuffled_cascade_keeps_dyadic_exponents(self):
        # box sums at dyadic scales are permutation-invariant across cells
        b1, b2 = 0.7, 0.3
        pf_det = fa_partition(generate_cascade(b1, b2, 10), q_grid=(2.0,))
        pf_shuf = fa_partition(generate_cascade(b1, b2, 10, shuffle_seed=9), q_grid=(2.0,))
        np.testing.assert_allclose(pf_det.tau_fa, pf_shuf.tau_fa, atol=1e-9)

    def test_validation(self):
        with pytest.raises(InputError, match="nonnegative"):
            fa_partition(np.array([0.5, -0.5, 1.0]))
        with pytest.raises(InputError, match="sum to 1"):
            fa_partition(np.full(64, 1.0))

    def test_nan_cell_rejected(self):
        # a NaN total passed the sum-to-1 check and its box was then dropped
        m = np.full(256, 1.0 / 256)
        m[100] = np.nan
        with pytest.raises(InputError, match="non-finite value at index 100"):
            fa_partition(m)


class TestStructuredPipeline:
    def test_zero_breaks_reduces_to_plain_analysis_bitwise(self, rng):
        # a penalty too large for any break: the structured result must be
        # bit-for-bit the whole-series analysis
        prices = np.exp(np.cumsum(rng.standard_normal(1500)) * 0.01) * 40
        series = make_series(prices)
        cp = ChangePointConfig(penalty=1e15)
        mf = MfdfaConfig()
        report = s_mfdfa(to_fluctuations(series), cp, mf, label=series.label)
        assert report.changepoints.n_breaks == 0
        assert len(report.segments) == 1
        flucts = to_fluctuations(series)
        surf, curve, spec = analyze_segment(flucts, mf)
        seg = report.segments[0]
        np.testing.assert_array_equal(seg.surface.phi, surf.phi)
        np.testing.assert_array_equal(seg.hurst.rho, curve.rho)
        np.testing.assert_array_equal(seg.spectrum.alpha, spec.alpha)
        np.testing.assert_array_equal(seg.spectrum.tau, spec.tau)
        assert seg.spectrum.delta_alpha == spec.delta_alpha

    def test_segments_cover_fluctuation_series(self, rng):
        prices = np.exp(np.cumsum(rng.standard_normal(3000)) * 0.01) * 10
        prices[1500:] *= np.exp(np.cumsum(rng.standard_normal(1500)) * 0.05)
        report = s_mfdfa(to_fluctuations(make_series(prices)))
        edges = [report.segments[0].start] + [s.stop for s in report.segments]
        assert edges[0] == 0 and edges[-1] == 2999
        for a, b in zip(report.segments, report.segments[1:]):
            assert a.stop == b.start

    def test_too_short_segment_flagged_not_fatal(self, rng):
        # near-zero penalty fragments the series below what the scale grid
        # needs; those segments carry a reason instead of raising
        prices = np.exp(np.cumsum(rng.standard_normal(400)) * 0.02) * 5
        report = s_mfdfa(
            to_fluctuations(make_series(prices)),
            ChangePointConfig(penalty=1e-9, min_segment=32),
            MfdfaConfig(scale_grid=(16, 24, 32, 48, 64)),
        )
        skipped = [s for s in report.segments if s.skipped_reason]
        assert skipped, "expected at least one segment too short to analyze"
        for s in skipped:
            assert "too short" in s.skipped_reason
            assert s.spectrum is None
        assert all(s.spectrum is not None for s in report.segments if not s.skipped_reason)

    @pytest.mark.parametrize("q_grid", [MfdfaConfig.q_grid, (-3.0, -1.0, 1.0, 3.0, 4.0)])
    def test_regime_record_holds_each_regimes_estimates(self, q_grid):
        # 600 noisy, 600 zero and 600 noisy returns (the CLI's flat-regime
        # input). Every other regime reports the GPH d and DFA Hurst exponent
        # of its own slice, the latter from its q = 2 row or, when the q grid
        # lacks 2, from a q = 2 pass; None where the slice is too short. The
        # flat regime reports neither and names its GPH failure.
        gen = np.random.default_rng(1)
        r = np.concatenate([gen.normal(0.0, 0.01, 600), np.zeros(600),
                            gen.normal(0.0, 0.01, 600)])
        prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(r)]))
        flucts = to_fluctuations(make_series(prices))
        cfg = MfdfaConfig(q_grid=q_grid)
        report = s_mfdfa(flucts, mf_config=cfg)

        def unless_too_short(estimate, *args):
            try:
                return estimate(*args)
            except InputError:
                return None

        (flat,) = [s for s in report.segments if s.start >= 600 and s.stop <= 1200]
        assert flat.skipped_reason.startswith("numerical: window variance is exactly 0")
        assert (flat.d_hat, flat.d_stderr, flat.hurst_dfa) == (None, None, None)
        assert flat.gph_failure.startswith("numerical: gph: periodogram vanished")
        estimated = 0
        for seg in report.segments:
            if seg is flat:
                continue
            values = flucts[seg.start:seg.stop]
            est = unless_too_short(gph_estimate, values)
            assert (seg.d_hat, seg.d_stderr) == ((est.d_hat, est.stderr) if est else (None, None))
            assert seg.hurst_dfa == unless_too_short(hurst_dfa, values, cfg)
            assert seg.gph_failure is None
            estimated += seg.d_hat is not None and seg.hurst_dfa is not None
        assert estimated >= 2

    def test_cascade_segment_wider_than_noise_segment(self):
        # [DERIVED] Monte Carlo: a price path whose return magnitudes are a
        # cascade for the first half and scaled half-normal noise for the
        # second is split near the joint, and the cascade side shows a much
        # wider spectrum (measured ~1.7-1.8 vs <= 0.4 over these seeds)
        for seed in range(3):
            gen = np.random.default_rng(seed)
            cascade = generate_cascade(0.75, 0.25, 11)
            noise = np.abs(gen.standard_normal(2048)) * 3e-3 + 1e-5
            mags = np.concatenate([cascade, noise])
            prices = integrate_magnitudes(mags, seed=seed)
            report = s_mfdfa(to_fluctuations(make_series(prices)),
                             ChangePointConfig(min_segment=256))
            assert report.changepoints.n_breaks >= 1
            segs = [s for s in report.segments if s.spectrum is not None]
            cascade_side = [s for s in segs if s.stop <= 2048 + 8]
            noise_side = [s for s in segs if s.start >= 2048 - 8]
            assert cascade_side and noise_side, f"seed {seed}: joint not isolated"
            w_cascade = max(s.spectrum.delta_alpha for s in cascade_side)
            w_noise = max(s.spectrum.delta_alpha for s in noise_side)
            assert w_cascade > w_noise, f"seed {seed}: {w_cascade} <= {w_noise}"
