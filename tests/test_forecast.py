"""Tests for the neural autoregressive forecaster and the comparison
pipeline for global vs per-segment fractional differencing.

Oracle notes per test are tagged [TRIVIAL] / [DERIVED] as in conftest.py.
"""

import contextlib
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_series
from smfdfa import forecast
from smfdfa.errors import InputError, NumericalError
from smfdfa.forecast import (
    EVALUATIONS,
    MAX_FAIL,
    METHOD_FD,
    METHOD_LFD,
    VALIDATION_SHARE,
    ForecastReport,
    ForecastRow,
    _n_params,
    _score_window,
    _sigmoid,
    _unpack,
    mape,
    pipeline_compare,
    reconstruct,
    train_nar,
)
from smfdfa.longmemory import arfima_generate, frac_diff, gph_estimate
from smfdfa.serialize import forecast_report_to_dict


@contextlib.contextmanager
def schedule(**constants):
    """The trainer's schedule constants (MAX_ITERATIONS, DAMPING_CAP, ...)
    set to the given values inside the block; train_nar reads them when it
    is called."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in constants.items():
            mp.setattr(forecast, name, value)
        yield


@pytest.fixture
def fast_train(monkeypatch):
    """Training capped at 60 accepted steps."""
    monkeypatch.setattr(forecast, "MAX_ITERATIONS", 60)


def ar1_deterministic(n: int, phi: float = 0.8, c: float = 0.1, x0: float = 1.0):
    x = np.empty(n)
    x[0] = x0
    for i in range(1, n):
        x[i] = phi * x[i - 1] + c
    return x


def masked_sigmoid(a: np.ndarray) -> np.ndarray:
    """Reference: the two-branch logistic on boolean masks, 1 / (1 + e^-a)
    where a >= 0 and e^a / (1 + e^a) elsewhere."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def reference_train_nar(x: np.ndarray, p: int, h: int, seed: int, n_validation: int = 0):
    """Reference: the straightforward Levenberg-Marquardt loop, which builds
    a fresh Jacobian with every trial step and uses masked_sigmoid. With
    n_validation > 0 it trains on x[:-n_validation] (its own mean and
    scale), scores the last n_validation lag pairs of x after every
    accepted step, stops after MAX_FAIL steps in a row that do not lower
    that sum of squares, and keeps the lowest one's parameters. It reads
    the damping schedule and stopping rule from the library's constants
    when called. The library's trainer must give the same weights, loss
    trace, stop reason and kept step bit for bit. Returns (w_in, b_in,
    w_out, b_out, loss_trace, stop_reason, best_step)."""
    fit = x[: x.size - n_validation]
    mean = float(fit.mean())
    scale = float(fit.std())
    if scale < 1e-12:
        scale = 1.0
    z = (fit - mean) / scale
    idx = np.arange(p, z.size)[:, None] + np.arange(-p, 0)[None, :]
    u, target = z[idx], z[p:]
    n = target.size
    z_val = (x[x.size - n_validation - p :] - mean) / scale
    idx_val = np.arange(p, z_val.size)[:, None] + np.arange(-p, 0)[None, :]
    u_val, target_val = z_val[idx_val], z_val[p:]

    def forward_jacobian(theta):
        w_in, b_in = theta[: h * p].reshape(h, p), theta[h * p : h * p + h]
        w_out, b_out = theta[h * p + h : h * p + 2 * h], theta[-1]
        s = masked_sigmoid(u @ w_in.T + b_in)
        if u_val.size:
            r = masked_sigmoid(u_val @ w_in.T + b_in) @ w_out + b_out - target_val
            val_losses.append(float(np.dot(r, r)))
        g = s * (1.0 - s) * w_out
        jac = np.empty((n, theta.size))
        jac[:, : h * p] = (g[:, :, None] * u[:, None, :]).reshape(n, h * p)
        jac[:, h * p : h * p + h] = g
        jac[:, h * p + h : h * p + 2 * h] = s
        jac[:, -1] = 1.0
        return s @ w_out + b_out, jac

    rng = np.random.default_rng(seed)
    n_params = h * (p + 2) + 1
    theta = rng.normal(0.0, 1.0, n_params)
    theta[: h * p] /= math.sqrt(p)
    theta[h * (p + 1) :] *= 0.1
    val_losses = []  # one per forward_jacobian call, trial steps included
    out, jac = forward_jacobian(theta)
    resid = out - target
    loss = float(np.dot(resid, resid)) / n
    trace = [loss]
    kept = [theta]  # the parameters of every accepted step, the initial ones first
    val_trace = val_losses[-1:]  # the validation loss of every accepted step
    stop_reason = "cap"
    damping = forecast.DAMPING_INIT
    eye = np.eye(n_params)
    for _ in range(forecast.MAX_ITERATIONS):
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        accepted = False
        while damping <= forecast.DAMPING_CAP:
            try:
                step = np.linalg.solve(jtj + damping * eye, -jtr)
            except np.linalg.LinAlgError:
                damping *= forecast.DAMPING_FACTOR
                continue
            cand = theta + step
            cand_out, cand_jac = forward_jacobian(cand)
            cand_resid = cand_out - target
            cand_loss = float(np.dot(cand_resid, cand_resid)) / n
            if math.isfinite(cand_loss) and cand_loss <= loss:
                improvement = loss - cand_loss
                theta, jac, resid = cand, cand_jac, cand_resid
                loss = cand_loss
                trace.append(loss)
                kept.append(theta)
                val_trace += val_losses[-1:]
                damping = max(damping / forecast.DAMPING_FACTOR, 1e-300)
                accepted = True
                break
            damping *= forecast.DAMPING_FACTOR
        if not accepted:
            err = NumericalError("damping cap")
            err.last_loss = loss
            raise err
        if improvement <= forecast.MIN_RELATIVE_IMPROVEMENT * max(loss, 1e-300):
            stop_reason = "tolerance"
            break
        # none of the last MAX_FAIL accepted steps went below every
        # validation loss before them
        if len(val_trace) > MAX_FAIL and not any(
                v < min(val_trace[:-MAX_FAIL]) for v in val_trace[-MAX_FAIL:]):
            stop_reason = "validation"
            break
    # the first lowest validation loss, or the last step without a block
    best = val_trace.index(min(val_trace)) if val_trace else len(trace) - 1
    theta = kept[best]
    return (theta[: h * p].reshape(h, p), theta[h * p : h * p + h],
            theta[h * p + h : h * p + 2 * h], theta[-1:], np.array(trace), stop_reason, best)


def reference_pipeline_compare(x, breaks, p, h, seed, scale, methods, evaluation):
    """Reference: the regime loop as first written, with one list of
    scored jobs and one of skipped methods, three row construction sites,
    and level forecasts reintegrated as fitted minus the differencing
    history over the whole window before slicing. Each network stops early
    on the last VALIDATION_SHARE of the window, cut from the end of its
    training part. Input checks are left out; pipeline_compare must return
    the same rows in the same order."""
    edges = (0, *breaks, x.size)
    if METHOD_FD in methods:
        global_d = gph_estimate(x).d_hat
        global_diff = frac_diff(x, global_d)
    rows = []
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        seg_label = f"series::seg{k + 1}"
        x_seg = x[a:b]
        jobs, skip = [], []
        if METHOD_FD in methods:
            jobs.append((METHOD_FD, global_d, global_diff.values[a:b],
                         max(global_diff.burn_in - a, 0)))
        if METHOD_LFD in methods:
            try:
                local_d = gph_estimate(x_seg).d_hat
                local_diff = frac_diff(x_seg, local_d)
                jobs.append((METHOD_LFD, local_d, local_diff.values, local_diff.burn_in))
            except InputError as exc:
                skip.append((METHOD_LFD, f"local estimate failed: {exc}", math.nan))
            except NumericalError as exc:
                skip.append((METHOD_LFD, f"local estimate failed: numerical: {exc}", math.nan))
        cut = max((burn for *_, burn in jobs), default=0)
        for method, d_used, y_seg, _ in jobs:
            y_win = y_seg[cut:]
            x_win = x_seg[cut:]
            try:
                split = int(0.8 * y_win.size) if evaluation == "holdout" else y_win.size
                # the block leaves at least p + 1 training pairs
                n_val = max(min(int(VALIDATION_SHARE * y_win.size), split - p - (p + 1)), 0)
                model = train_nar(y_win[:split], p, h, seed, n_validation=n_val)
                lo = split - p if evaluation == "holdout" else 0
                fitted_y = reconstruct(model, y_win)
                # the whole-window MAPE the loop also took, which skips
                # the row at any zero in y_win[p:]
                mape(y_win[p:], fitted_y)
                fitted_x = fitted_y - (y_win[p:] - x_win[p:])
                if scale == "levels":
                    scored_actual, scored_fitted = x_win[p + lo :], fitted_x[lo:]
                else:
                    scored_actual, scored_fitted = y_win[p + lo :], fitted_y[lo:]
                score = mape(scored_actual, scored_fitted)
                rows.append(ForecastRow(
                    seg_label, method, d_used, score, seed,
                    n_eval=scored_actual.size, start=a, stop=b,
                    stop_reason=model.stop_reason, iterations=len(model.loss_trace) - 1,
                    best_step=model.best_step, eval_start=a + cut + p + lo,
                    actual=tuple(float(v) for v in scored_actual),
                    fitted=tuple(float(v) for v in scored_fitted),
                ))
            except InputError as exc:
                rows.append(ForecastRow(
                    seg_label, method, d_used, math.nan, seed,
                    n_eval=0, start=a, stop=b, skipped_reason=str(exc),
                ))
        for method, reason, d_used in skip:
            rows.append(ForecastRow(
                seg_label, method, d_used, math.nan, seed,
                n_eval=0, start=a, stop=b, skipped_reason=reason,
            ))
    return rows


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


@st.composite
def training_instances(draw):
    """(series, p, hidden_units, seed, schedule constants, n_validation):
    noisy AR(1), long-memory, noiseless AR(1) and integer-valued series
    (repeated lag rows), with damping caps low enough that some runs stop
    with NumericalError, and no validation block or one of any valid
    size."""
    n = draw(st.integers(60, 400), label="n")
    p = draw(st.integers(1, 6), label="p")
    h = draw(st.integers(1, 8), label="hidden_units")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    kind = draw(st.sampled_from(["ar1", "arfima", "noiseless", "integer"]), label="kind")
    gen = np.random.default_rng(seed)
    if kind == "ar1":
        x = np.empty(n)
        x[0] = gen.standard_normal()
        for i in range(1, n):
            x[i] = 0.6 * x[i - 1] + gen.standard_normal()
    elif kind == "arfima":
        x = 100.0 + arfima_generate(0.3, n, seed=seed)
    elif kind == "noiseless":
        x = ar1_deterministic(n)
    else:
        x = gen.integers(0, 4, n).astype(float)
    constants = dict(
        MAX_ITERATIONS=draw(st.integers(1, 30), label="max_iterations"),
        DAMPING_CAP=draw(st.sampled_from([1e10, 1.0, 1e-2]), label="damping_cap"),
    )
    n_validation = draw(st.just(0) | st.integers(0, n - 2 * p - 1), label="n_validation")
    return x, p, h, seed, constants, n_validation


# -------------------------------------------------------------------- mape


class TestMape:
    def test_hand_case_exact(self):
        # [TRIVIAL] errors 25/100 and 50/200 are both exactly 0.25 in
        # binary, so the mean percentage error is exactly 25.0.
        assert mape([100.0, 200.0], [125.0, 150.0]) == 25.0

    def test_hand_case_ten_percent(self):
        # [TRIVIAL] 10/100 and 20/200 round to the same double, whose mean
        # times 100 rounds back to exactly 10.0.
        assert mape([100.0, 200.0], [110.0, 180.0]) == 10.0

    def test_perfect_forecast_is_zero(self):
        x = np.array([3.0, -7.0, 11.0])
        assert mape(x, x.copy()) == 0.0

    def test_scale_invariance(self):
        # [TRIVIAL] percentage errors are ratios; multiplying both series
        # by 4 keeps every intermediate exactly representable.
        a = np.array([100.0, 200.0, 50.0])
        f = np.array([110.0, 180.0, 60.0])
        assert mape(4.0 * a, 4.0 * f) == mape(a, f)

    def test_zero_actual_raises_with_index(self):
        with pytest.raises(InputError, match="0 at index 1"):
            mape([1.0, 0.0, 2.0], [1.0, 1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(InputError, match="shape mismatch"):
            mape([1.0, 2.0], [1.0])

    def test_empty_window(self):
        with pytest.raises(InputError, match="empty"):
            mape([], [])


# ---------------------------------------------------------------- sigmoid

SIGMOID_SPECIALS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
     745.2, -745.2, 746.0, -746.0, 1e300, -1e300],
    # NaNs with a payload, quiet and signalling, of either sign
    np.array([0x7FF8000000000001, 0xFFF8000000001234, 0x7FF4000000000000],
             dtype=np.uint64).view(np.float64),
])


class TestSigmoid:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=40),
                      elements=st.one_of(st.floats(), st.floats(-800.0, 800.0))))
    @example(SIGMOID_SPECIALS)
    def test_equals_masked_form(self, a):
        # [DERIVED] each element takes the same exp, add and divide as in
        # the two-branch form, so the bits match, NaN payloads and signs,
        # -0.0, subnormals and exp underflow (|a| > 745) included
        np.testing.assert_array_equal(bits(_sigmoid(a)), bits(masked_sigmoid(a)))


# --------------------------------------------------------------- training


@pytest.fixture(scope="module")
def noisy_series():
    rng = np.random.default_rng(77)
    x = np.empty(300)
    x[0] = rng.standard_normal()
    for i in range(1, 300):
        x[i] = 0.6 * x[i - 1] + rng.standard_normal()
    return x


@pytest.fixture(scope="module")
def trained(noisy_series):
    with schedule(MAX_ITERATIONS=60):
        return train_nar(noisy_series, p=3, hidden_units=6, seed=5)


class TestTrainNar:
    def test_deterministic(self, noisy_series, fast_train):
        # [TRIVIAL] same data, same seed, same schedule: weights and the
        # loss trace must match bit for bit.
        a = train_nar(noisy_series, p=3, hidden_units=6, seed=5)
        b = train_nar(noisy_series, p=3, hidden_units=6, seed=5)
        np.testing.assert_array_equal(a.w_in, b.w_in)
        np.testing.assert_array_equal(a.b_in, b.b_in)
        np.testing.assert_array_equal(a.w_out, b.w_out)
        assert a.b_out == b.b_out
        assert a.loss_trace == b.loss_trace

    def test_seed_changes_model(self, noisy_series, trained, fast_train):
        other = train_nar(noisy_series, p=3, hidden_units=6, seed=6)
        assert not np.array_equal(other.w_in, trained.w_in)

    def test_loss_trace_non_increasing(self, trained):
        # [TRIVIAL] the optimizer only ever accepts steps that do not
        # increase the training loss.
        trace = np.asarray(trained.loss_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 0.0)

    def test_minimum_length_guard(self):
        with pytest.raises(InputError, match="need at least 53 samples"):
            train_nar(np.zeros(52), p=3)

    def test_parameter_validation(self):
        with pytest.raises(InputError, match="must be >= 1"):
            train_nar(np.zeros(100), p=0)
        with pytest.raises(InputError, match="must be >= 1"):
            train_nar(np.zeros(100), p=2, hidden_units=0)

    def test_non_finite_value_named(self, noisy_series):
        bad = noisy_series.copy()
        bad[17] = np.nan
        with pytest.raises(InputError, match="non-finite value at index 17"):
            train_nar(bad, p=3)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(InputError, match=r"1-d array, got shape \(2, 300\)"):
            train_nar(np.zeros((2, 300)), p=3)

    def test_predict_next_column_guard(self, trained):
        with pytest.raises(InputError, match="must have 3 columns"):
            trained.predict_next(np.zeros((2, 4)))

    def test_unpack_views_theta_and_jacobian_columns(self):
        # [TRIVIAL] the init scales theta and _fill_jacobian writes the
        # Jacobian through _unpack's pieces, so they must be views that
        # tile the last axis in order
        p, h = 3, 4
        for a in (np.arange(_n_params(p, h), dtype=float), np.zeros((7, _n_params(p, h)))):
            parts = _unpack(a, p, h)
            assert [part.shape[a.ndim - 1:] for part in parts] == [(h, p), (h,), (h,), (1,)]
            assert all(np.shares_memory(part, a) for part in parts)
            flat = [part.reshape(*a.shape[:-1], -1) for part in parts]
            np.testing.assert_array_equal(np.concatenate(flat, axis=-1), a)
            for k, part in enumerate(parts):
                part[...] = -k - 1.0
            assert np.all(a < 0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(training_instances())
    def test_equals_reference_trainer(self, instance):
        # [DERIVED] the trainer reuses one Jacobian buffer and builds it only
        # for accepted steps, and counts validation failures where the
        # reference keeps every step; the arithmetic is the reference
        # loop's, so the weights, the loss trace, the stop reason, the kept
        # step and a damping-cap failure match bit for bit
        x, p, h, seed, constants, n_validation = instance
        kwargs = dict(p=p, hidden_units=h, seed=seed, n_validation=n_validation)
        with schedule(**constants):
            try:
                *want, want_reason, want_best = reference_train_nar(x, p, h, seed, n_validation)
            except NumericalError as ref_err:
                with pytest.raises(NumericalError) as got_err:
                    train_nar(x, **kwargs)
                assert bits(got_err.value.last_loss) == bits(ref_err.last_loss)
                return
            got = train_nar(x, **kwargs)
        for g, w in zip((got.w_in, got.b_in, got.w_out, got.b_out, got.loss_trace), want):
            np.testing.assert_array_equal(bits(g), bits(w))
        assert (got.stop_reason, got.best_step) == (want_reason, want_best)
        if not n_validation:
            assert got.best_step == len(got.loss_trace) - 1

    def test_damping_cap_failure_equals_reference(self, noisy_series):
        # [DERIVED] seed 3 with the cap at 1.0 accepts steps first, then
        # exhausts the damping: both trainers report the same last loss,
        # which is below the initial one
        with schedule(DAMPING_CAP=1.0, MAX_ITERATIONS=30):
            with pytest.raises(NumericalError) as want:
                reference_train_nar(noisy_series, 3, 6, 3)
            with pytest.raises(NumericalError) as got:
                train_nar(noisy_series, p=3, hidden_units=6, seed=3)
        assert bits(got.value.last_loss) == bits(want.value.last_loss)
        with schedule(MAX_ITERATIONS=1):
            first = train_nar(noisy_series, p=3, hidden_units=6, seed=3).loss_trace[0]
        assert got.value.last_loss < first

    def test_each_stop_reason(self, noisy_series):
        # [TRIVIAL] one run per exit: one step under a one-step cap, a
        # first step that improves by less than a huge relative tolerance,
        # and MAX_FAIL steps past the best validation loss
        with schedule(MAX_ITERATIONS=1):
            cap = train_nar(noisy_series, p=3, hidden_units=6, seed=5)
        assert (cap.stop_reason, cap.best_step, len(cap.loss_trace)) == ("cap", 1, 2)
        with schedule(MIN_RELATIVE_IMPROVEMENT=1e6):
            tol = train_nar(noisy_series, p=3, hidden_units=6, seed=5)
        assert (tol.stop_reason, tol.best_step, len(tol.loss_trace)) == ("tolerance", 1, 2)
        val = train_nar(noisy_series, p=3, hidden_units=6, seed=5, n_validation=60)
        assert val.stop_reason == "validation"
        assert val.best_step == len(val.loss_trace) - 1 - MAX_FAIL
        assert len(val.loss_trace) - 1 < forecast.MAX_ITERATIONS

    def test_early_stop_keeps_the_best_validation_step(self, noisy_series):
        # [DERIVED] the block is never trained on, so the early-stopped run
        # is the plain trainer on the values before the block: its kept
        # weights are that trainer's weights after best_step steps, and no
        # later step of that trainer scores lower on the block
        n_val, p = 60, 3
        model = train_nar(noisy_series, p=p, hidden_units=6, seed=5, n_validation=n_val)
        fit = noisy_series[:-n_val]
        u_val = np.lib.stride_tricks.sliding_window_view(noisy_series[:-1], p)[-n_val:]
        target_val = noisy_series[-n_val:]
        sse = []
        for steps in range(1, len(model.loss_trace)):
            with schedule(MAX_ITERATIONS=steps):
                plain = train_nar(fit, p=p, hidden_units=6, seed=5)
            assert plain.loss_trace == model.loss_trace[: steps + 1]
            sse.append(float(np.sum((plain.predict_next(u_val) - target_val) ** 2)))
            if steps == model.best_step:
                for g, w in zip((model.w_in, model.b_in, model.w_out, model.b_out),
                                (plain.w_in, plain.b_in, plain.w_out, plain.b_out)):
                    np.testing.assert_array_equal(bits(g), bits(w))
        assert model.best_step >= 1
        assert min(sse) == sse[model.best_step - 1]

    def test_validation_tie_is_a_failure(self):
        # [DERIVED] on a constant series every lag row is 0 after scaling, so
        # the block's loss is n_validation times the training loss; the last
        # accepted step leaves that loss unchanged (hence the tolerance
        # stop), and a loss equal to the best is not kept
        model = train_nar(np.full(120, 3.0), p=2, hidden_units=1, seed=0, n_validation=30)
        assert model.stop_reason == "tolerance"
        assert model.loss_trace[-1] == model.loss_trace[-2]
        assert model.best_step == len(model.loss_trace) - 2

    def test_bad_validation_size_rejected(self, noisy_series, monkeypatch):
        # a negative block, or one that leaves p = 3 training pairs (fewer
        # than p + 1), is an input error; one more training pair is not.
        # No block is always allowed: with p = 60 a 110-sample series has
        # 50 training pairs, as before blocks existed
        n = noisy_series.size
        for bad in (-1, n - 6):
            with pytest.raises(InputError, match=r"must be 0 or lie in \[1, 293\]"):
                train_nar(noisy_series, p=3, hidden_units=2, n_validation=bad)
        monkeypatch.setattr(forecast, "MAX_ITERATIONS", 1)
        train_nar(noisy_series, p=3, hidden_units=2, n_validation=n - 7)
        train_nar(noisy_series[:110], p=60, hidden_units=2)
        with pytest.raises(InputError, match=r"must be 0 or lie in \[1, -11\]"):
            train_nar(noisy_series[:110], p=60, hidden_units=2, n_validation=1)

    def test_size_check_counts_the_whole_series(self, monkeypatch):
        # [TRIVIAL] the 53-sample floor for p = 3 counts the validation
        # block: 53 samples with a 10-pair block train on 43 values
        x = ar1_deterministic(53)
        with pytest.raises(InputError, match="need at least 53 samples"):
            train_nar(x[:52], p=3, n_validation=10)
        monkeypatch.setattr(forecast, "MAX_ITERATIONS", 3)
        model = train_nar(x, p=3, hidden_units=2, n_validation=10)
        assert model.mean == float(x[:43].mean())

    def test_fits_noiseless_ar1_under_one_percent(self):
        # [DERIVED] x_t = 0.8 x_{t-1} + 0.1 from x_0 = 1 is a noiseless,
        # strictly positive sequence; a 1-hidden-layer network with enough
        # capacity reproduces the map almost exactly (measured MAPE far
        # below 0.01% in this configuration).
        x = ar1_deterministic(400)
        model = train_nar(x, p=2, hidden_units=8, seed=0)
        assert mape(x[2:], reconstruct(model, x)) < 1.0


class TestReconstruct:
    def test_alignment_and_length(self, trained, noisy_series):
        fitted = reconstruct(trained, noisy_series)
        assert fitted.shape == (noisy_series.size - trained.p,)

    def test_never_reads_the_predicted_position(self, trained, noisy_series):
        # [TRIVIAL] causality: fitted[i] uses only values at i .. i+p-1,
        # so corrupting the final observation (a target, never an input)
        # must leave every fitted value bit-identical.
        tampered = noisy_series.copy()
        tampered[-1] += 100.0
        np.testing.assert_array_equal(
            reconstruct(trained, tampered),
            reconstruct(trained, noisy_series),
        )

    def test_perturbation_only_affects_windows_containing_it(
        self, trained, noisy_series
    ):
        # [TRIVIAL] changing position j leaves fitted[: j - p + 1]
        # untouched (their lag windows end before j) and moves at least
        # one later fitted value.
        j, p = 50, trained.p
        tampered = noisy_series.copy()
        tampered[j] += 100.0
        base = reconstruct(trained, noisy_series)
        moved = reconstruct(trained, tampered)
        np.testing.assert_array_equal(moved[: j - p + 1], base[: j - p + 1])
        assert not np.array_equal(moved, base)

    def test_length_guard(self, trained):
        with pytest.raises(InputError, match="must exceed p=3"):
            reconstruct(trained, np.zeros(3))


# -------------------------------------------------------------- pipeline


@pytest.fixture(scope="module")
def longmemory_series():
    # positive level series with mild long memory, long enough for the
    # spectral memory estimator on the whole span
    return 100.0 + arfima_generate(0.3, 1024, seed=9)


class TestPipelineCompare:
    def test_no_breaks_makes_methods_identical(self, longmemory_series, fast_train):
        # [TRIVIAL] with a single segment the "local" estimate sees exactly
        # the whole series, so both pipelines difference identically and
        # train the same network: equal memory parameter, equal score.
        report = pipeline_compare(
            longmemory_series,
            breaks=None,
            p=3,
            hidden_units=6,
            seed=4,
        )
        assert len(report.rows) == 2
        fd = next(r for r in report.rows if r.method == METHOD_FD)
        lfd = next(r for r in report.rows if r.method == METHOD_LFD)
        assert fd.d_used == lfd.d_used
        assert fd.mape == lfd.mape
        assert fd.n_eval == lfd.n_eval
        assert fd.skipped_reason is None and lfd.skipped_reason is None

    def test_short_segment_produces_flagged_rows(self, fast_train):
        # [TRIVIAL] a 50-sample tail segment is too short both for the
        # local memory estimate and for training; both rows must be
        # flagged instead of aborting, and the aggregate must ignore them.
        x = 100.0 + arfima_generate(0.25, 400, seed=3)
        report = pipeline_compare(x, breaks=[350], p=3, hidden_units=6)
        assert len(report.rows) == 4
        seg2 = [r for r in report.rows if r.start == 350]
        assert len(seg2) == 2
        for row in seg2:
            assert row.skipped_reason is not None
            assert math.isnan(row.mape)
            assert row.n_eval == 0
        lfd2 = next(r for r in seg2 if r.method == METHOD_LFD)
        assert "local estimate failed" in lfd2.skipped_reason
        agg = report.aggregate()
        seg1 = {r.method: r for r in report.rows if r.start == 0}
        assert agg[METHOD_FD] == seg1[METHOD_FD].mape
        assert agg[METHOD_LFD] == seg1[METHOD_LFD].mape

    def test_all_segments_too_short_raises(self, fast_train):
        # [TRIVIAL] when every (segment, method) pair is flagged there is
        # nothing to compare and the pipeline must say so.
        x = 100.0 + np.random.default_rng(1).standard_normal(208)
        with pytest.raises(InputError, match="no segment was long enough"):
            pipeline_compare(x, breaks=[52, 104, 156], p=3, hidden_units=6)

    def test_segment_labels_and_edges(self, longmemory_series, fast_train):
        series = make_series(longmemory_series, label="demo")
        report = pipeline_compare(
            series, breaks=[512], p=3, hidden_units=6, methods=(METHOD_FD,),
        )
        assert [r.segment_label for r in report.rows] == ["demo::seg1", "demo::seg2"]
        assert [(r.start, r.stop) for r in report.rows] == [(0, 512), (512, 1024)]
        # an unlabelled series takes the same default as s_mfdfa's regimes
        unlabelled = pipeline_compare(
            make_series(longmemory_series, label=""), breaks=[512], p=3, hidden_units=6,
            methods=(METHOD_FD,),
        )
        assert [r.segment_label for r in unlabelled.rows] == ["series::seg1", "series::seg2"]

    def test_break_validation(self, longmemory_series):
        with pytest.raises(InputError, match="strictly inside"):
            pipeline_compare(longmemory_series, breaks=[0])
        with pytest.raises(InputError, match="strictly inside"):
            pipeline_compare(longmemory_series, breaks=[1024])
        with pytest.raises(InputError, match="strictly increasing"):
            pipeline_compare(longmemory_series, breaks=[600, 500])

    def test_option_validation(self, longmemory_series):
        with pytest.raises(InputError, match="scale must be"):
            pipeline_compare(longmemory_series, None, scale="log")
        with pytest.raises(InputError, match="evaluation must be"):
            pipeline_compare(longmemory_series, None, evaluation="cv")
        with pytest.raises(InputError, match="unknown method"):
            pipeline_compare(longmemory_series, None, methods=("AR",))

    def test_lags_and_hidden_units_checked_before_any_estimate(self, longmemory_series,
                                                               monkeypatch):
        # p or hidden_units below 1 once skipped every row with train_nar's
        # message and then failed as "no segment was long enough to train
        # on"; the check now comes before the first memory estimate
        estimates = []
        monkeypatch.setattr(forecast, "gph_estimate", lambda *args: estimates.append(args))
        for kwargs in (dict(p=0), dict(p=-2), dict(hidden_units=0)):
            with pytest.raises(InputError, match=r"^p and hidden_units must be >= 1$"):
                pipeline_compare(longmemory_series, [512], **kwargs)
        assert estimates == []

    def test_empty_methods_rejected_before_any_estimate(self, longmemory_series, monkeypatch):
        # methods=() once estimated the global memory order and then failed
        # as "no segment was long enough to train on"
        estimates = []
        monkeypatch.setattr(forecast, "gph_estimate", lambda *args: estimates.append(args))
        with pytest.raises(InputError, match=r"^methods must name 'FD-NAR', 'LFD-NAR' or both$"):
            pipeline_compare(longmemory_series, [512], methods=())
        assert estimates == []

    def test_array_input_checked_as_one_finite_series(self, longmemory_series):
        # a 2-d array once failed as "no segment was long enough to train
        # on", and a NaN aborted the run only when FD-NAR was requested
        with pytest.raises(InputError, match=r"expected a 1-d array, got shape \(2, 512\)"):
            pipeline_compare(longmemory_series.reshape(2, 512), None, methods=(METHOD_LFD,))
        x = longmemory_series.copy()
        x[700] = np.nan
        for methods in [(METHOD_FD,), (METHOD_LFD,), (METHOD_FD, METHOD_LFD)]:
            with pytest.raises(InputError, match="non-finite value at index 700"):
                pipeline_compare(x, [512], methods=methods)

    def test_holdout_scores_only_its_tail_for_zeros(self):
        # [DERIVED] zeros in the training part of a window do not skip its
        # holdout rows: segment 1's differenced values are 0 over the first
        # 700 samples, but its scored tail holds none. Its rows were once
        # skipped with "actual value is 0 at index 0", a MAPE over the whole
        # window that was then thrown away. Segment 2's rows are unchanged.
        x = np.concatenate([np.zeros(700), 100.0 + arfima_generate(0.3, 1300, seed=1)])
        args = ([1000], 3, 4, 0, "levels", (METHOD_FD, METHOD_LFD), "holdout")
        with schedule(MAX_ITERATIONS=20):
            got = pipeline_compare(x, *args).rows
            want = reference_pipeline_compare(x, *args)
        assert [r.start for r in got] == [0, 0, 1000, 1000]
        for row in got[:2]:
            assert row.skipped_reason is None and row.n_eval > 0
            assert np.all(np.asarray(row.actual) != 0.0)
            assert 0.0 < row.mape < 5.0
        assert all("actual value is 0 at index 0" in r.skipped_reason for r in want[:2])
        assert list(got[2:]) == want[2:]

    def test_in_sample_levels_zero_named_at_first_zero_price(self):
        # [DERIVED] a level row is skipped at its first zero price. Segment
        # 1 holds 400 zero prices from 600, longer than either filter (K 87
        # global, 69 local; cut 87), and is scored from 87 + p = 90, so the
        # first zero price is at index 510. The row was once skipped at the
        # first exact zero of the differenced values, K samples into the
        # run: index 597 (FD-NAR) and 579 (LFD-NAR).
        x = 100.0 + arfima_generate(0.3, 2000, seed=1)
        x[600:1000] = 0.0
        args = ([1200], 3, 4, 0, "levels", (METHOD_FD, METHOD_LFD), "in-sample")
        with schedule(MAX_ITERATIONS=20):
            got = pipeline_compare(x, *args).rows
            want = reference_pipeline_compare(x, *args)
        assert [r.skipped_reason for r in got[:2]] == [
            "actual value is 0 at index 510; percentage error undefined"] * 2
        assert [r.skipped_reason for r in want[:2]] == [
            f"actual value is 0 at index {i}; percentage error undefined" for i in (597, 579)]
        assert list(got[2:]) == want[2:]

    def test_keep_fitted_attaches_scored_traces(self, longmemory_series, fast_train):
        # [TRIVIAL] the traces a scored row carries must be exactly what
        # was scored: the row's own MAPE recomputes from them, and
        # serialization still excludes them.
        report = pipeline_compare(
            longmemory_series, None, p=3, hidden_units=6, methods=(METHOD_FD,),
        )
        row = report.rows[0]
        assert row.eval_start is not None
        assert len(row.actual) == row.n_eval == len(row.fitted)
        assert mape(np.asarray(row.actual), np.asarray(row.fitted)) == row.mape
        # levels scale: the scored actuals are the original level values
        np.testing.assert_array_equal(
            np.asarray(row.actual),
            longmemory_series[row.eval_start : row.eval_start + row.n_eval],
        )
        doc_row = forecast_report_to_dict(report)["rows"][0]
        assert "actual" not in doc_row and "eval_start" not in doc_row

    def test_holdout_scores_only_the_tail(self, longmemory_series, fast_train):
        # [TRIVIAL] holdout trains on the first 80% of the usable window
        # and scores the remaining 20%: n_eval and the first scored index
        # follow directly from the split arithmetic.
        common = dict(p=3, hidden_units=6, methods=(METHOD_FD,))
        full = pipeline_compare(longmemory_series, None, **common).rows[0]
        held = pipeline_compare(
            longmemory_series, None, evaluation="holdout", **common
        ).rows[0]
        # the in-sample row scored everything after the p=3 warmup lags,
        # so the usable window length recovers as n_eval + p
        y_size = full.n_eval + 3
        split = int(0.8 * y_size)
        assert held.n_eval == y_size - split
        assert held.eval_start == full.eval_start - 3 + split
        assert held.n_eval < full.n_eval
        # the holdout model saw less data, so its tail forecasts differ
        assert full.fitted[-held.n_eval :] != held.fitted

    def test_differenced_scale_scores_differenced_values(self, longmemory_series, fast_train):
        # [TRIVIAL] with scale="differenced" the scored actuals are the
        # filtered values, not the levels.
        report = pipeline_compare(
            longmemory_series, None, p=3, hidden_units=6,
            methods=(METHOD_FD,), scale="differenced",
        )
        row = report.rows[0]
        assert report.scale == "differenced"
        assert not np.array_equal(
            np.asarray(row.actual),
            longmemory_series[row.eval_start : row.eval_start + row.n_eval],
        )

    def test_multiple_seeds_make_one_row_each(self, longmemory_series, fast_train):
        # [TRIVIAL] the seed reaches the trainer: each call makes one row
        # carrying its seed, and different nets give different fits
        rows = [pipeline_compare(longmemory_series, None, p=3, hidden_units=6, seed=seed,
                                 methods=(METHOD_FD,)).rows for seed in (0, 1)]
        assert [[r.seed for r in got] for got in rows] == [[0], [1]]
        assert rows[0][0].fitted != rows[1][0].fitted

    @pytest.mark.parametrize("evaluation", ["in-sample", "holdout"])
    @pytest.mark.parametrize("scale", ["levels", "differenced"])
    def test_methods_share_each_segments_scored_window(self, longmemory_series, scale,
                                                        evaluation, fast_train):
        # [TRIVIAL] within a segment one cut (the widest burn-in) applies to
        # every method, so every (method, seed) row scores the same
        # observations; on the level scale they are the same actuals.
        rows = [r for seed in (0, 1) for r in pipeline_compare(
            longmemory_series, [512], p=2, hidden_units=3, seed=seed,
            scale=scale, evaluation=evaluation,
        ).rows]
        assert all(r.skipped_reason is None for r in rows)
        for start in (0, 512):
            seg = [r for r in rows if r.start == start]
            assert [(r.method, r.seed) for r in seg] == [
                (METHOD_FD, 0), (METHOD_LFD, 0), (METHOD_FD, 1), (METHOD_LFD, 1)]
            assert len({(r.eval_start, r.n_eval) for r in seg}) == 1
            if scale == "levels":
                assert len({r.actual for r in seg}) == 1

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 80), st.integers(0, 200), st.sampled_from(EVALUATIONS))
    def test_no_window_scored_before_the_block_is_skipped(self, p, extra, evaluation):
        # [DERIVED] a window was scored whenever its training part held p +
        # 50 values; the block is capped so that such a part still leaves
        # p + 1 training pairs, or is left out where it cannot (p >= 49),
        # so train_nar accepts every such part
        size = p + 50 + extra
        if evaluation == "holdout" and int(0.8 * size) < p + 50:
            return  # too short before the block as well
        x_win = 100.0 + np.random.default_rng(size).standard_normal(size)
        with schedule(MAX_ITERATIONS=1):
            first, actual, fitted, score, model = _score_window(
                x_win - 100.0, x_win, p, 1, 0, "levels", evaluation)
        assert actual.size == size - first and math.isfinite(score)
        assert model.stop_reason == "cap"

    def test_rows_equal_reference_loop(self, fast_train):
        # [DERIVED] every field of every row, traces included, equals the
        # reference loop's, in the same order, for each method set, both
        # evaluations and both scales. The 50-sample tail segment gives
        # both kinds of skipped row: a failed local estimate (LFD) and a
        # window too short to train on (FD).
        x = 100.0 + arfima_generate(0.25, 400, seed=3)
        kinds = set()
        for methods in [(METHOD_FD,), (METHOD_LFD,), (METHOD_FD, METHOD_LFD)]:
            for evaluation in ("in-sample", "holdout"):
                for scale, seed in itertools.product(("levels", "differenced"), (0, 1)):
                    args = ([350], 2, 3, seed, scale, methods, evaluation)
                    got = pipeline_compare(x, *args).rows
                    want = reference_pipeline_compare(x, *args)
                    assert len(got) == len(want) == 2 * len(methods)
                    for g, w in zip(got, want):
                        for f in dataclasses.fields(ForecastRow):
                            gv, wv = getattr(g, f.name), getattr(w, f.name)
                            # a skipped row's NaN mape and d_used match as NaN
                            assert gv == wv or (gv != gv and wv != wv), f.name
                    kinds.update(r.skipped_reason.split(" ")[0] if r.skipped_reason
                                 else "scored" for r in got)
        assert kinds == {"scored", "local", "need"}


class TestForecastReport:
    def test_aggregate_skips_flagged_rows(self):
        # [TRIVIAL] hand-built report: FD scores (2.0, flagged), LFD (3.0).
        rows = (
            ForecastRow("s::seg1", METHOD_FD, 0.1, 2.0, 0, 10, 0, 50),
            ForecastRow("s::seg2", METHOD_FD, 0.1, math.nan, 0, 0, 50, 60,
                        skipped_reason="too short"),
            ForecastRow("s::seg1", METHOD_LFD, 0.2, 3.0, 0, 10, 0, 50),
        )
        agg = ForecastReport(rows=rows, scale="levels").aggregate()
        assert agg == {METHOD_FD: 2.0, METHOD_LFD: 3.0}

    def test_to_dict_fields(self):
        row = ForecastRow("s::seg1", METHOD_FD, 0.1, 2.0, 7, 10, 0, 50,
                          stop_reason="validation", iterations=9, best_step=3)
        doc = forecast_report_to_dict(ForecastReport(rows=(row,), scale="levels"))
        assert doc["rows"][0] == {
            "segment": "s::seg1",
            "method": METHOD_FD,
            "d_used": 0.1,
            "mape": 2.0,
            "seed": 7,
            "n_eval": 10,
            "start": 0,
            "stop": 50,
            "skipped_reason": None,
            "stop_reason": "validation",
            "iterations": 9,
            "best_step": 3,
        }
