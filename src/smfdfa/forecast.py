"""Neural autoregressive one-step forecasting over fractionally
differenced inputs.

A single-hidden-layer sigmoid network maps p lagged values to the next
value and is trained by full-batch Levenberg-Marquardt on mean squared
error. Two pipelines wrap it: global fractional differencing with one
memory parameter for the whole series (FD-NAR), and per-segment local
differencing with one parameter per regime (LFD-NAR). Both reconstruct
one-step-ahead values with teacher forcing and are scored by mean
absolute percentage error, by default on the reintegrated level scale.
Every network the pipelines train stops early on a validation block cut
from the end of its training part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError, finite_1d
from .longmemory import FracDiffResult, frac_diff, gph_estimate
from .series import TimeSeries

DEFAULT_LAGS = 5
DEFAULT_HIDDEN = 20
METHOD_FD = "FD-NAR"
METHOD_LFD = "LFD-NAR"
MIN_TRAIN_MARGIN = 50
SCALES = ("levels", "differenced")
EVALUATIONS = ("in-sample", "holdout")
# the pipelines' window split: the training part is the whole window
# (in-sample) or its first HOLDOUT_SPLIT (holdout); a block of
# VALIDATION_SHARE of the window, cut from the end of the training part, is
# the early-stopping block, and training stops after MAX_FAIL accepted
# steps in a row that do not lower the block's loss. 0.15 and 6 are the
# defaults of MATLAB's divideblock and trainlm, and so is the damping
# schedule: start at DAMPING_INIT, multiply by DAMPING_FACTOR on a rejected
# step and divide on an accepted one, and fail past DAMPING_CAP. Training
# also stops after MAX_ITERATIONS accepted steps, or at a step that lowers
# the loss by at most MIN_RELATIVE_IMPROVEMENT of it. train_nar reads these
# constants when it is called
HOLDOUT_SPLIT = 0.8
VALIDATION_SHARE = 0.15
MAX_FAIL = 6
DAMPING_INIT = 1e-3
DAMPING_FACTOR = 10.0
DAMPING_CAP = 1e10
MAX_ITERATIONS = 200
MIN_RELATIVE_IMPROVEMENT = 1e-12


@dataclass(frozen=True)
class NarModel:
    """Trained lag-vector to next-value network with its normalization.

    Weights act in normalized space: u and the target are (value - mean)
    / scale. loss_trace holds the training MSE after every accepted step
    (index 0 is the initial network), stop_reason says which rule ended
    training ("cap", "validation" or "tolerance"), and best_step is the
    loss_trace index of the weights kept: the last step, or with a
    validation block the step whose validation loss was lowest.
    """

    p: int
    w_in: np.ndarray    # (hidden_units, p)
    b_in: np.ndarray    # (hidden_units,)
    w_out: np.ndarray   # (hidden_units,)
    b_out: float
    mean: float
    scale: float
    loss_trace: tuple[float, ...] = field(repr=False, default=())
    stop_reason: str = "cap"
    best_step: int = 0

    def predict_next(self, lags: np.ndarray) -> np.ndarray:
        """One-step prediction from rows of p most-recent-last lag values."""
        u = (np.atleast_2d(np.asarray(lags, dtype=float)) - self.mean) / self.scale
        if u.shape[1] != self.p:
            raise InputError(f"lag rows must have {self.p} columns, got {u.shape[1]}")
        z = _forward(u, self.w_in, self.b_in, self.w_out, self.b_out)[1]
        return z * self.scale + self.mean


def _sigmoid(a: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-a) for a >= 0 and e^a / (1 + e^a) below, so exp never
    # overflows. min(a, -a) is -|a| except that a NaN input passes through
    # unchanged (np.minimum returns the first of two NaNs), as it does in
    # the masked two-branch form: the results match that form bit for bit
    e = np.exp(np.minimum(a, -a))
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


def _lag_matrix(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows [x_{t-p} .. x_{t-1}] paired with targets x_t for t = p..n-1."""
    n = values.size
    idx = np.arange(p, n)[:, None] + np.arange(-p, 0)[None, :]
    return values[idx], values[p:]


def _n_params(p: int, h: int) -> int:
    return h * (p + 2) + 1


def _unpack(a: np.ndarray, p: int, h: int):
    """Views of w_in (h, p), b_in, w_out and b_out (1,) in the _n_params-long
    last axis of theta or of the Jacobian; writes through them reach a."""
    hp = h * p
    return (a[..., :hp].reshape(*a.shape[:-1], h, p), a[..., hp : hp + h],
            a[..., hp + h : hp + 2 * h], a[..., hp + 2 * h :])


def _forward(u: np.ndarray, w_in, b_in, w_out, b_out):
    """Hidden activations s (n, h) and output (n,) for normalized lag rows u."""
    s = _sigmoid(u @ w_in.T + b_in)
    return s, s @ w_out + b_out


def _fill_jacobian(
    jac: np.ndarray, theta: np.ndarray, s: np.ndarray, u: np.ndarray, p: int, h: int
):
    """Write the Jacobian of the output w.r.t. the flattened parameters
    into jac (n, n_params), given the hidden activations s at theta."""
    d_w_in, d_b_in, d_w_out, d_b_out = _unpack(jac, p, h)
    g = s * (1.0 - s) * _unpack(theta, p, h)[2]  # (n, h): d out / d preactivation
    np.multiply(g[:, :, None], u[:, None, :], out=d_w_in)
    d_b_in[...] = g
    d_w_out[...] = s
    d_b_out[...] = 1.0


def train_nar(
    series: np.ndarray,
    p: int = DEFAULT_LAGS,
    hidden_units: int = DEFAULT_HIDDEN,
    seed: int = 0,
    n_validation: int = 0,
) -> NarModel:
    """Fit the network to the (lag vector, next value) pairs of the series.

    The last n_validation pairs form a validation block and are not
    trained on; the network is fitted to the values before the block, and
    inputs and targets share their standardization (mean and standard
    deviation). Training is full-batch Levenberg-Marquardt: solve
    (J'J + damping I) step = -J'r, accept only steps that reduce the sum
    of squares, multiply the damping by DAMPING_FACTOR on rejection and
    divide on acceptance. It stops after MAX_ITERATIONS accepted steps, when
    a step improves the loss by at most MIN_RELATIVE_IMPROVEMENT of it, or,
    with a validation block, after MAX_FAIL accepted steps in a row whose
    block sum of squares is not below the lowest so far (the initial
    network is step 0); the parameters of that lowest step are returned.
    Without a block the last step's parameters are returned. Deterministic
    given the seed.

    Raises NumericalError carrying .last_loss when the damping exceeds
    DAMPING_CAP without finding an acceptable step.
    """
    x = finite_1d(series)
    if p < 1 or hidden_units < 1:
        raise InputError("p and hidden_units must be >= 1")
    if x.size < p + MIN_TRAIN_MARGIN:
        raise InputError(
            f"need at least {p + MIN_TRAIN_MARGIN} samples to train with p={p}, got {x.size}"
        )
    n_fit = x.size - n_validation
    if n_validation < 0 or (n_validation and n_fit - p < p + 1):
        raise InputError(
            f"n_validation must be 0 or lie in [1, {x.size - p - (p + 1)}] to leave at least "
            f"p + 1 = {p + 1} training pairs, got {n_validation}"
        )
    mean = float(x[:n_fit].mean())
    scale = float(x[:n_fit].std())
    if scale < 1e-12:
        scale = 1.0
    z = (x - mean) / scale
    u, target = _lag_matrix(z[:n_fit], p)
    n_pairs = target.size
    u_val, target_val = _lag_matrix(z[n_fit - p :], p)

    def validation_sse(theta):
        r = _forward(u_val, *_unpack(theta, p, hidden_units))[1] - target_val
        return float(np.dot(r, r))

    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, 1.0, _n_params(p, hidden_units))
    w_in, _, w_out, b_out = _unpack(theta, p, hidden_units)
    w_in /= math.sqrt(p)
    w_out *= 0.1
    b_out *= 0.1

    s, out = _forward(u, *_unpack(theta, p, hidden_units))
    resid = out - target
    loss = float(np.dot(resid, resid)) / n_pairs
    trace = [loss]
    best_theta, best_step, fails = theta, 0, 0
    if n_validation:
        best_val = validation_sse(theta)
    damping = DAMPING_INIT
    eye = np.eye(theta.size)
    # one Jacobian buffer for the whole run, refilled at the accepted
    # parameters; J'J and J'r are taken from it before any trial step, and
    # trial steps need only the forward pass
    jac = np.empty((n_pairs, theta.size))
    for _ in range(MAX_ITERATIONS):
        _fill_jacobian(jac, theta, s, u, p, hidden_units)
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        while damping <= DAMPING_CAP:
            try:
                step = np.linalg.solve(jtj + damping * eye, -jtr)
            except np.linalg.LinAlgError:
                damping *= DAMPING_FACTOR
                continue
            cand = theta + step
            cand_s, cand_out = _forward(u, *_unpack(cand, p, hidden_units))
            cand_resid = cand_out - target
            cand_loss = float(np.dot(cand_resid, cand_resid)) / n_pairs
            if math.isfinite(cand_loss) and cand_loss <= loss:
                break
            damping *= DAMPING_FACTOR
        else:  # exit 2: the damping cap, with no acceptable step
            err = NumericalError(
                f"damping exceeded cap {DAMPING_CAP:g} without an acceptable step; "
                f"last training loss {loss:.6g}"
            )
            err.last_loss = loss
            raise err
        improvement = loss - cand_loss
        theta, s, resid, loss = cand, cand_s, cand_resid, cand_loss
        trace.append(loss)
        damping = max(damping / DAMPING_FACTOR, 1e-300)
        if n_validation:
            val = validation_sse(theta)
            if val < best_val:
                best_theta, best_step, best_val, fails = theta, len(trace) - 1, val, 0
            else:
                fails += 1
        if improvement <= MIN_RELATIVE_IMPROVEMENT * max(loss, 1e-300):
            stop_reason = "tolerance"  # exit 3
            break
        if fails == MAX_FAIL:
            stop_reason = "validation"  # exit 4
            break
    else:
        stop_reason = "cap"  # exit 1: the iteration cap
    if not n_validation:
        best_theta, best_step = theta, len(trace) - 1
    w_in, b_in, w_out, b_out = _unpack(best_theta, p, hidden_units)
    return NarModel(
        p=p,
        w_in=w_in,
        b_in=b_in,
        w_out=w_out,
        b_out=float(b_out[0]),
        mean=mean,
        scale=scale,
        loss_trace=tuple(trace),
        stop_reason=stop_reason,
        best_step=best_step,
    )


def mape(actual: np.ndarray, forecast: np.ndarray) -> float:
    """Mean absolute percentage error, 100/n * sum |A - F| / |A|."""
    a = np.asarray(actual, dtype=float)
    f = np.asarray(forecast, dtype=float)
    if a.shape != f.shape or a.ndim != 1:
        raise InputError(f"shape mismatch: actual {a.shape} vs forecast {f.shape}")
    if a.size == 0:
        raise InputError("cannot score an empty window")
    zeros = np.flatnonzero(a == 0.0)
    if zeros.size:
        raise InputError(f"actual value is 0 at index {int(zeros[0])}; percentage error undefined")
    return float(np.mean(np.abs((a - f) / a))) * 100.0


def reconstruct(model: NarModel, series: np.ndarray) -> np.ndarray:
    """One-step-ahead fitted values with teacher forcing.

    fitted[i] predicts series[p + i] from the true values series[i .. p +
    i - 1]; never reads at or beyond the predicted position. Every lag row
    is predicted in one product, whose bits depend on its row count, so a
    caller that scores part of the series slices the result.
    """
    x = np.asarray(series, dtype=float)
    if x.size <= model.p:
        raise InputError(f"series length {x.size} must exceed p={model.p}")
    return model.predict_next(_lag_matrix(x, model.p)[0])


@dataclass(frozen=True)
class ForecastRow:
    segment_label: str
    method: str
    d_used: float
    mape: float
    seed: int
    n_eval: int
    start: int
    stop: int
    skipped_reason: str | None = None
    # the training's NarModel.stop_reason, accepted steps and best_step,
    # None on a skipped row
    stop_reason: str | None = None
    iterations: int | None = None
    best_step: int | None = None
    # the scored traces, None on a skipped row; eval_start is the absolute
    # index of the first scored observation
    eval_start: int | None = None
    actual: tuple[float, ...] | None = None
    fitted: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ForecastReport:
    rows: tuple[ForecastRow, ...]
    scale: str  # "levels" or "differenced"

    def aggregate(self) -> dict[str, float]:
        """Mean MAPE per method over rows that were not skipped."""
        out: dict[str, float] = {}
        for method in (METHOD_FD, METHOD_LFD):
            vals = [r.mape for r in self.rows if r.method == method and not r.skipped_reason]
            if vals:
                out[method] = float(np.mean(vals))
        return out


def _score_window(y_win: np.ndarray, x_win: np.ndarray, p: int, hidden_units: int, seed: int,
                  scale: str, evaluation: str):
    """Train one network on a usable window of differenced values y_win
    (levels x_win) and score its one-step fits: the window index of the
    first scored sample, the scored actual and fitted values, their MAPE,
    and the trained model. The training part is the whole window
    (in-sample) or its first HOLDOUT_SPLIT (holdout); its last
    VALIDATION_SHARE of the window, capped to leave p + 1 training pairs,
    is the early-stopping block. With teacher forcing the differencing
    history y_t - x_t is known exactly from true values, so a level
    forecast is fitted y_t minus it.
    """
    holdout = evaluation == "holdout"
    split = int(HOLDOUT_SPLIT * y_win.size) if holdout else y_win.size
    n_val = max(min(int(VALIDATION_SHARE * y_win.size), split - p - (p + 1)), 0)
    model = train_nar(y_win[:split], p, hidden_units, seed, n_validation=n_val)
    first = split if holdout else p
    fitted = reconstruct(model, y_win)[first - p :]
    actual = y_win[first:]
    if scale == "levels":
        fitted = fitted - (actual - x_win[first:])
        actual = x_win[first:]
    return first, actual, fitted, mape(actual, fitted), model


def pipeline_compare(
    series: TimeSeries | np.ndarray,
    breaks: Sequence[int] | None,
    p: int = DEFAULT_LAGS,
    hidden_units: int = DEFAULT_HIDDEN,
    seed: int = 0,
    scale: str = "levels",
    methods: tuple[str, ...] = (METHOD_FD, METHOD_LFD),
    evaluation: str = "in-sample",
) -> ForecastReport:
    """Global-differencing vs per-segment-differencing NAR comparison.

    FD-NAR estimates one memory parameter on the whole series, differences
    the whole series once, and trains one network per segment on the
    globally differenced values. LFD-NAR re-estimates and re-differences
    inside each segment. Samples still inside a differencing filter's
    burn-in are excluded from training and scoring; within a segment the
    same cut (the widest burn-in among the requested methods) applies to
    every method so their rows stay comparable. Every network is
    initialized from the one seed. Scoring is MAPE per (segment, method)
    row, on reintegrated levels by default or on the differenced values
    with scale="differenced". evaluation="in-sample"
    scores the whole usable window and trains on its first 85%, stopping
    early on the last 15%; evaluation="holdout" trains on the first 65%,
    stops early on the next 15% and scores the last 20% only. Segments
    too short to estimate or train produce flagged rows instead of failing
    the run. Every row that was not skipped carries its scored
    actual/fitted traces.
    """
    x = series.values if isinstance(series, TimeSeries) else finite_1d(series)
    label_base = (series.label if isinstance(series, TimeSeries) else "") or "series"
    n = x.size
    for name, value, valid in (("scale", scale, SCALES), ("evaluation", evaluation, EVALUATIONS)):
        if value not in valid:
            raise InputError(f"{name} must be {' or '.join(map(repr, valid))}, got {value!r}")
    if p < 1 or hidden_units < 1:
        raise InputError("p and hidden_units must be >= 1")
    if not methods:
        raise InputError(f"methods must name {METHOD_FD!r}, {METHOD_LFD!r} or both")
    bad = [m for m in methods if m not in (METHOD_FD, METHOD_LFD)]
    if bad:
        raise InputError(f"unknown method {bad[0]!r}")
    if breaks is None:
        offsets: tuple[int, ...] = ()
    else:
        offsets = tuple(int(b) for b in breaks)
        if any(b <= 0 or b >= n for b in offsets):
            raise InputError(f"break offsets must lie strictly inside (0, {n})")
        if any(b2 <= b1 for b1, b2 in zip(offsets, offsets[1:])):
            raise InputError("break offsets must be strictly increasing")
    edges = (0, *offsets, n)

    global_d: float | None = None
    global_diff: FracDiffResult | None = None
    if METHOD_FD in methods:
        global_d = gph_estimate(x).d_hat
        global_diff = frac_diff(x, global_d)

    rows: list[ForecastRow] = []
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        seg_label = f"{label_base}::seg{k + 1}"
        x_seg = x[a:b]
        # method -> (d_used, differenced segment, in-segment burn-in count),
        # or the reason the method has no inputs on this segment
        inputs: dict[str, tuple[float, np.ndarray, int] | str] = {}
        if METHOD_FD in methods:
            inputs[METHOD_FD] = (global_d, global_diff.values[a:b],
                                 max(global_diff.burn_in - a, 0))
        if METHOD_LFD in methods:
            try:
                local_d = gph_estimate(x_seg).d_hat
                local_diff = frac_diff(x_seg, local_d)
                inputs[METHOD_LFD] = (local_d, local_diff.values, local_diff.burn_in)
            except InputError as exc:
                inputs[METHOD_LFD] = f"local estimate failed: {exc}"
            except NumericalError as exc:
                inputs[METHOD_LFD] = f"local estimate failed: numerical: {exc}"
        cut = max((got[2] for got in inputs.values() if not isinstance(got, str)), default=0)
        for method, got in inputs.items():
            if isinstance(got, str):
                d_used, reason = math.nan, got
            else:
                d_used = got[0]
                try:
                    first, actual, fitted, score, model = _score_window(
                        got[1][cut:], x_seg[cut:], p, hidden_units, seed, scale, evaluation)
                except InputError as exc:
                    reason = str(exc)
                else:
                    rows.append(ForecastRow(
                        seg_label, method, d_used, score, seed, n_eval=actual.size,
                        start=a, stop=b, stop_reason=model.stop_reason,
                        iterations=len(model.loss_trace) - 1, best_step=model.best_step,
                        eval_start=a + cut + first,
                        actual=tuple(actual.tolist()), fitted=tuple(fitted.tolist())))
                    continue
            rows.append(ForecastRow(seg_label, method, d_used, math.nan, seed, n_eval=0,
                                    start=a, stop=b, skipped_reason=reason))
    if not any(r.skipped_reason is None for r in rows):
        raise InputError("no segment was long enough to train on")
    return ForecastReport(rows=tuple(rows), scale=scale)
