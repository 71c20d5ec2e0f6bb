"""Multifractal detrended fluctuation analysis, per segment or whole-series.

The machinery follows the standard MF-DFA recipe (Kantelhardt et al.,
Physica A 316, 2002): cumulative mean-adjusted profile, windowed
polynomial detrending from both ends of the series, q-th order power means
of the window variances, and log-log regression of the fluctuation
function against scale. On top of that sit the Legendre singularity
spectrum, a fluctuation-analysis (box / partition function) variant for
normalized measures, the binomial multiplicative cascade used as an
analytic calibration target, and the structured pipeline that runs MF-DFA
independently on change-point-delimited regimes and gives each regime its
own DFA Hurst exponent (the q = 2 case) and GPH memory factor d.
"""

from __future__ import annotations

import functools
import math
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .changepoint import ChangePointConfig, ChangePointResult, detect_multiple
from .errors import InputError, NumericalError, finite_1d
from .longmemory import gph_estimate

DEFAULT_Q_GRID = tuple(np.arange(-5.0, 5.0 + 0.25, 0.5))
DEFAULT_MIN_SCALE = 16
DEFAULT_N_SCALES = 20
MIN_SPECTRUM_Q = 5  # q points the Legendre spectrum needs
MIN_HURST_LENGTH = 256


def default_scale_grid(n: int, s_min: int = DEFAULT_MIN_SCALE) -> np.ndarray:
    """DEFAULT_N_SCALES log-spaced integer scales from s_min to n // 4
    (unique, ascending)."""
    s_max = n // 4
    if s_max < s_min:
        raise InputError(
            f"segment of length {n} too short: largest usable scale {s_max} < minimum {s_min}"
        )
    grid = np.unique(
        np.round(np.logspace(math.log10(s_min), math.log10(s_max), DEFAULT_N_SCALES)).astype(int)
    )
    return np.clip(grid, s_min, s_max)


@dataclass(frozen=True)
class MfdfaConfig:
    """Moment grid, scale grid and detrending order for one analysis.

    scale_grid None means a log-spaced default derived from each segment's
    length at analysis time. regression_range optionally restricts the
    slope fit to scales within [lo, hi].
    """

    q_grid: tuple[float, ...] = DEFAULT_Q_GRID
    scale_grid: tuple[int, ...] | None = None
    detrend_order: int = 1
    regression_range: tuple[float, float] | None = None

    def __post_init__(self):
        q = tuple(float(v) for v in self.q_grid)
        if len(q) == 0:
            raise InputError("q_grid must be nonempty")
        if any(b <= a for a, b in zip(q, q[1:])):
            raise InputError("q_grid must be strictly increasing")
        if self.detrend_order < 1:
            raise InputError("detrend_order must be >= 1")
        if self.regression_range is not None and len(self.regression_range) != 2:
            raise InputError("regression_range must be a (lo, hi) pair")
        if not all(map(math.isfinite, (*q, *(self.regression_range or ())))):
            raise InputError("q_grid and regression_range must hold finite values")
        object.__setattr__(self, "q_grid", q)
        if self.scale_grid is not None:
            s = tuple(int(v) for v in self.scale_grid)
            if not s:
                raise InputError("scale_grid must be nonempty")
            if any(b <= a for a, b in zip(s, s[1:])):
                raise InputError("scale_grid must be strictly increasing")
            if s[0] < self.detrend_order + 2:
                raise InputError(
                    f"smallest scale {s[0]} leaves no residual dof for order "
                    f"{self.detrend_order} detrending (need >= {self.detrend_order + 2})"
                )
            object.__setattr__(self, "scale_grid", s)

    def resolve_scales(self, n: int) -> np.ndarray:
        if self.scale_grid is None:
            grid = default_scale_grid(n, s_min=max(DEFAULT_MIN_SCALE, self.detrend_order + 2))
        else:
            grid = np.asarray(self.scale_grid, dtype=int)
        if n < 4 * grid[-1]:
            raise InputError(
                f"segment of length {n} shorter than 4 * max scale ({4 * int(grid[-1])})"
            )
        return grid


@dataclass(frozen=True)
class FluctuationSurface:
    """phi[q, s]: q-th order fluctuation function over the (q, s) grid."""

    q_grid: np.ndarray
    scale_grid: np.ndarray
    phi: np.ndarray        # shape (len(q_grid), len(scale_grid))
    n_windows: np.ndarray  # N_s = 2 * floor(T / s) per scale
    n_samples: int
    detrend_order: int
    regression_range: tuple[float, float] | None = None


@dataclass(frozen=True)
class HurstCurve:
    """Generalized Hurst exponents: log-log slope of phi_q(s) per moment."""

    q_grid: np.ndarray
    rho: np.ndarray
    stderr: np.ndarray
    r_squared: np.ndarray


@dataclass(frozen=True)
class SingularitySpectrum:
    """tau(q), Legendre points (alpha, f(alpha)) and the spectrum width."""

    q_grid: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    f_alpha: np.ndarray
    delta_alpha: float
    alpha_monotone: bool  # False flags a folded (non-monotone) finite-sample spectrum


@dataclass(frozen=True)
class PartitionFunction:
    """Z_q(s) with the fitted mass exponents tau_fa(q)."""

    q_grid: np.ndarray
    scale_grid: np.ndarray
    z: np.ndarray  # shape (len(q_grid), len(scale_grid))
    tau_fa: np.ndarray


@functools.lru_cache(maxsize=DEFAULT_N_SCALES)
def _detrending_operator(s: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only design matrix of an order-m polynomial on s points and the
    transpose of its pseudo-inverse, shared by every surface that uses scale s.

    The abscissa is normalized to (0, 1] for conditioning. One scale grid's
    worth of entries are kept, so the members of a surrogate ensemble, which
    share their length and hence their grid, build each operator once.
    """
    u = (np.arange(1, s + 1, dtype=float)) / s
    design = np.vander(u, order + 1, increasing=True)
    pinv = np.linalg.pinv(design)
    design.flags.writeable = False
    pinv.flags.writeable = False
    return design, pinv.T


def _detrended_window_variances(profile: np.ndarray, s: int, order: int) -> np.ndarray:
    """Variance about an order-m polynomial fit in each window of size s.

    Windows run forward from the start and backward from the end, giving
    N_s = 2 * floor(T / s) values in that order.
    """
    n = profile.size
    t = n // s
    fwd = profile[: t * s].reshape(t, s)
    bwd = profile[n - t * s:].reshape(t, s)[::-1]
    windows = np.concatenate([fwd, bwd], axis=0)
    design, pinv_t = _detrending_operator(s, order)
    # residuals and their squares overwrite the fit; the row sum over s is
    # np.mean's pairwise sum and division, without its temporaries
    fit = (windows @ pinv_t) @ design.T
    np.subtract(windows, fit, out=fit)
    np.multiply(fit, fit, out=fit)
    return np.add.reduce(fit, axis=1) / s


def _power_sums(coef: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row maxima m of a = coef[:, None] * logs and row sums of exp(a - m), so
    row i's log-sum-exp is m[i] + log(sums[i]). Rounding keeps the order of
    products with one factor (a negative one reverses it), so m is the exact
    row maximum; exp and the row sums run in one row's loop and pairwise order."""
    m = coef * np.where(coef > 0, logs.max(initial=-np.inf), logs.min(initial=np.inf))
    a = np.multiply.outer(coef, logs)
    np.subtract(a, m[:, None], out=a)
    np.exp(a, out=a)
    return m, np.add.reduce(a, axis=1)


def _phi_column(sig2: np.ndarray, q_grid: np.ndarray, s: int) -> np.ndarray:
    """Power means of window variances for one scale, computed in log space.

    q = 0 uses the logarithmic average exp{sum(ln sig2) / (2 N_s)}, the
    q -> 0 limit of the q != 0 form.
    """
    n_s = sig2.size
    zero = sig2 <= 0.0
    for bad, what, why in (
        (~np.isfinite(sig2), "overflows", "the input is too large in magnitude for MF-DFA"),
        (zero & (q_grid <= 0).any(), "is exactly 0", "moments q <= 0 are singular there"),
    ):
        if bad.any():
            gamma = int(np.flatnonzero(bad)[0]) + 1
            raise NumericalError(f"window variance {what} at (s={s}, gamma={gamma}); {why}")
    log_sig2 = np.log(sig2[~zero])
    m, sums = _power_sums(q_grid / 2.0, log_sig2)
    phi = np.zeros(q_grid.size)
    for i, (q, mi, si) in enumerate(zip(q_grid.tolist(), m.tolist(), sums.tolist())):
        if q == 0.0:
            # geometric mean of window deviations; zero anywhere kills it
            phi[i] = 0.0 if zero.any() else math.exp(float(np.sum(log_sig2)) / (2.0 * n_s))
        elif math.isfinite(mi):  # else every window is flat, or q/2 * ln sig2 overflows
            phi[i] = math.exp((mi + math.log(si) - math.log(n_s)) / q)
    return phi


def _check_power_mean_monotone(phi: np.ndarray, q_grid: np.ndarray, s: np.ndarray):
    # phi_q(s) is a power mean of the window deviations, hence non-decreasing
    # in q; violation beyond float noise means a computation bug.
    lo = phi[:-1, :]
    hi = phi[1:, :]
    bad = hi < lo * (1.0 - 1e-9)
    if bad.any():
        qi, si = np.argwhere(bad)[0]
        raise NumericalError(
            f"power-mean monotonicity violated at q={q_grid[qi + 1]}, s={int(s[si])}"
        )


def fluctuation_surface(
    segment: Sequence[float] | np.ndarray,
    config: MfdfaConfig = MfdfaConfig(),
) -> FluctuationSurface:
    """q-th order fluctuation function phi_q(s) of one segment.

    The segment is mean-adjusted and cumulatively summed into a profile;
    each scale s contributes 2 * floor(T/s) windows (forward then backward
    cover), each detrended by an order-m least-squares polynomial. Window
    variances are aggregated into power means per q, with the logarithmic
    average at q = 0.

    Raises InputError unless the segment is 1-d and finite, and
    NumericalError when a window variance overflows, or is exactly zero and
    nonpositive moments are requested (negative moments of zero diverge);
    with only q > 0 such windows contribute zero.
    """
    values = finite_1d(segment)
    n = values.size
    scales = config.resolve_scales(n)
    q_grid = np.asarray(config.q_grid, dtype=float)
    phi = np.empty((q_grid.size, scales.size))
    n_windows = np.empty(scales.size, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        profile = np.cumsum(values - values.mean())
        for j, s in enumerate(scales):
            sig2 = _detrended_window_variances(profile, int(s), config.detrend_order)
            n_windows[j] = sig2.size
            phi[:, j] = _phi_column(sig2, q_grid, int(s))
    _check_power_mean_monotone(phi, q_grid, scales)
    return FluctuationSurface(
        q_grid=q_grid,
        scale_grid=scales,
        phi=phi,
        n_windows=n_windows,
        n_samples=n,
        detrend_order=config.detrend_order,
        regression_range=config.regression_range,
    )


def _ols_loglog(log_s: np.ndarray, log_y: np.ndarray):
    """Slopes, stderrs and R^2 of unweighted straight-line fits of each row
    of the C-ordered block log_y against log_s. The dot products stay one
    call per row: a 2-d product would sum in another order."""
    n = log_s.size
    sx = log_s - log_s.mean()
    sy = log_y - log_y.mean(axis=1, keepdims=True)
    ssx = float(np.dot(sx, sx))
    slope = np.array([float(np.dot(sx, row)) / ssx for row in sy])
    resid = sy - slope[:, None] * sx
    ssr = np.array([np.dot(row, row) for row in resid])
    sst = np.array([np.dot(row, row) for row in sy])
    stderr = np.sqrt(np.maximum(ssr / (n - 2), 0.0) / ssx) if n > 2 else np.zeros(slope.size)
    r2 = 1.0 - np.divide(ssr, sst, out=np.zeros_like(ssr), where=sst > 0)
    return slope, stderr, np.clip(r2, 0.0, 1.0)


def generalized_hurst(surface: FluctuationSurface) -> HurstCurve:
    """Per-moment scaling exponents from log10 phi_q(s) vs log10 s."""
    scales = surface.scale_grid
    mask = np.ones(scales.size, dtype=bool)
    if surface.regression_range is not None:
        lo, hi = surface.regression_range
        mask = (scales >= lo) & (scales <= hi)
    if int(mask.sum()) < 4:
        raise InputError(
            f"regression needs >= 4 scales, got {int(mask.sum())} in range"
        )
    # a boolean column mask gives an F-ordered copy, whose row means would
    # sum in another order than a 1-d row's
    phi = np.ascontiguousarray(surface.phi[:, mask])
    vanished = np.any(phi <= 0, axis=1)
    if vanished.any():
        raise NumericalError(
            f"fluctuation function vanished at q={surface.q_grid[int(np.argmax(vanished))]}; "
            "cannot regress in log space"
        )
    rho, err, r2 = _ols_loglog(np.log10(scales[mask].astype(float)), np.log10(phi))
    return HurstCurve(q_grid=surface.q_grid.copy(), rho=rho, stderr=err, r_squared=r2)


def hurst_dfa(series: np.ndarray, config: MfdfaConfig | None = None) -> float:
    """Hurst exponent as the q = 2 scaling slope of the DFA fluctuation
    function (monofractal special case of the MF-DFA surface)."""
    if np.size(series) < MIN_HURST_LENGTH:
        raise InputError(f"need at least {MIN_HURST_LENGTH} samples, got {np.size(series)}")
    surface = fluctuation_surface(series, replace(config or MfdfaConfig(), q_grid=(2.0,)))
    return float(generalized_hurst(surface).rho[0])


def scaling_and_spectrum(curve: HurstCurve) -> SingularitySpectrum:
    """Mass exponents and Legendre singularity spectrum of a Hurst curve.

    tau(q) = q rho(q) - 1; alpha = rho + q rho'(q); f(alpha) = q (alpha -
    rho) + 1. rho' is taken by central finite differences on the q grid
    (one-sided at the ends).
    """
    q = curve.q_grid
    rho = curve.rho
    if q.size < MIN_SPECTRUM_Q:
        raise InputError(f"spectrum needs a Hurst curve on >= {MIN_SPECTRUM_Q} q points")
    tau = q * rho - 1.0
    alpha = rho + q * np.gradient(rho, q)
    f_alpha = q * (alpha - rho) + 1.0
    monotone = bool(np.all(np.diff(alpha) <= 1e-12))
    return SingularitySpectrum(
        q_grid=q.copy(),
        tau=tau,
        alpha=alpha,
        f_alpha=f_alpha,
        delta_alpha=float(alpha.max() - alpha.min()),
        alpha_monotone=monotone,
    )


def fa_partition(
    measure: Sequence[float] | np.ndarray,
    q_grid: Sequence[float] | np.ndarray = DEFAULT_Q_GRID,
    scale_grid: Sequence[int] | np.ndarray | None = None,
) -> PartitionFunction:
    """Box-probability partition function of a normalized measure.

    The measure must be 1-d, finite, nonnegative and sum to 1. p_s(gamma)
    sums it over disjoint boxes of length s (a trailing remainder is
    dropped); Z_q(s) = sum |p|^q over nonempty boxes, and tau(q) is the
    log-log slope of Z_q against s.
    """
    x = finite_1d(measure)
    if np.any(x < 0):
        raise InputError("measure must be nonnegative")
    total = float(np.sum(x))
    if abs(total - 1.0) > 1e-9:
        raise InputError(f"measure must sum to 1 (got {total!r})")
    n = x.size
    if scale_grid is None:
        # dyadic scales keep boxes exact for power-of-two lengths
        max_pow = max(int(math.log2(n // 4)), 2)
        scale_grid = [2**k for k in range(2, max_pow + 1)]
    scales = np.asarray(scale_grid, dtype=int)
    if np.unique(scales).size < 2:
        raise InputError(f"tau(q) needs 2 distinct scales to fit a slope, got {scales.tolist()}")
    q = np.asarray(q_grid, dtype=float)
    z = np.empty((q.size, scales.size))
    for j, s in enumerate(scales):
        nb = n // int(s) if s > 0 else 0
        if nb < 2:
            raise InputError(f"scale {int(s)} leaves fewer than 2 boxes")
        p = x[: nb * int(s)].reshape(nb, int(s)).sum(axis=1)
        p = p[p > 0]
        if p.size == 0:
            raise NumericalError(f"all boxes empty at scale {int(s)}")
        m, sums = _power_sums(q, np.log(p))
        z[:, j] = [math.exp(mi + math.log(si)) for mi, si in zip(m.tolist(), sums.tolist())]
    tau = _ols_loglog(np.log10(scales.astype(float)), np.log10(z))[0]
    return PartitionFunction(q_grid=q, scale_grid=scales, z=z, tau_fa=tau)


def generate_cascade(
    b1: float, b2: float, levels: int, shuffle_seed: int | None = None
) -> np.ndarray:
    """Binomial multiplicative measure of length 2**levels summing to one.

    Deterministically the larger weight goes left at every dyadic split;
    with shuffle_seed the left/right assignment is randomized per cell.
    Meaningful multifractal statistics need levels >= 8, but short cascades
    are allowed for inspection.
    """
    if not (b1 > b2 > 0):
        raise InputError(f"weights must satisfy b1 > b2 > 0, got b1={b1}, b2={b2}")
    if abs(b1 + b2 - 1.0) > 1e-12:
        raise InputError(f"weights must sum to 1, got {b1 + b2!r}")
    if levels < 1:
        raise InputError("levels must be >= 1")
    rng = np.random.default_rng(shuffle_seed) if shuffle_seed is not None else None
    measure = np.array([1.0])
    for _ in range(levels):
        left = np.full(measure.size, b1)
        right = np.full(measure.size, b2)
        if rng is not None:
            flip = rng.random(measure.size) < 0.5
            left[flip], right[flip] = b2, b1
        nxt = np.empty(measure.size * 2)
        nxt[0::2] = measure * left
        nxt[1::2] = measure * right
        measure = nxt
    return measure


def analytic_rho(b1: float, b2: float, q: float | np.ndarray) -> float | np.ndarray:
    """Closed-form generalized Hurst exponent of the binomial cascade:
    rho(q) = 1/q - log2(b1^q + b2^q) / q, continued through q = 0 by its
    limit -log2(b1 b2) / 2."""
    if not (b1 > b2 > 0):
        raise InputError(f"weights must satisfy b1 > b2 > 0, got b1={b1}, b2={b2}")
    q_arr = np.asarray(q, dtype=float)
    lb1, lb2 = math.log(b1), math.log(b2)
    ln2 = math.log(2.0)

    def one(qv: float) -> float:
        if abs(qv) < 1e-6:
            # first-order expansion around q = 0
            return -(lb1 + lb2) / (2 * ln2) - qv * (lb1 - lb2) ** 2 / (8 * ln2)
        a, b = qv * lb1, qv * lb2
        m = max(a, b)
        log_sum = m + math.log(math.exp(a - m) + math.exp(b - m))
        return (ln2 - log_sum) / (qv * ln2)

    out = np.vectorize(one)(q_arr)
    return float(out) if np.isscalar(q) or q_arr.ndim == 0 else out


def analytic_delta_alpha(b1: float, b2: float) -> float:
    """Asymptotic spectrum width of the cascade: log2(b1 / b2)."""
    if not (b1 > b2 > 0):
        raise InputError(f"weights must satisfy b1 > b2 > 0, got b1={b1}, b2={b2}")
    return math.log2(b1 / b2)


@dataclass(frozen=True)
class SegmentReport:
    """One regime's record. surface, hurst and spectrum are None when its
    MF-DFA was skipped (see skipped_reason). The GPH d_hat and d_stderr and
    the DFA hurst_dfa are None when the regime is too short for them or its
    MF-DFA failed numerically; gph_failure names a numerical GPH failure."""

    label: str
    start: int  # 0-based offsets into the fluctuation series
    stop: int
    surface: FluctuationSurface | None
    hurst: HurstCurve | None
    spectrum: SingularitySpectrum | None
    skipped_reason: str | None = None
    d_hat: float | None = None
    d_stderr: float | None = None
    hurst_dfa: float | None = None
    gph_failure: str | None = None


@dataclass(frozen=True)
class StructuredReport:
    changepoints: ChangePointResult
    segments: tuple[SegmentReport, ...]


def analyze_segment(
    values: np.ndarray, config: MfdfaConfig
) -> tuple[FluctuationSurface, HurstCurve, SingularitySpectrum]:
    """Surface -> Hurst curve -> spectrum for one segment."""
    surface = fluctuation_surface(values, config)
    curve = generalized_hurst(surface)
    return surface, curve, scaling_and_spectrum(curve)


def _regime_report(label: str, start: int, stop: int, values: np.ndarray,
                   config: MfdfaConfig) -> SegmentReport:
    """MF-DFA, GPH d and DFA Hurst exponent of one regime. A regime whose
    MF-DFA fails numerically (a flat one, say) reports no estimate, but GPH
    still runs there so that its failure is named."""
    surface = curve = spectrum = reason = None
    degenerate = False
    try:
        surface, curve, spectrum = analyze_segment(values, config)
    except InputError as exc:
        reason = f"too short: {exc}"
    except NumericalError as exc:
        reason, degenerate = f"numerical: {exc}", True
    d_hat = d_stderr = gph_failure = hurst = None
    try:
        est = gph_estimate(values)
        if not degenerate:
            d_hat, d_stderr = est.d_hat, est.stderr
    except InputError:
        pass
    except NumericalError as exc:
        gph_failure = f"numerical: gph: {exc}"
    if not degenerate and values.size >= MIN_HURST_LENGTH:
        if curve is not None and 2.0 in config.q_grid:
            hurst = float(curve.rho[config.q_grid.index(2.0)])
        else:
            with suppress(InputError, NumericalError):
                hurst = hurst_dfa(values, config)
    return SegmentReport(label, start, stop, surface, curve, spectrum, reason,
                         d_hat, d_stderr, hurst, gph_failure)


def s_mfdfa(
    flucts: np.ndarray,
    cp_config: ChangePointConfig = ChangePointConfig(),
    mf_config: MfdfaConfig = MfdfaConfig(),
    label: str = "",
) -> StructuredReport:
    """Structured MF-DFA of a fluctuation series (for prices, the output of
    series.to_fluctuations): change-point detection on it, then an
    independent MF-DFA, GPH d and DFA Hurst exponent on every regime.

    When detection returns no breaks the single reported spectrum is the
    plain whole-series MF-DFA (identical code path, identical numbers).
    Segments too short for the configured grids, or numerically degenerate
    (for example flat, with a zero window variance), are flagged and
    skipped while the rest are still reported.
    """
    flucts = finite_1d(flucts)
    cp = detect_multiple(flucts, cp_config)
    edges = (0, *cp.offsets, flucts.size)
    return StructuredReport(
        changepoints=cp,
        segments=tuple(
            _regime_report(f"{label or 'series'}::seg{k + 1}", a, b, flucts[a:b], mf_config)
            for k, (a, b) in enumerate(zip(edges, edges[1:]))
        ),
    )
