"""Multifractal detrended fluctuation analysis, per segment or whole-series.

The machinery follows the standard MF-DFA recipe (Kantelhardt et al.,
Physica A 316, 2002): cumulative mean-adjusted profile, windowed
polynomial detrending from both ends of the series, q-th order power means
of the window variances, and log-log regression of the fluctuation
function against scale. On top of that sit the Legendre singularity
spectrum, a fluctuation-analysis (box / partition function) variant for
normalized measures, the binomial multiplicative cascade used as an
analytic calibration target, and the structured pipeline that runs MF-DFA
independently on change-point-delimited regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .changepoint import ChangePointConfig, ChangePointResult, detect_multiple
from .errors import InputError, NumericalError
from .series import TimeSeries, to_fluctuations

DEFAULT_Q_GRID = tuple(np.arange(-5.0, 5.0 + 0.25, 0.5))
DEFAULT_MIN_SCALE = 16
DEFAULT_N_SCALES = 20


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
    segment_label: str = ""
    regression_range: tuple[float, float] | None = None


@dataclass(frozen=True)
class HurstCurve:
    """Generalized Hurst exponents: log-log slope of phi_q(s) per moment."""

    q_grid: np.ndarray
    rho: np.ndarray
    stderr: np.ndarray
    r_squared: np.ndarray
    segment_label: str = ""


@dataclass(frozen=True)
class SingularitySpectrum:
    """tau(q), Legendre points (alpha, f(alpha)) and the spectrum width."""

    q_grid: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    f_alpha: np.ndarray
    delta_alpha: float
    alpha_monotone: bool  # False flags a folded (non-monotone) finite-sample spectrum
    segment_label: str = ""


@dataclass(frozen=True)
class PartitionFunction:
    """Z_q(s) with the fitted mass exponents tau_fa(q)."""

    q_grid: np.ndarray
    scale_grid: np.ndarray
    z: np.ndarray  # shape (len(q_grid), len(scale_grid))
    tau_fa: np.ndarray


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
    # shared design matrix on a normalized abscissa for conditioning
    u = (np.arange(1, s + 1, dtype=float)) / s
    design = np.vander(u, order + 1, increasing=True)
    pinv = np.linalg.pinv(design)
    coefs = windows @ pinv.T
    resid = windows - coefs @ design.T
    return np.mean(resid * resid, axis=1)


def _phi_column(sig2: np.ndarray, q_grid: np.ndarray, s: int) -> np.ndarray:
    """Power means of window variances for one scale, computed in log space.

    q = 0 uses the logarithmic average exp{sum(ln sig2) / (2 N_s)}, the
    q -> 0 limit of the q != 0 form.
    """
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
            # geometric mean of window deviations; zero anywhere kills it
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
    label: str = "",
) -> FluctuationSurface:
    """q-th order fluctuation function phi_q(s) of one segment.

    The segment is mean-adjusted and cumulatively summed into a profile;
    each scale s contributes 2 * floor(T/s) windows (forward then backward
    cover), each detrended by an order-m least-squares polynomial. Window
    variances are aggregated into power means per q, with the logarithmic
    average at q = 0.

    Raises NumericalError when a window variance is exactly zero and
    nonpositive moments are requested (negative moments of zero diverge);
    with only q > 0 such windows contribute zero.
    """
    values = np.asarray(segment, float)
    n = values.size
    scales = config.resolve_scales(n)
    q_grid = np.asarray(config.q_grid, dtype=float)
    profile = np.cumsum(values - values.mean())
    phi = np.empty((q_grid.size, scales.size))
    n_windows = np.empty(scales.size, dtype=int)
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
        segment_label=label,
        regression_range=config.regression_range,
    )


def _ols_loglog(log_s: np.ndarray, log_phi: np.ndarray):
    """Slope, stderr and R^2 of an unweighted straight-line fit."""
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
    log_s = np.log10(scales[mask].astype(float))
    rho = np.empty(surface.q_grid.size)
    err = np.empty_like(rho)
    r2 = np.empty_like(rho)
    for i in range(surface.q_grid.size):
        phi_row = surface.phi[i, mask]
        if np.any(phi_row <= 0):
            raise NumericalError(
                f"fluctuation function vanished at q={surface.q_grid[i]}; "
                "cannot regress in log space"
            )
        rho[i], err[i], r2[i] = _ols_loglog(log_s, np.log10(phi_row))
    return HurstCurve(
        q_grid=surface.q_grid.copy(),
        rho=rho,
        stderr=err,
        r_squared=r2,
        segment_label=surface.segment_label,
    )


def scaling_and_spectrum(
    curve: HurstCurve, rho_prime: np.ndarray | None = None
) -> SingularitySpectrum:
    """Mass exponents and Legendre singularity spectrum of a Hurst curve.

    tau(q) = q rho(q) - 1; alpha = rho + q rho'(q); f(alpha) = q (alpha -
    rho) + 1. rho' defaults to central finite differences on the q grid
    (one-sided at the ends); pass rho_prime to use an externally known
    derivative instead.
    """
    q = curve.q_grid
    rho = curve.rho
    if q.size < 5:
        raise InputError("spectrum needs a Hurst curve on >= 5 q points")
    if rho_prime is None:
        rho_prime = np.gradient(rho, q)
    else:
        rho_prime = np.asarray(rho_prime, dtype=float)
        if rho_prime.shape != rho.shape:
            raise InputError("rho_prime must match the q grid")
    tau = q * rho - 1.0
    alpha = rho + q * rho_prime
    f_alpha = q * (alpha - rho) + 1.0
    monotone = bool(np.all(np.diff(alpha) <= 1e-12))
    return SingularitySpectrum(
        q_grid=q.copy(),
        tau=tau,
        alpha=alpha,
        f_alpha=f_alpha,
        delta_alpha=float(alpha.max() - alpha.min()),
        alpha_monotone=monotone,
        segment_label=curve.segment_label,
    )


def fa_partition(
    measure: Sequence[float] | np.ndarray,
    q_grid: Sequence[float] | np.ndarray = DEFAULT_Q_GRID,
    scale_grid: Sequence[int] | np.ndarray | None = None,
) -> PartitionFunction:
    """Box-probability partition function of a normalized measure.

    p_s(gamma) sums the measure over disjoint boxes of length s (a trailing
    remainder is dropped); Z_q(s) = sum |p|^q over nonempty boxes, and
    tau(q) is the log-log slope of Z_q against s.
    """
    x = np.asarray(measure, dtype=float)
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
    q = np.asarray(q_grid, dtype=float)
    z = np.empty((q.size, scales.size))
    for j, s in enumerate(scales):
        nb = n // int(s)
        if nb < 2:
            raise InputError(f"scale {int(s)} leaves fewer than 2 boxes")
        p = x[: nb * int(s)].reshape(nb, int(s)).sum(axis=1)
        p = p[p > 0]
        if p.size == 0:
            raise NumericalError(f"all boxes empty at scale {int(s)}")
        logp = np.log(p)
        for i, qi in enumerate(q):
            a = qi * logp
            m = float(np.max(a))
            z[i, j] = math.exp(m + math.log(float(np.sum(np.exp(a - m)))))
    log_s = np.log10(scales.astype(float))
    tau = np.empty(q.size)
    for i in range(q.size):
        tau[i], _, _ = _ols_loglog(log_s, np.log10(z[i]))
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
    """Per-regime analysis products; spectrum is None when the segment was
    too short for the configured grids (see skipped_reason)."""

    label: str
    start: int  # 0-based offsets into the fluctuation series
    stop: int
    surface: FluctuationSurface | None
    hurst: HurstCurve | None
    spectrum: SingularitySpectrum | None
    skipped_reason: str | None = None


@dataclass(frozen=True)
class StructuredReport:
    series_label: str
    changepoints: ChangePointResult
    segments: tuple[SegmentReport, ...]

    @property
    def delta_alphas(self) -> list[float | None]:
        return [s.spectrum.delta_alpha if s.spectrum else None for s in self.segments]


def analyze_segment(
    values: np.ndarray, config: MfdfaConfig, label: str = ""
) -> tuple[FluctuationSurface, HurstCurve, SingularitySpectrum]:
    """Surface -> Hurst curve -> spectrum for one segment."""
    surface = fluctuation_surface(values, config, label=label)
    curve = generalized_hurst(surface)
    return surface, curve, scaling_and_spectrum(curve)


def s_mfdfa(
    series: TimeSeries,
    cp_config: ChangePointConfig = ChangePointConfig(),
    mf_config: MfdfaConfig = MfdfaConfig(),
) -> StructuredReport:
    """Structured MF-DFA: fluctuation transform, change-point detection on
    the transform, then an independent MF-DFA on every resulting regime.

    When detection returns no breaks the single reported spectrum is the
    plain whole-series MF-DFA (identical code path, identical numbers).
    Segments too short for the configured grids, or numerically degenerate
    (for example flat, with a zero window variance), are flagged and
    skipped while the rest are still reported.
    """
    flucts = to_fluctuations(series)
    cp = detect_multiple(flucts, cp_config)
    edges = (0, *cp.offsets, flucts.size)
    reports = []
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        label = f"{series.label or 'series'}::seg{k + 1}"
        try:
            surface, curve, spectrum = analyze_segment(flucts[a:b], mf_config, label=label)
            reports.append(SegmentReport(label, a, b, surface, curve, spectrum))
        except InputError as exc:
            reports.append(
                SegmentReport(label, a, b, None, None, None, skipped_reason=f"too short: {exc}")
            )
        except NumericalError as exc:
            reports.append(
                SegmentReport(label, a, b, None, None, None, skipped_reason=f"numerical: {exc}")
            )
    return StructuredReport(
        series_label=series.label,
        changepoints=cp,
        segments=tuple(reports),
    )
