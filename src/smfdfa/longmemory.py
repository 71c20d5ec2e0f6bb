"""Long-memory estimation and synthesis.

Estimator: the Geweke/Porter-Hudak log-periodogram regression for the
fractional integration order d (the DFA Hurst exponent, the q = 2 case of
MF-DFA, lives in mfdfa). Transforms: fractional differencing and its
inverse with truncated binomial weights. Generators: ARFIMA(0, d, 0) by
fractionally integrating white noise, and exact fractional Gaussian noise
through Davies-Harte circulant embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, finite_1d

WEIGHT_CUTOFF = 1e-5
MAX_AUTO_TRUNCATION = 500
MIN_GPH_LENGTH = 128


@dataclass(frozen=True)
class LongMemoryEstimate:
    d_hat: float
    stderr: float
    bandwidth: int
    n: int


def gph_estimate(returns: np.ndarray) -> LongMemoryEstimate:
    """Log-periodogram estimate of the fractional integration order.

    Regresses log I(lambda_j) on -2 log(2 sin(lambda_j / 2)) over the
    first m = floor(sqrt(N)) Fourier frequencies (the reported bandwidth).
    The reported standard error is the asymptotic sqrt(pi^2 / 6 / SSX).
    InputError unless the returns are 1-d and finite, with at least
    MIN_GPH_LENGTH samples.
    """
    x = finite_1d(returns)
    n = x.size
    if n < MIN_GPH_LENGTH:
        raise InputError(f"need at least {MIN_GPH_LENGTH} samples, got {n}")
    m = math.isqrt(n)
    centered = x - x.mean()
    spectrum = np.fft.rfft(centered)
    # periodogram at lambda_j = 2 pi j / n, j = 1..m
    periodogram = (np.abs(spectrum[1 : m + 1]) ** 2) / (2.0 * math.pi * n)
    if np.any(periodogram <= 0):
        j = int(np.flatnonzero(periodogram <= 0)[0]) + 1
        raise NumericalError(f"periodogram vanished at frequency index {j}")
    lam = 2.0 * math.pi * np.arange(1, m + 1) / n
    regressor = -2.0 * np.log(2.0 * np.sin(lam / 2.0))
    rx = regressor - regressor.mean()
    ssx = float(np.dot(rx, rx))
    logp = np.log(periodogram)
    d = float(np.dot(rx, logp - logp.mean())) / ssx
    stderr = math.sqrt(math.pi**2 / 6.0 / ssx)
    return LongMemoryEstimate(d_hat=d, stderr=stderr, bandwidth=m, n=n)


def frac_diff_weights(d: float, k_max: int) -> np.ndarray:
    """Binomial expansion coefficients of (1 - B)^d: w_0 = 1 and
    w_k = w_{k-1} (k - 1 - d) / k."""
    w = np.empty(k_max + 1)
    w[0] = 1.0
    for k in range(1, k_max + 1):
        w[k] = w[k - 1] * (k - 1 - d) / k
    return w


def _auto_truncation(d: float, n: int) -> int:
    """K = min(500, n // 4) unless the weight magnitude cutoff binds first."""
    k_cap = min(MAX_AUTO_TRUNCATION, max(n // 4, 1))
    small = np.flatnonzero(np.abs(frac_diff_weights(d, k_cap)[1:]) < WEIGHT_CUTOFF)
    return int(small[0]) + 1 if small.size else k_cap


@dataclass(frozen=True)
class FracDiffResult:
    values: np.ndarray
    burn_in: int  # leading samples whose filter history is incomplete: the truncation K


def frac_diff(series: np.ndarray, d: float, truncation: int | None = None) -> FracDiffResult:
    """Fractional difference of order d with a truncated binomial filter.

    y_t = sum_{k=0..K} w_k x_{t-k}, with K = truncation or, when None, an
    automatic cutoff. Output keeps the input's length; the first K samples
    see a shortened filter history and are flagged as burn-in. d = 0 is the
    identity; d = 1 is exact first differencing with y_0 = x_0; negative d
    fractionally integrates.
    """
    d = float(d)
    if not math.isfinite(d):
        raise InputError(f"order must be finite, got {d!r}")
    if truncation is not None and int(truncation) < 1:
        raise InputError(f"truncation must be >= 1, got {truncation}")
    x = np.asarray(series, dtype=float)
    n = x.size
    if n == 0:
        raise InputError("cannot difference an empty series")
    k_max = _auto_truncation(d, n) if truncation is None else int(truncation)
    if k_max >= n:
        raise InputError(f"truncation {k_max} must be smaller than the series length {n}")
    w = frac_diff_weights(d, k_max)
    out = np.convolve(x, w)[:n]
    return FracDiffResult(values=out, burn_in=k_max)


def arfima_generate(d: float, n: int, seed: int, sigma: float = 1.0) -> np.ndarray:
    """ARFIMA(0, d, 0) sample path: fractional integration (frac_diff at
    order -d, that is (1 - B)^{-d}), truncated at MAX_AUTO_TRUNCATION lags,
    applied to seeded Gaussian noise, with that many leading samples
    dropped so every kept sample has a full filter history. Requires
    |d| < 0.5 (stationary, invertible range).
    """
    if not abs(d) < 0.5:
        raise InputError(f"need |d| < 0.5 for a stationary path, got d={d}")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if sigma <= 0:
        raise InputError(f"sigma must be positive, got {sigma}")
    burn_in = MAX_AUTO_TRUNCATION
    noise = np.random.default_rng(seed).standard_normal(n + burn_in) * sigma
    return frac_diff(noise, -d, burn_in).values[burn_in:]


def fgn_generate(n: int, hurst: float, seed: int, sigma: float = 1.0) -> np.ndarray:
    """Exact fractional Gaussian noise via Davies-Harte circulant embedding.

    The autocovariance gamma(k) = sigma^2/2 (|k+1|^{2H} - 2|k|^{2H} +
    |k-1|^{2H}) is embedded in a 2n-point circulant whose eigenvalues are
    nonnegative for H in (0, 1); sampling its spectral decomposition with
    seeded complex Gaussians gives an exact stationary path.
    """
    if not 0.0 < hurst < 1.0:
        raise InputError(f"hurst must lie in (0, 1), got {hurst}")
    if n < 2:
        raise InputError(f"n must be >= 2, got {n}")
    if sigma <= 0:
        raise InputError(f"sigma must be positive, got {sigma}")
    if not math.isfinite(sigma * sigma):
        raise InputError(f"sigma squared overflows, got {sigma}")
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * sigma**2 * (
        np.abs(k + 1) ** (2 * hurst) - 2 * np.abs(k) ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst)
    )
    # first row of the 2n-point circulant embedding
    row = np.concatenate([gamma, gamma[n - 1 : 0 : -1]])
    eig = np.fft.rfft(row).real
    if np.any(eig < -1e-9 * sigma**2):
        raise NumericalError(f"circulant embedding not nonnegative definite for H={hurst}")
    eig = np.clip(eig, 0.0, None)
    m = row.size
    rng = np.random.default_rng(seed)
    # rfft bins of a real 2n-point sequence: DC and Nyquist real, rest complex
    z = np.empty(eig.size, dtype=complex)
    z[0] = rng.standard_normal() * math.sqrt(m)
    z[-1] = rng.standard_normal() * math.sqrt(m)
    half = eig.size - 2
    re = rng.standard_normal(half)
    im = rng.standard_normal(half)
    z[1:-1] = (re + 1j * im) * math.sqrt(m / 2.0)
    path = np.fft.irfft(np.sqrt(eig) * z, n=m)
    return path[:n]
