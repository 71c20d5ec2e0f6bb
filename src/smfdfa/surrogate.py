"""Surrogate-data testing for the source of multifractal width.

Shuffled surrogates keep the marginal distribution and destroy all
temporal correlation; phase-randomized surrogates keep the periodogram
(hence all linear correlation) and approximately Gaussianize the
marginals. Comparing the spectrum width of the original against an
ensemble of either kind attributes multifractality to the distribution,
to linear correlation, or to nonlinear structure.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .mfdfa import MfdfaConfig, analyze_segment

KINDS = ("shuffle", "phase")
DEFAULT_N_SURROGATES = 20


# shortest series each kind accepts, and what it is needed for
_MIN_LENGTH = {"shuffle": (2, "to shuffle"), "phase": (16, "for phase randomization")}


def _check_length(n: int, kind: str) -> None:
    minimum, purpose = _MIN_LENGTH[kind]
    if n < minimum:
        raise InputError(f"need at least {minimum} samples {purpose}, got {n}")


def shuffle(series: np.ndarray, seed: int) -> np.ndarray:
    """Uniform random permutation of the values under the seeded generator."""
    x = np.asarray(series, dtype=float)
    _check_length(x.size, "shuffle")
    return np.random.default_rng(seed).permutation(x)


def phase_surrogate(series: np.ndarray, seed: int) -> np.ndarray:
    """Phase-randomized copy: same periodogram, i.i.d. uniform phases.

    DC and (for even length) Nyquist bins keep their amplitudes real;
    every other bin gets a fresh phase. The inverse transform of a
    spectrum with conjugate symmetry is real by construction.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    _check_length(n, "phase")
    spectrum = np.fft.rfft(x)
    amplitude = np.abs(spectrum)
    rng = np.random.default_rng(seed)
    # interior bins exclude DC and, when n is even, the Nyquist bin
    hi = spectrum.size - 1 if n % 2 == 0 else spectrum.size
    phases = rng.uniform(0.0, 2.0 * math.pi, hi - 1)
    rotated = spectrum.astype(complex).copy()
    rotated[1:hi] = amplitude[1:hi] * np.exp(1j * phases)
    return np.fft.irfft(rotated, n=n)


class SurrogateEnsemble(Sequence):
    """Read-only sequence of the n_surrogates surrogates of one series:
    member i is built from generator seed seed^i each time it is accessed,
    so the ensemble is identical no matter how members are scheduled, and
    iterating holds one member at a time."""

    def __init__(self, series: np.ndarray, kind: str, seed: int, n: int):
        self._series, self._seed, self._n = series, seed, n
        self._build = shuffle if kind == "shuffle" else phase_surrogate

    def __len__(self) -> int:
        return self._n

    n_surrogates = property(__len__)

    def __getitem__(self, index: int) -> np.ndarray:
        i = range(self._n)[index]  # negative indices and bounds as in a tuple
        return self._build(self._series, self._seed ^ i)


def make_ensemble(series: np.ndarray, kind: str, n: int, seed: int) -> SurrogateEnsemble:
    """n independent surrogates of a read-only copy of the series, built
    when accessed."""
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    if n < 1:
        raise InputError(f"need at least 1 surrogate, got {n}")
    x = np.array(series, dtype=float)
    _check_length(x.size, kind)
    x.flags.writeable = False
    return SurrogateEnsemble(x, kind, seed, n)


@dataclass(frozen=True)
class SurrogateComparison:
    """Original spectrum width against the surrogate-width distribution.

    quantile uses the rank / (n + 1) convention where rank counts
    1 + #{surrogates strictly below the original}. Surrogates whose
    analysis failed numerically are dropped and counted in n_failed.
    """

    kind: str
    original_delta_alpha: float
    surrogate_delta_alphas: tuple[float, ...]
    quantile: float
    seed: int
    n_failed: int = 0


def surrogate_test(
    series: np.ndarray,
    kind: str = "shuffle",
    n: int = DEFAULT_N_SURROGATES,
    mf_config: MfdfaConfig = MfdfaConfig(),
    seed: int = 0,
) -> SurrogateComparison:
    """Spectrum width of the original vs n surrogates, identical config.

    The series is the fluctuation (return) sequence, not raw prices. A
    surrogate that fails MF-DFA (a degenerate permutation can zero a
    window) is dropped and counted rather than aborting the test.
    """
    if n < 10:
        raise InputError(f"need at least 10 surrogates for a quantile, got {n}")
    x = np.asarray(series, dtype=float)
    _, _, spectrum = analyze_segment(x, mf_config)
    widths = []
    n_failed = 0
    for member in make_ensemble(x, kind, n, seed):
        try:
            _, _, spec = analyze_segment(member, mf_config)
            widths.append(spec.delta_alpha)
        except NumericalError:
            n_failed += 1
    if not widths:
        raise NumericalError("every surrogate failed analysis")
    arr = np.asarray(widths)
    rank = 1 + int(np.sum(arr < spectrum.delta_alpha))
    quantile = rank / (len(widths) + 1)
    return SurrogateComparison(
        kind=kind,
        original_delta_alpha=spectrum.delta_alpha,
        surrogate_delta_alphas=tuple(widths),
        quantile=quantile,
        seed=seed,
        n_failed=n_failed,
    )
