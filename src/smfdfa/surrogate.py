"""Surrogate-data testing for the source of multifractal width.

Shuffled surrogates keep the marginal distribution and destroy all
temporal correlation; phase-randomized surrogates keep the periodogram
(hence all linear correlation) and approximately Gaussianize the
marginals. Comparing the spectrum width of the original against an
ensemble of either kind attributes multifractality to the distribution,
to linear correlation, or to nonlinear structure.

surrogate_test analyses the members in forked processes, one share per CPU
the process may run on; each member is built from its own seed and analysed
by the same code wherever it runs, so the result does not depend on the CPU
count, and a process confined to one CPU (taskset -c 0) runs them all
in-process.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
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


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share_widths(ensemble: SurrogateEnsemble, share: range,
                  mf_config: MfdfaConfig) -> list[float | None]:
    """Spectrum widths of the members in share, None where MF-DFA failed."""
    widths = []
    for i in share:
        try:
            widths.append(analyze_segment(ensemble[i], mf_config)[2].delta_alpha)
        except NumericalError:
            widths.append(None)
    return widths


def _fork_share(ensemble: SurrogateEnsemble, share: range, mf_config: MfdfaConfig):
    """Fork a child that analyses share and writes its widths, or the
    exception it raised, to a pipe as one pickle; returns its pid and the
    pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's code
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                try:
                    outcome = _share_widths(ensemble, share, mf_config)
                except Exception as exc:
                    outcome = exc
                pickle.dump(outcome, out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _member_widths(ensemble: SurrogateEnsemble, mf_config: MfdfaConfig) -> list[float | None]:
    """Widths of every member in member order, None where MF-DFA failed.

    Member i falls in share i mod W, W = min(CPUs, members). Shares 1..W-1
    run in forked children while this process runs share 0; every child is
    reaped before an error from any share reaches the caller.
    """
    n = len(ensemble)
    n_shares = min(_cpu_count(), n)
    shares = [range(k, n, n_shares) for k in range(n_shares)]
    children = []  # (pid, read end of its pipe), not yet reaped
    try:
        for share in shares[1:]:
            children.append(_fork_share(ensemble, share, mf_config))
        outcomes = [_share_widths(ensemble, shares[0], mf_config)]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status or not data:
                code = os.waitstatus_to_exitcode(status)
                outcomes.append(RuntimeError(
                    f"surrogate worker {pid} ended without a result (exit status {code})"))
            else:
                outcomes.append(pickle.loads(data))
    finally:
        if children:
            import signal  # only here: a clean run never kills a child

            for pid, pipe in children:
                pipe.close()
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    widths: list[float | None] = [None] * n
    for share, outcome in zip(shares, outcomes):
        if isinstance(outcome, Exception):
            raise outcome
        for i, width in zip(share, outcome):
            widths[i] = width
    return widths


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
    # the original first: its surface fills the detrending-operator cache
    # that forked children inherit
    _, _, spectrum = analyze_segment(x, mf_config)
    members = _member_widths(make_ensemble(x, kind, n, seed), mf_config)
    widths = [w for w in members if w is not None]
    n_failed = n - len(widths)
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
