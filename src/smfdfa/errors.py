"""Exception types shared across the package, and the array check that
raises one."""

import numpy as np


class InputError(ValueError):
    """Raised for bad user-facing input: files, columns, malformed or
    out-of-domain values, invalid option combinations."""


class NumericalError(ArithmeticError):
    """Raised when a computation fails on admissible input, e.g. singular
    negative moments, degenerate spectra, or divergent training."""


def finite_1d(values) -> np.ndarray:
    """values as a 1-d float array; InputError when it has another shape or
    holds a NaN or an infinity."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise InputError(f"expected a 1-d array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError(f"non-finite value at index {int(np.flatnonzero(~np.isfinite(x))[0])}")
    return x
