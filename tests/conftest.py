"""Shared test fixtures and helpers.

Expected values in this suite come from three kinds of oracle, marked in
comments next to each assertion:
  [TRIVIAL]  hand arithmetic or an identity that needs no computation
  [DERIVED]  an independent closed form or Monte Carlo measurement,
             frozen here with the generating recipe stated
  [PAPER]    documentation-level values that depend on proprietary data;
             never asserted numerically
"""

from __future__ import annotations

import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from smfdfa import TimeSeries
from smfdfa import fork as fork_module


def make_series(values: np.ndarray, label: str = "test") -> TimeSeries:
    """Wrap raw values with consecutive daily timestamps."""
    values = np.asarray(values, dtype=float)
    ts = np.datetime64("2000-01-01") + np.arange(values.size)
    return TimeSeries(timestamps=ts, values=values, label=label)


def write_price_csv(path: Path, values, start="2000-01-01") -> Path:
    """Write a date,price CSV exactly as the synth command does."""
    dates = np.datetime64(start) + np.arange(len(values))
    lines = ["date,price"] + [f"{d},{float(v)}" for d, v in zip(dates, values)]
    path.write_text("\n".join(lines) + "\n")
    return path


def cpus(count: int):
    """Patch the CPU count fork_map reads, the one place it is read, so that
    surrogate_test and pipeline_compare split their work into `count` shares."""
    return mock.patch.object(fork_module, "_cpu_count", return_value=count)


def assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def integrate_magnitudes(magnitudes: np.ndarray, seed: int = 0, x0: float = 1.0) -> np.ndarray:
    """Build a price path whose absolute log10 returns equal `magnitudes`.

    Signs are random so the log price wanders instead of drifting; the
    fluctuation transform of the result recovers `magnitudes` up to float
    round-trip error.
    """
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=len(magnitudes))
    log_price = np.concatenate([[np.log10(x0)], np.log10(x0) + np.cumsum(signs * magnitudes)])
    return 10.0**log_price


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
