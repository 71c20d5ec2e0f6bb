"""Benchmark workloads: seeded inputs, CLI argument lists and output checks.

Inputs are generated here with plain NumPy, never with smfdfa's own
generators, so a change to the package cannot change what it is fed.
Every workload has a full size (the measured one) and a toy size (the
harness self-test).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

START_DATE = np.datetime64("2000-01-01")


def write_price_csv(path: Path, values: np.ndarray) -> None:
    """date,price CSV with consecutive daily dates and round-trip floats."""
    dates = START_DATE + np.arange(values.size)
    lines = ["date,price"] + [f"{d},{float(v)!r}" for d, v in zip(dates, values)]
    path.write_text("\n".join(lines) + "\n")


def prices_from_returns(r: np.ndarray) -> np.ndarray:
    return 100.0 * np.exp(np.cumsum(r))


def regime_returns(rng: np.random.Generator, sigmas, regime_len: int) -> np.ndarray:
    return np.concatenate([rng.standard_normal(regime_len) * s for s in sigmas])


def binomial_cascade(rng: np.random.Generator, b1: float, b2: float, levels: int) -> np.ndarray:
    """Randomized binomial measure: each dyadic cell splits b1/b2 in a random order."""
    measure = np.ones(1)
    for _ in range(levels):
        flip = rng.random(measure.size) < 0.5
        left = np.where(flip, b2, b1)
        nxt = np.empty(measure.size * 2)
        nxt[0::2] = measure * left
        nxt[1::2] = measure * (1.0 - left)
        measure = nxt
    return measure


def arfima_returns(rng: np.random.Generator, d: float, n: int, sigma: float,
                   burn: int = 1000) -> np.ndarray:
    """ARFIMA(0,d,0) by its truncated MA(inf) form psi_k = psi_{k-1}(k-1+d)/k."""
    k = np.arange(1, burn + n)
    psi = np.concatenate([[1.0], np.cumprod((k - 1 + d) / k)])
    eps = rng.standard_normal(burn + n) * sigma
    return np.convolve(eps, psi)[burn : burn + n]


@dataclass(frozen=True)
class Prepared:
    """One workload input: the CLI arguments after the input path, the input
    sizes to record (rows = CSV rows), and a checker of the output directory
    that returns a list of problems (empty when the outputs are correct)."""

    argv: list[str]
    sizes: dict
    check: Callable[[Path], list[str]]


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def prepare_analyze_regimes(seed: int, csv_path: Path, toy: bool) -> Prepared:
    rng = np.random.default_rng(seed)
    regime_len = 256 if toy else 2048
    sigmas = (0.005, 0.02, 0.008, 0.03)
    write_price_csv(csv_path, prices_from_returns(regime_returns(rng, sigmas, regime_len)))
    # regime k starts at return k*L, whose fluctuation |r| sits at offset k*L - 1
    planted = [k * regime_len - 1 for k in range(1, len(sigmas))]

    tol = 32  # the CLI's default min_segment

    def check(out: Path) -> list[str]:
        found = _load(out, "report.json")["structured"]["changepoints"]["break_offsets"]
        return [f"planted break {b} not found within {tol} (found {found})"
                for b in planted if not any(abs(f - b) <= tol for f in found)]

    return Prepared(["analyze"], {"rows": regime_len * len(sigmas), "regimes": len(sigmas)},
                    check)


def prepare_surrogate_cascade(seed: int, csv_path: Path, toy: bool) -> Prepared:
    rng = np.random.default_rng(seed)
    b1, b2 = 0.7, 0.3
    # The estimated width of one 2^15-sample realization scatters about
    # log2(b1/b2): over seeds 0-399 the worst miss was 0.19, so 0.3. A
    # 1024-sample toy cascade misses by up to about 0.3 and can lose to a
    # shuffle, so the toy size checks loosely.
    levels, n_surr, tol, min_quantile = (10, 10, 0.5, 0.5) if toy else (15, 40, 0.3, 1.0)
    write_price_csv(csv_path, binomial_cascade(rng, b1, b2, levels))
    expected = math.log2(b1 / b2)

    def check(out: Path) -> list[str]:
        doc = _load(out, "surrogate.json")
        problems = []
        if not abs(doc["original_delta_alpha"] - expected) <= tol:
            problems.append(f"delta_alpha {doc['original_delta_alpha']} not within {tol} "
                            f"of log2(b1/b2) = {expected}")
        if not doc["quantile"] >= min_quantile:
            problems.append(f"quantile {doc['quantile']} below {min_quantile}")
        return problems

    return Prepared(
        ["surrogate", "--transform", "values", "--n", str(n_surr), "--seed", str(seed)],
        {"rows": 2**levels, "surrogates": n_surr},
        check,
    )


def prepare_forecast_memory_switch(seed: int, csv_path: Path, toy: bool) -> Prepared:
    rng = np.random.default_rng(seed)
    regime_len = 150 if toy else 600
    r = np.concatenate([arfima_returns(rng, 0.1, regime_len, 0.01),
                        arfima_returns(rng, 0.4, regime_len, 0.03)])
    write_price_csv(csv_path, prices_from_returns(r))
    extra = ["--hidden", "3"] if toy else []

    def check(out: Path) -> list[str]:
        rows = _load(out, "report.json")["rows"]
        problems = [] if len(rows) == 4 else [f"{len(rows)} forecast rows, expected 4"]
        for row in rows:
            if row["skipped_reason"] is not None:
                problems.append(f"{row['segment']} {row['method']} skipped: "
                                f"{row['skipped_reason']}")
            elif not (isinstance(row["mape"], float) and math.isfinite(row["mape"])):
                problems.append(f"{row['segment']} {row['method']} MAPE {row['mape']}")
        return problems

    return Prepared(
        ["forecast", "--breaks", f"manual:{regime_len}", "--method", "both",
         "--evaluation", "in-sample", *extra],
        {"rows": 2 * regime_len, "regimes": 2},
        check,
    )


WORKLOADS = {
    "analyze_regimes": prepare_analyze_regimes,
    "surrogate_cascade": prepare_surrogate_cascade,
    "forecast_memory_switch": prepare_forecast_memory_switch,
}
