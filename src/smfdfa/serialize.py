"""Deterministic CSV and JSON emission for analysis products.

This module owns the JSON and CSV shape of every result object: it alone
maps results to JSON documents and CSV rows, so no result class has a
to_dict. MF-DFA results carry no segment label; the MF-DFA row builders
take it as their first argument.

All writers produce byte-identical files for identical inputs: fixed
column orders, shortest-roundtrip float repr, sorted JSON keys, no
timestamps or environment-dependent content. NaN cells become empty CSV
fields and JSON nulls (JSON has no NaN).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from itertools import count, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .changepoint import ChangePointResult
from .forecast import ForecastReport
from .mfdfa import FluctuationSurface, HurstCurve, SingularitySpectrum, StructuredReport
from .series import DescriptiveStats, OutlierCensus
from .surrogate import SurrogateComparison


def clean(obj):
    """Recursively make an object JSON-safe: numpy scalars/arrays to
    Python, NaN and infinities to None, tuples to lists."""
    if isinstance(obj, dict):
        return {k: clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(clean(obj), sort_keys=True, indent=2) + "\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows whose cells are strings, numbers, booleans or
    None. csv.writer writes None as an empty field and a float by its
    shortest round-trip repr; the row builders give NaN as None, since
    csv.writer would write it as "nan"."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# The *_rows builders are generators, so a --format json run builds no CSV
# rows. They build each numeric column whole, as Python scalars.


def _floats(values) -> list:
    """A column of floats (None allowed) as Python floats, with NaN and None
    as None: an empty CSV field."""
    x = np.asarray(values, dtype=float)
    out = x.tolist()
    for i in np.flatnonzero(np.isnan(x)).tolist():
        out[i] = None
    return out


def _with_floats(rows: Iterable[Sequence], columns: Sequence[int]) -> Iterator[tuple]:
    """rows with the cells of the given columns passed through _floats."""
    table = [list(column) for column in zip(*rows)]
    for k in columns if table else ():
        table[k] = _floats(table[k])
    return zip(*table)


def surface_rows(label: str, surface: FluctuationSurface) -> Iterator[tuple]:
    """Long format: one row per (q, s) cell."""
    n_q, n_s = surface.phi.shape
    yield from zip(repeat(label), _floats(np.repeat(surface.q_grid, n_s)),
                   np.tile(surface.scale_grid, n_q).astype(int).tolist(),
                   _floats(surface.phi.ravel()),
                   np.tile(surface.n_windows, n_q).astype(int).tolist())


SURFACE_HEADER = ("segment", "q", "s", "phi", "n_windows")


def hurst_rows(label: str, curve: HurstCurve) -> Iterator[tuple]:
    yield from zip(repeat(label), *map(_floats, (curve.q_grid, curve.rho, curve.stderr,
                                                 curve.r_squared)))


HURST_HEADER = ("segment", "q", "rho", "stderr", "r_squared")


def spectrum_rows(label: str, spec: SingularitySpectrum) -> Iterator[tuple]:
    yield from zip(repeat(label), *map(_floats, (spec.q_grid, spec.tau, spec.alpha,
                                                 spec.f_alpha)))


SPECTRUM_HEADER = ("segment", "q", "tau", "alpha", "f_alpha")


def spectrum_to_dict(spec: SingularitySpectrum) -> dict:
    return {
        "q": list(spec.q_grid),
        "tau": list(spec.tau),
        "alpha": list(spec.alpha),
        "f_alpha": list(spec.f_alpha),
        "delta_alpha": spec.delta_alpha,
        "alpha_monotone": spec.alpha_monotone,
    }


def hurst_to_dict(curve: HurstCurve) -> dict:
    return {
        "q": list(curve.q_grid),
        "rho": list(curve.rho),
        "stderr": list(curve.stderr),
        "r_squared": list(curve.r_squared),
    }


def changepoints_to_dict(result: ChangePointResult, timestamps=None) -> dict:
    out = {
        "breaks": list(result.breaks),
        "break_offsets": list(result.offsets),
        "segment_costs": list(result.segment_costs),
        "total_cost": result.total_cost,
        "n": result.n,
        "config": asdict(result.config_used),
    }
    if timestamps is not None:
        out["break_timestamps"] = [str(timestamps[b]) for b in result.offsets]
    return out


def changepoint_rows(result: ChangePointResult, timestamps) -> Iterator[tuple]:
    return ((i + 1, h, h - 1, str(timestamps[h - 1])) for i, h in enumerate(result.breaks))


CHANGEPOINT_HEADER = ("break_number", "first_index_of_new_regime", "offset", "timestamp")


def stats_to_dict(stats: DescriptiveStats, outliers: OutlierCensus) -> dict:
    return {"descriptive": asdict(stats), "outliers": asdict(outliers)}


def segment_entries(report: StructuredReport) -> list[dict]:
    """One record per regime, naming both its MF-DFA and GPH failures, with
    mfdfa's hurst and spectrum documents (None where it was not analysed)."""
    return [
        {
            "label": seg.label, "start": seg.start, "stop": seg.stop,
            "delta_alpha": seg.spectrum.delta_alpha if seg.spectrum else None,
            "d_hat": seg.d_hat, "d_stderr": seg.d_stderr, "hurst_dfa": seg.hurst_dfa,
            "skipped_reason": "; ".join(filter(None, (seg.skipped_reason, seg.gph_failure)))
            or None,
            "hurst": hurst_to_dict(seg.hurst) if seg.hurst else None,
            "spectrum": spectrum_to_dict(seg.spectrum) if seg.spectrum else None,
        }
        for seg in report.segments
    ]


def segment_rows(entries: Sequence[dict]) -> Iterator[tuple]:
    yield from _with_floats(map(itemgetter(*SEGMENTS_HEADER), entries), (3, 4, 5))


SEGMENTS_HEADER = ("label", "start", "stop", "delta_alpha", "d_hat", "hurst_dfa",
                   "skipped_reason")


def surrogate_to_dict(cmp_: SurrogateComparison, mf_config: dict) -> dict:
    return {**asdict(cmp_), "mf_config": mf_config}


def surrogate_skipped_to_dict(kind: str, n: int, reason: str) -> dict:
    """The surrogate entry of a test that could not run, and why."""
    return {"kind": kind, "n": n, "skipped_reason": reason}


def surrogate_rows(cmp_: SurrogateComparison) -> Iterator[tuple]:
    yield from zip(count(), _floats(cmp_.surrogate_delta_alphas))


SURROGATE_HEADER = ("index", "delta_alpha")


FORECAST_HEADER = (
    "segment", "method", "d_used", "mape", "seed", "n_eval", "start", "stop", "skipped_reason",
    "stop_reason", "iterations", "best_step",
)


_forecast_fields = attrgetter("segment_label", "method", "d_used", "mape", "seed", "n_eval",
                              "start", "stop", "skipped_reason", "stop_reason", "iterations",
                              "best_step")


def forecast_rows(report: ForecastReport) -> Iterator[tuple]:
    yield from _with_floats(map(_forecast_fields, report.rows), (2, 3))


def fitted_rows(report: ForecastReport) -> Iterator[tuple]:
    """One row per scored observation of every row that was not skipped."""
    for r in report.rows:
        if r.fitted is not None:
            yield from zip(repeat(r.segment_label), repeat(r.method), repeat(r.seed),
                           count(r.eval_start), _floats(r.actual), _floats(r.fitted))


FITTED_HEADER = ("segment", "method", "seed", "index", "actual", "fitted")


def forecast_report_to_dict(report: ForecastReport) -> dict:
    return {
        "rows": [dict(zip(FORECAST_HEADER, _forecast_fields(r))) for r in report.rows],
        "aggregate": report.aggregate(),
    }


SERIES_CHUNK = 2**14  # rows whose date strings exist at once


def series_rows(timestamps: np.ndarray, values: np.ndarray) -> Iterator[tuple]:
    """A dated price series as the loader reads it: ISO dates, one value each.
    The cells are built a chunk of rows at a time, since a date as a NumPy
    string takes 112 bytes."""
    for start in range(0, len(values), SERIES_CHUNK):
        stop = start + SERIES_CHUNK
        yield from zip(timestamps[start:stop].astype(str).tolist(), _floats(values[start:stop]))


SERIES_HEADER = ("date", "price")
