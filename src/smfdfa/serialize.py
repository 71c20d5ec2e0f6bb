"""Deterministic CSV and JSON emission for analysis products.

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
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .changepoint import ChangePointResult
from .forecast import ForecastReport
from .mfdfa import FluctuationSurface, HurstCurve, SingularitySpectrum, StructuredReport
from .series import DescriptiveStats, OutlierCensus
from .surrogate import SurrogateComparison


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return ""
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    return str(v)


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


# The *_rows builders are generators: a --format json run builds no CSV rows.


def surface_rows(surface: FluctuationSurface) -> Iterator[tuple]:
    """Long format: one row per (q, s) cell."""
    for i, q in enumerate(surface.q_grid):
        for j, s in enumerate(surface.scale_grid):
            yield (surface.segment_label, float(q), int(s), float(surface.phi[i, j]),
                   int(surface.n_windows[j]))


SURFACE_HEADER = ("segment", "q", "s", "phi", "n_windows")


def hurst_rows(curve: HurstCurve) -> Iterator[tuple]:
    return (
        (curve.segment_label, float(q), float(r), float(e), float(r2))
        for q, r, e, r2 in zip(curve.q_grid, curve.rho, curve.stderr, curve.r_squared)
    )


HURST_HEADER = ("segment", "q", "rho", "stderr", "r_squared")


def spectrum_rows(spec: SingularitySpectrum) -> Iterator[tuple]:
    return (
        (spec.segment_label, float(q), float(t), float(a), float(f))
        for q, t, a, f in zip(spec.q_grid, spec.tau, spec.alpha, spec.f_alpha)
    )


SPECTRUM_HEADER = ("segment", "q", "tau", "alpha", "f_alpha")


def spectrum_to_dict(spec: SingularitySpectrum) -> dict:
    return {
        "segment": spec.segment_label,
        "q": list(spec.q_grid),
        "tau": list(spec.tau),
        "alpha": list(spec.alpha),
        "f_alpha": list(spec.f_alpha),
        "delta_alpha": spec.delta_alpha,
        "alpha_monotone": spec.alpha_monotone,
    }


def hurst_to_dict(curve: HurstCurve) -> dict:
    return {
        "segment": curve.segment_label,
        "q": list(curve.q_grid),
        "rho": list(curve.rho),
        "stderr": list(curve.stderr),
        "r_squared": list(curve.r_squared),
    }


def changepoint_rows(result: ChangePointResult, timestamps=None) -> Iterator[tuple]:
    return (
        (i + 1, h, h - 1, str(timestamps[h - 1]) if timestamps is not None else None)
        for i, h in enumerate(result.breaks)
    )


CHANGEPOINT_HEADER = ("break_number", "first_index_of_new_regime", "offset", "timestamp")


def stats_to_dict(stats: DescriptiveStats, outliers: OutlierCensus | None = None) -> dict:
    out = {"descriptive": asdict(stats)}
    if outliers is not None:
        out["outliers"] = asdict(outliers)
    return out


def structured_report_to_dict(report: StructuredReport) -> dict:
    segments = []
    for seg in report.segments:
        entry: dict = {
            "label": seg.label,
            "start": seg.start,
            "stop": seg.stop,
            "skipped_reason": seg.skipped_reason,
        }
        if seg.spectrum is not None:
            entry["delta_alpha"] = seg.spectrum.delta_alpha
            entry["spectrum"] = spectrum_to_dict(seg.spectrum)
            entry["hurst"] = hurst_to_dict(seg.hurst)
        segments.append(entry)
    return {
        "series": report.series_label,
        "changepoints": report.changepoints.to_dict(),
        "segments": segments,
    }


def surrogate_to_dict(cmp_: SurrogateComparison, mf_config_echo: dict | None = None) -> dict:
    out = cmp_.to_dict()
    if mf_config_echo is not None:
        out["mf_config"] = mf_config_echo
    return out


FORECAST_HEADER = (
    "segment", "method", "d_used", "mape", "seed", "n_eval", "start", "stop", "skipped_reason",
)


def forecast_rows(report: ForecastReport) -> Iterator[tuple]:
    return (
        (r.segment_label, r.method, r.d_used, r.mape, r.seed, r.n_eval, r.start, r.stop,
         r.skipped_reason)
        for r in report.rows
    )


def forecast_report_to_dict(report: ForecastReport) -> dict:
    return {
        "scale": report.scale,
        "rows": [r.to_dict() for r in report.rows],
        "aggregate": report.aggregate(),
    }
