"""Command-line orchestration.

Subcommands: analyze (full structured pipeline), changepoints, mfdfa
(whole-series analysis), surrogate, forecast, synth. Every run writes a
manifest.json recording the command, input, fully resolved configuration,
seed, package version and output files; identical invocations produce
byte-identical outputs. Exit codes: 0 success, 2 input or usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .changepoint import ChangePointConfig, detect_multiple
from .errors import InputError, NumericalError
from .forecast import pipeline_compare
from .longmemory import MIN_HURST_LENGTH, arfima_generate, fgn_generate, gph_estimate, hurst_dfa
from .mfdfa import MfdfaConfig, SegmentReport, analyze_segment, generate_cascade, s_mfdfa
from .serialize import (
    CHANGEPOINT_HEADER,
    FORECAST_HEADER,
    HURST_HEADER,
    SPECTRUM_HEADER,
    SURFACE_HEADER,
    changepoint_rows,
    forecast_report_to_dict,
    forecast_rows,
    hurst_rows,
    spectrum_rows,
    stats_to_dict,
    structured_report_to_dict,
    surface_rows,
    surrogate_to_dict,
    write_csv,
    write_json,
)
from .series import CsvConfig, describe, load_csv, outlier_census, to_fluctuations
from .surrogate import surrogate_test

SYNTH_START_DATE = np.datetime64("2000-01-01")
# every key a --config file may hold; one set for all subcommands, so that
# one file serves every command
CONFIG_KEYS = frozenset({
    "q_grid", "scale_grid", "detrend_order", "regression_range", "penalty",
    "max_breaks", "min_segment", "cp_method", "p", "hidden_units",
})


@dataclass(frozen=True)
class RunManifest:
    """Record of one CLI run: enough to reproduce its outputs exactly."""

    command: str
    input: str | None
    config: dict
    seed: int
    format: str
    version: str
    outputs: tuple[str, ...]


def _add_common(p: argparse.ArgumentParser, needs_input: bool = True):
    if needs_input:
        p.add_argument("input", help="input CSV path")
        p.add_argument("--date-column", default=None)
        p.add_argument("--value-column", default=None)
        p.add_argument("--date-format", default=None)
    p.add_argument("--out", default="smfdfa_out", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON file overriding analysis defaults")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_mf_flags(p: argparse.ArgumentParser):
    p.add_argument("--detrend-order", type=int, default=None)
    p.add_argument(
        "--transform",
        choices=("returns", "values"),
        default="returns",
        help="analyze absolute log returns of the column, or its raw values",
    )


def _add_cp_flags(p: argparse.ArgumentParser):
    p.add_argument("--penalty", type=float, default=None)
    p.add_argument("--min-segment", type=int, default=None)
    p.add_argument("--max-breaks", type=int, default=None)
    p.add_argument("--cp-method", choices=("exact-dp", "binary-segmentation"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smfdfa")
    parser.add_argument("--version", action="version", version=f"smfdfa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline: stats, breaks, per-segment spectra")
    _add_common(p)
    # no --transform: analyze always segments the fluctuation series
    p.add_argument("--detrend-order", type=int, default=None)
    _add_cp_flags(p)
    p.add_argument("--surrogates", type=int, default=0, help="surrogate count (0 disables)")
    p.add_argument("--surrogate-kind", choices=("shuffle", "phase"), default="shuffle")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("changepoints", help="change-point detection only")
    _add_common(p)
    _add_cp_flags(p)
    p.add_argument(
        "--transform", choices=("returns", "values"), default="returns",
        help="detect on absolute log returns, or on the raw values",
    )
    p.set_defaults(handler=cmd_changepoints)

    p = sub.add_parser("mfdfa", help="whole-series MF-DFA, no segmentation")
    _add_common(p)
    _add_mf_flags(p)
    p.set_defaults(handler=cmd_mfdfa)

    p = sub.add_parser("surrogate", help="spectrum-width surrogate comparison")
    _add_common(p)
    _add_mf_flags(p)
    p.add_argument("--kind", choices=("shuffle", "phase"), default="shuffle")
    p.add_argument("--n", type=int, default=20, help="number of surrogates")
    p.set_defaults(handler=cmd_surrogate)

    p = sub.add_parser("forecast", help="FD-NAR vs LFD-NAR comparison")
    _add_common(p)
    _add_cp_flags(p)
    p.add_argument("--method", choices=("both", "fd", "lfd"), default="both")
    p.add_argument(
        "--breaks", default="auto",
        help="'auto' (detect), 'none', or 'manual:i,j,...' (0-based value offsets)",
    )
    p.add_argument("--p", type=int, default=None, help="autoregressive lags")
    p.add_argument("--hidden", type=int, default=None, help="hidden units")
    p.add_argument("--scale", choices=("levels", "differenced"), default="levels")
    p.add_argument("--evaluation", choices=("in-sample", "holdout"), default="in-sample",
                   help="score the training window, or only a held-out final 20%%")
    p.set_defaults(handler=cmd_forecast)

    p = sub.add_parser("synth", help="write a synthetic series CSV")
    _add_common(p, needs_input=False)
    p.add_argument("kind", choices=("cascade", "fgn", "arfima", "step"))
    p.add_argument("--b1", type=float, default=0.75, help="cascade: larger weight")
    p.add_argument("--b2", type=float, default=0.25, help="cascade: smaller weight")
    p.add_argument("--levels", type=int, default=14, help="cascade: dyadic depth")
    p.add_argument("--shuffle", action="store_true", help="cascade: randomize left/right")
    p.add_argument("--hurst", type=float, default=0.7, help="fgn: Hurst exponent")
    p.add_argument("--d", type=float, default=0.3, help="arfima: integration order")
    p.add_argument("--n", type=int, default=4096, help="fgn/arfima/step: length")
    p.add_argument("--sigma", type=float, default=1.0, help="fgn/arfima/step: noise scale")
    p.add_argument("--break-at", type=int, default=None, help="step: 0-based shift offset")
    p.add_argument("--shift", type=float, default=3.0, help="step: mean shift")
    p.add_argument("--offset", type=float, default=0.0, help="constant added to the values")
    p.set_defaults(handler=cmd_synth)
    return parser


def _load_config_file(args) -> dict:
    if not args.config:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise InputError(
            "; ".join(f"config key {key!r} is not known" for key in unknown)
            + f" (known keys: {', '.join(sorted(CONFIG_KEYS))})"
        )
    return cfg


def _checked(key: str, value, convert):
    """convert(value) for a config-file value; a malformed value is an input
    error that names its key."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"config key {key!r} has a bad value {value!r}: {exc}") from exc


def _number(value):
    """A JSON number, kept as given so the config echo shows it unchanged."""
    if not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return value


def _pick(flag_value, file_cfg: dict, key: str, default, convert=lambda v: v):
    if flag_value is not None:
        return flag_value
    if file_cfg.get(key) is not None:
        return _checked(key, file_cfg[key], convert)
    return default


def _grid(file_cfg: dict, key: str, convert, default=None):
    """A config-file list as a tuple of convert(item); absent or empty means default."""
    items = file_cfg.get(key)
    return _checked(key, items, lambda v: tuple(convert(x) for x in v)) if items else default


def _mf_config(args, file_cfg: dict) -> MfdfaConfig:
    return MfdfaConfig(
        q_grid=_grid(file_cfg, "q_grid", float, MfdfaConfig().q_grid),
        scale_grid=_grid(file_cfg, "scale_grid", int),
        detrend_order=_pick(args.detrend_order, file_cfg, "detrend_order", 1, int),
        regression_range=_grid(file_cfg, "regression_range", _number),
    )


def _cp_config(args, file_cfg: dict) -> ChangePointConfig:
    return ChangePointConfig(
        penalty=_pick(args.penalty, file_cfg, "penalty", None, _number),
        max_breaks=_pick(args.max_breaks, file_cfg, "max_breaks", None, int),
        min_segment=_pick(args.min_segment, file_cfg, "min_segment", 32, int),
        method=_pick(args.cp_method, file_cfg, "cp_method", "exact-dp"),
    )


def _load_series(args):
    path = Path(args.input)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    cfg = CsvConfig(
        date_column=args.date_column or "date",
        value_column=args.value_column or "price",
        date_format=args.date_format,
    )
    return load_csv(path, cfg)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(args, out: Path, config_snapshot: dict, outputs: list[str]):
    manifest = RunManifest(
        command=args.command,
        input=getattr(args, "input", None),
        config=config_snapshot,
        seed=args.seed,
        format=args.format,
        version=__version__,
        outputs=tuple(sorted(outputs)),
    )
    write_json(out / "manifest.json", asdict(manifest))


def _analysis_values(args, series) -> np.ndarray:
    if args.transform == "values":
        return series.values
    return to_fluctuations(series)


def _segment_hurst(seg: SegmentReport, values: np.ndarray, cfg: MfdfaConfig) -> float | None:
    """DFA Hurst exponent of one regime: the q = 2 slope of its own MF-DFA
    (the classical DFA exponent), or a q = 2 DFA pass when the q grid lacks
    2 or the regime was too short for a spectrum. None for regimes shorter
    than MIN_HURST_LENGTH."""
    if values.size < MIN_HURST_LENGTH:
        return None
    if seg.hurst is not None and 2.0 in cfg.q_grid:
        return float(seg.hurst.rho[cfg.q_grid.index(2.0)])
    try:
        return hurst_dfa(values, cfg)
    except (InputError, NumericalError):
        return None


def cmd_analyze(args) -> int:
    file_cfg = _load_config_file(args)
    series = _load_series(args)
    mf_cfg = _mf_config(args, file_cfg)
    cp_cfg = _cp_config(args, file_cfg)
    out = _outdir(args)

    flucts = to_fluctuations(series)
    stats = describe(flucts)
    outliers = outlier_census(flucts)
    report = s_mfdfa(series, cp_cfg, mf_cfg)

    segment_entries = []
    for seg in report.segments:
        entry = {"label": seg.label, "start": seg.start, "stop": seg.stop}
        reasons = [seg.skipped_reason] if seg.skipped_reason else []
        seg_vals = flucts[seg.start : seg.stop]
        # a regime whose MF-DFA failed numerically (e.g. a flat one) reports
        # no long-memory estimate; GPH still runs so that its failure is named
        degenerate = (seg.skipped_reason or "").startswith("numerical")
        entry["d_hat"] = entry["d_stderr"] = None
        try:
            est = gph_estimate(seg_vals)
            if not degenerate:
                entry["d_hat"] = est.d_hat
                entry["d_stderr"] = est.stderr
        except InputError:
            pass
        except NumericalError as exc:
            reasons.append(f"numerical: gph: {exc}")
        entry["hurst_dfa"] = None if degenerate else _segment_hurst(seg, seg_vals, mf_cfg)
        entry["delta_alpha"] = seg.spectrum.delta_alpha if seg.spectrum else None
        entry["skipped_reason"] = "; ".join(reasons) or None
        segment_entries.append(entry)

    comparison = None
    if args.surrogates:
        comparison = surrogate_test(
            flucts, args.surrogate_kind, args.surrogates, mf_cfg, args.seed
        )

    doc = {
        "series": series.label,
        "n": int(series.values.size),
        "stats": stats_to_dict(stats, outliers),
        "structured": structured_report_to_dict(report),
        "segments": segment_entries,
        "surrogate": surrogate_to_dict(comparison, asdict(mf_cfg)) if comparison else None,
        "config": {"mfdfa": asdict(mf_cfg), "changepoint": asdict(cp_cfg)},
    }
    outputs = ["report.json"]
    write_json(out / "report.json", doc)
    if args.format == "csv":
        analyzed = [s for s in report.segments if s.spectrum is not None]
        write_csv(out / "surfaces.csv", SURFACE_HEADER,
                  [r for s in analyzed for r in surface_rows(s.surface)])
        write_csv(out / "hurst.csv", HURST_HEADER,
                  [r for s in analyzed for r in hurst_rows(s.hurst)])
        write_csv(out / "spectra.csv", SPECTRUM_HEADER,
                  [r for s in analyzed for r in spectrum_rows(s.spectrum)])
        write_csv(out / "changepoints.csv", CHANGEPOINT_HEADER,
                  changepoint_rows(report.changepoints, series.timestamps[1:]))
        write_csv(out / "segments.csv",
                  ("label", "start", "stop", "delta_alpha", "d_hat", "hurst_dfa", "skipped_reason"),
                  [(e["label"], e["start"], e["stop"], e["delta_alpha"], e["d_hat"],
                    e["hurst_dfa"], e["skipped_reason"]) for e in segment_entries])
        outputs += ["surfaces.csv", "hurst.csv", "spectra.csv", "changepoints.csv", "segments.csv"]
        if comparison:
            write_csv(out / "surrogate.csv", ("index", "delta_alpha"),
                      list(enumerate(comparison.surrogate_delta_alphas)))
            outputs.append("surrogate.csv")
    _write_manifest(args, out, doc["config"], outputs)

    print(f"series {series.label}: n={series.values.size}, "
          f"{report.changepoints.n_breaks} break(s) at offsets "
          f"{[int(o) for o in report.changepoints.offsets]}")
    print(f"{'segment':<24} {'start':>6} {'stop':>6} {'d_alpha':>8} {'d_hat':>8} {'hurst':>7}")
    for e in segment_entries:
        da = f"{e['delta_alpha']:.3f}" if e["delta_alpha"] is not None else "-"
        dh = f"{e['d_hat']:.3f}" if e["d_hat"] is not None else "-"
        hu = f"{e['hurst_dfa']:.3f}" if e["hurst_dfa"] is not None else "-"
        print(f"{e['label']:<24} {e['start']:>6} {e['stop']:>6} {da:>8} {dh:>8} {hu:>7}")
    if comparison:
        print(f"surrogate({comparison.kind}, n={len(comparison.surrogate_delta_alphas)}): "
              f"original delta_alpha={comparison.original_delta_alpha:.3f} "
              f"quantile={comparison.quantile:.3f}")
    return 0


def cmd_changepoints(args) -> int:
    file_cfg = _load_config_file(args)
    series = _load_series(args)
    cp_cfg = _cp_config(args, file_cfg)
    out = _outdir(args)
    if args.transform == "values":
        values, timestamps = series.values, series.timestamps
    else:
        values = to_fluctuations(series)
        # fluctuation i is the return realized at observation i + 1
        timestamps = series.timestamps[1:]
    result = detect_multiple(values, cp_cfg)
    outputs = ["changepoints.json"]
    write_json(out / "changepoints.json", result.to_dict(timestamps))
    if args.format == "csv":
        write_csv(out / "changepoints.csv", CHANGEPOINT_HEADER,
                  changepoint_rows(result, timestamps))
        outputs.append("changepoints.csv")
    _write_manifest(args, out, asdict(result.config_used), outputs)
    print(f"{result.n_breaks} break(s); offsets {[int(o) for o in result.offsets]}; "
          f"total cost {result.total_cost:.6g}")
    return 0


def cmd_mfdfa(args) -> int:
    file_cfg = _load_config_file(args)
    series = _load_series(args)
    mf_cfg = _mf_config(args, file_cfg)
    out = _outdir(args)
    values = _analysis_values(args, series)
    surface, curve, spectrum = analyze_segment(values, mf_cfg, label=series.label)
    doc = {
        "series": series.label,
        "n": int(values.size),
        "transform": args.transform,
        "hurst": {"q": list(curve.q_grid), "rho": list(curve.rho), "stderr": list(curve.stderr),
                  "r_squared": list(curve.r_squared)},
        "spectrum": {"q": list(spectrum.q_grid), "tau": list(spectrum.tau),
                     "alpha": list(spectrum.alpha), "f_alpha": list(spectrum.f_alpha),
                     "delta_alpha": spectrum.delta_alpha,
                     "alpha_monotone": spectrum.alpha_monotone},
        "config": asdict(mf_cfg),
    }
    outputs = ["report.json"]
    write_json(out / "report.json", doc)
    if args.format == "csv":
        write_csv(out / "surface.csv", SURFACE_HEADER, surface_rows(surface))
        write_csv(out / "hurst.csv", HURST_HEADER, hurst_rows(curve))
        write_csv(out / "spectrum.csv", SPECTRUM_HEADER, spectrum_rows(spectrum))
        outputs += ["surface.csv", "hurst.csv", "spectrum.csv"]
    _write_manifest(args, out, doc["config"], outputs)
    print(f"series {series.label}: n={values.size}, delta_alpha={spectrum.delta_alpha:.4f}, "
          f"rho(min q)={curve.rho[0]:.4f}, rho(max q)={curve.rho[-1]:.4f}")
    return 0


def cmd_surrogate(args) -> int:
    file_cfg = _load_config_file(args)
    series = _load_series(args)
    mf_cfg = _mf_config(args, file_cfg)
    out = _outdir(args)
    values = _analysis_values(args, series)
    comparison = surrogate_test(values, args.kind, args.n, mf_cfg, args.seed)
    doc = surrogate_to_dict(comparison, asdict(mf_cfg))
    outputs = ["surrogate.json"]
    write_json(out / "surrogate.json", doc)
    if args.format == "csv":
        write_csv(out / "surrogate.csv", ("index", "delta_alpha"),
                  list(enumerate(comparison.surrogate_delta_alphas)))
        outputs.append("surrogate.csv")
    _write_manifest(args, out, {"mfdfa": doc["mf_config"], "kind": args.kind, "n": args.n},
                    outputs)
    print(f"original delta_alpha={comparison.original_delta_alpha:.4f}, "
          f"quantile={comparison.quantile:.3f} over {len(comparison.surrogate_delta_alphas)} "
          f"surrogates ({comparison.n_failed} failed)")
    return 0


def _parse_breaks(args, series, cp_cfg) -> list[int]:
    spec_str = args.breaks
    if spec_str == "none":
        return []
    if spec_str == "auto":
        result = detect_multiple(to_fluctuations(series), cp_cfg)
        # fluctuation offset f marks the first fluctuation of a new regime,
        # which is driven by the value at position f + 1
        return [f + 1 for f in result.offsets]
    if spec_str.startswith("manual:"):
        body = spec_str[len("manual:"):]
        try:
            return [int(tok) for tok in body.split(",") if tok != ""]
        except ValueError as exc:
            raise InputError(f"cannot parse break list {body!r}") from exc
    raise InputError(f"--breaks must be 'auto', 'none' or 'manual:i,j,...', got {spec_str!r}")


def cmd_forecast(args) -> int:
    file_cfg = _load_config_file(args)
    series = _load_series(args)
    cp_cfg = _cp_config(args, file_cfg)
    out = _outdir(args)
    breaks = _parse_breaks(args, series, cp_cfg)
    methods = {"both": ("FD-NAR", "LFD-NAR"), "fd": ("FD-NAR",), "lfd": ("LFD-NAR",)}[args.method]
    p = _pick(args.p, file_cfg, "p", 5, int)
    hidden = _pick(args.hidden, file_cfg, "hidden_units", 20, int)
    report = pipeline_compare(
        series, breaks, p=p, hidden_units=hidden, seeds=(args.seed,),
        scale=args.scale, methods=methods, evaluation=args.evaluation, keep_fitted=True,
    )
    config_snapshot = {
        "p": p, "hidden_units": hidden, "scale": args.scale, "methods": list(methods),
        "breaks": breaks, "evaluation": args.evaluation,
        "changepoint": asdict(cp_cfg),
    }
    doc = forecast_report_to_dict(report)
    doc["config"] = config_snapshot
    outputs = ["report.json"]
    write_json(out / "report.json", doc)
    if args.format == "csv":
        write_csv(out / "forecast.csv", FORECAST_HEADER, forecast_rows(report))
        fitted_rows = [
            (r.segment_label, r.method, r.seed, r.eval_start + i, a_i, f_i)
            for r in report.rows if r.fitted is not None
            for i, (a_i, f_i) in enumerate(zip(r.actual, r.fitted))
        ]
        write_csv(out / "fitted.csv",
                  ("segment", "method", "seed", "index", "actual", "fitted"), fitted_rows)
        outputs += ["forecast.csv", "fitted.csv"]
    _write_manifest(args, out, config_snapshot, outputs)
    for method, value in sorted(report.aggregate().items()):
        print(f"{method}: mean MAPE {value:.4f}% over "
              f"{sum(1 for r in report.rows if r.method == method and not r.skipped_reason)} "
              f"segment row(s)")
    return 0


def cmd_synth(args) -> int:
    out = _outdir(args)
    rng_seed = args.seed
    if args.kind == "cascade":
        values = generate_cascade(
            args.b1, args.b2, args.levels, shuffle_seed=rng_seed if args.shuffle else None
        )
        params = {"kind": "cascade", "b1": args.b1, "b2": args.b2, "levels": args.levels,
                  "shuffle": bool(args.shuffle)}
    elif args.kind == "fgn":
        values = fgn_generate(args.n, args.hurst, rng_seed, sigma=args.sigma)
        params = {"kind": "fgn", "hurst": args.hurst, "n": args.n, "sigma": args.sigma}
    elif args.kind == "arfima":
        values = arfima_generate(args.d, args.n, rng_seed, sigma=args.sigma)
        params = {"kind": "arfima", "d": args.d, "n": args.n, "sigma": args.sigma}
    else:
        if args.n < 4:
            raise InputError(f"step series needs n >= 4, got {args.n}")
        at = args.break_at if args.break_at is not None else args.n // 2
        if not 1 <= at < args.n:
            raise InputError(f"--break-at must lie in [1, {args.n - 1}], got {at}")
        rng = np.random.default_rng(rng_seed)
        values = rng.standard_normal(args.n) * args.sigma
        values[at:] += args.shift
        params = {"kind": "step", "n": args.n, "break_at": at, "shift": args.shift,
                  "sigma": args.sigma}
    values = values + args.offset
    params["offset"] = args.offset
    dates = SYNTH_START_DATE + np.arange(values.size)
    write_csv(out / "series.csv", ("date", "price"),
              [(str(d), float(v)) for d, v in zip(dates, values)])
    _write_manifest(args, out, params, ["series.csv"])
    print(f"wrote {values.size} rows of kind {args.kind!r} to {out / 'series.csv'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
