"""Command-line orchestration.

Subcommands: analyze (full structured pipeline), changepoints, mfdfa
(whole-series analysis), surrogate, forecast, synth. main is the one run
path: it loads the --config file and then the input CSV, calls the
subcommand's handler, which only computes, hands the result to one writer,
_emit, and prints the handler's summary once _emit returns. _emit creates
--out, writes the JSON documents, writes the CSV tables unless --format
json, and writes a manifest.json recording the command, input, fully
resolved configuration, seed, format, package version and the sorted names
of exactly the files it wrote. A run that fails before _emit writes
nothing; a write that fails inside --out is an input error naming the file,
and neither manifest.json nor the summary follows it. Identical invocations
produce byte-identical outputs. Exit codes: 0 success, 2 input or usage
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .changepoint import ChangePointConfig, detect_multiple
from .errors import InputError, NumericalError
from .forecast import (
    DEFAULT_HIDDEN,
    DEFAULT_LAGS,
    EVALUATIONS,
    METHOD_FD,
    METHOD_LFD,
    SCALES,
    pipeline_compare,
)
from .longmemory import arfima_generate, fgn_generate
from .mfdfa import MIN_SPECTRUM_Q, MfdfaConfig, analyze_segment, generate_cascade, s_mfdfa
from .serialize import (
    CHANGEPOINT_HEADER,
    FITTED_HEADER,
    FORECAST_HEADER,
    HURST_HEADER,
    SEGMENTS_HEADER,
    SERIES_HEADER,
    SPECTRUM_HEADER,
    SURFACE_HEADER,
    SURROGATE_HEADER,
    changepoint_rows,
    changepoints_to_dict,
    fitted_rows,
    forecast_report_to_dict,
    forecast_rows,
    hurst_rows,
    hurst_to_dict,
    segment_entries,
    segment_rows,
    series_rows,
    spectrum_rows,
    spectrum_to_dict,
    stats_to_dict,
    structured_report_to_dict,
    surface_rows,
    surrogate_rows,
    surrogate_skipped_to_dict,
    surrogate_to_dict,
    write_csv,
    write_json,
)
from .series import CsvConfig, describe, load_csv, outlier_census, to_fluctuations
from .surrogate import KINDS, surrogate_test

SYNTH_START_DATE = np.datetime64("2000-01-01")
# every key a --config file may hold; one set for all subcommands, so that
# one file serves every command
CONFIG_KEYS = frozenset({
    "q_grid", "scale_grid", "detrend_order", "regression_range", "penalty",
    "max_breaks", "min_segment", "p", "hidden_units",
})
Run = tuple[dict, dict, dict, str]  # a handler's (config, docs, tables, summary)


def _add_common(p: argparse.ArgumentParser, reads_input: bool = True):
    if reads_input:
        p.add_argument("input", help="input CSV path")
        p.add_argument("--date-column", default=None)
        p.add_argument("--value-column", default=None)
        p.add_argument("--date-format", default=None)
    p.add_argument("--out", default="smfdfa_out", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    if reads_input:
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
    p.add_argument("--surrogate-kind", choices=KINDS, default="shuffle")
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
    p.add_argument("--kind", choices=KINDS, default="shuffle")
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
    p.add_argument("--scale", choices=SCALES, default="levels")
    p.add_argument("--evaluation", choices=EVALUATIONS, default="in-sample",
                   help="score the training window, or only a held-out final 20%%")
    p.set_defaults(handler=cmd_forecast)

    p = sub.add_parser("synth", help="write a synthetic series CSV")
    _add_common(p, reads_input=False)
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
    # synth has no input, reads no config file and always writes CSV
    p.set_defaults(handler=cmd_synth, input=None, config=None, format="csv")
    return parser


def _load_config_file(args) -> dict:
    if not args.config:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read config file {path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc.strerror}") from exc
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
    """A JSON number, kept as given so the config echo shows it unchanged;
    a boolean or a string is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return value


def _integer(value):
    """A JSON number with an integral value, as an int: a fraction, a
    boolean or a string is rejected, not truncated or parsed."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer")
    return value


def _pick(flag_value, file_cfg: dict, key: str, default, convert):
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
    """The MF-DFA settings of analyze, mfdfa and surrogate, each of which
    needs a spectrum, so a q grid too small for one is an input error."""
    cfg = MfdfaConfig(
        q_grid=_grid(file_cfg, "q_grid", _number, MfdfaConfig.q_grid),
        scale_grid=_grid(file_cfg, "scale_grid", _integer),
        detrend_order=_pick(args.detrend_order, file_cfg, "detrend_order",
                            MfdfaConfig.detrend_order, _integer),
        regression_range=_grid(file_cfg, "regression_range", _number),
    )
    if len(cfg.q_grid) < MIN_SPECTRUM_Q:
        raise InputError(f"spectrum needs a Hurst curve on >= {MIN_SPECTRUM_Q} q points")
    return cfg


def _cp_config(args, file_cfg: dict) -> ChangePointConfig:
    return ChangePointConfig(
        penalty=_pick(args.penalty, file_cfg, "penalty", None, _number),
        max_breaks=_pick(args.max_breaks, file_cfg, "max_breaks", None, _integer),
        min_segment=_pick(args.min_segment, file_cfg, "min_segment",
                          ChangePointConfig.min_segment, _integer),
    )


def _load_series(args):
    if args.input is None:  # synth reads no input
        return None
    cfg = CsvConfig(
        date_column=args.date_column or "date",
        value_column=args.value_column or "price",
        date_format=args.date_format,
    )
    return load_csv(args.input, cfg)


def _emit(args, config: dict, docs: dict, tables: dict) -> None:
    """Write one run's outputs to --out: each JSON document of docs (file
    name -> object), each CSV table of tables (file name -> (header, rows))
    unless --format json, and manifest.json naming exactly those files.
    main calls it once the handler has computed everything, so a run that
    fails before it writes nothing; a failed write is an input error naming
    the file, and writes no manifest. Rows may be lazy, so a JSON-only run
    builds none."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out}: {exc.strerror}") from exc
    tables = tables if args.format == "csv" else {}
    path = out
    try:
        for name, doc in docs.items():
            path = out / name
            write_json(path, doc)
        for name, (header, rows) in tables.items():
            path = out / name
            write_csv(path, header, rows)
        path = out / "manifest.json"
        write_json(path, {
            "command": args.command, "input": args.input, "config": config, "seed": args.seed,
            "format": args.format, "version": __version__, "outputs": sorted([*docs, *tables]),
        })
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def _transformed(series, transform: str = "returns"):
    """(values, timestamps) analysed for series: its raw values, or its
    fluctuations, where fluctuation i is the return realized at
    observation i + 1."""
    if transform == "values":
        return series.values, series.timestamps
    return to_fluctuations(series), series.timestamps[1:]


def cmd_analyze(args, file_cfg: dict, series) -> Run:
    mf_cfg = _mf_config(args, file_cfg)
    cp_cfg = _cp_config(args, file_cfg)

    flucts, timestamps = _transformed(series)
    stats = describe(flucts)
    outliers = outlier_census(flucts)
    report = s_mfdfa(flucts, cp_cfg, mf_cfg, label=series.label)

    comparison = surrogate_doc = None
    if args.surrogates:
        try:  # a flat regime zeroes a window: that skips the test, not the run
            comparison = surrogate_test(flucts, args.surrogate_kind, args.surrogates, mf_cfg,
                                        args.seed)
        except NumericalError as exc:
            surrogate_doc = surrogate_skipped_to_dict(args.surrogate_kind, args.surrogates,
                                                      f"numerical: {exc}")
        else:
            surrogate_doc = surrogate_to_dict(comparison, asdict(mf_cfg))

    config = {"mfdfa": asdict(mf_cfg), "changepoint": asdict(cp_cfg)}
    doc = {
        "series": series.label,
        "n": int(series.values.size),
        "stats": stats_to_dict(stats, outliers),
        "structured": structured_report_to_dict(report),
        "segments": segment_entries(report),
        "surrogate": surrogate_doc,
        "config": config,
    }
    analyzed = [s for s in report.segments if s.spectrum is not None]
    tables = {
        "surfaces.csv": (SURFACE_HEADER,
                         (r for s in analyzed for r in surface_rows(s.label, s.surface))),
        "hurst.csv": (HURST_HEADER, (r for s in analyzed for r in hurst_rows(s.label, s.hurst))),
        "spectra.csv": (SPECTRUM_HEADER,
                        (r for s in analyzed for r in spectrum_rows(s.label, s.spectrum))),
        "changepoints.csv": (CHANGEPOINT_HEADER,
                             changepoint_rows(report.changepoints, timestamps)),
        "segments.csv": (SEGMENTS_HEADER, segment_rows(report)),
    }
    if comparison:
        tables["surrogate.csv"] = (SURROGATE_HEADER, surrogate_rows(comparison))

    lines = [
        f"series {series.label}: n={series.values.size}, "
        f"{report.changepoints.n_breaks} break(s) at offsets "
        f"{list(report.changepoints.offsets)}",
        f"{'segment':<24} {'start':>6} {'stop':>6} {'d_alpha':>8} {'d_hat':>8} {'hurst':>7}",
    ]
    for e in doc["segments"]:
        da, dh, hu = ("-" if e[k] is None else f"{e[k]:.3f}"
                      for k in ("delta_alpha", "d_hat", "hurst_dfa"))
        lines.append(f"{e['label']:<24} {e['start']:>6} {e['stop']:>6} {da:>8} {dh:>8} {hu:>7}")
    if comparison:
        lines.append(f"surrogate({comparison.kind}, n={len(comparison.surrogate_delta_alphas)}): "
                     f"original delta_alpha={comparison.original_delta_alpha:.3f} "
                     f"quantile={comparison.quantile:.3f}")
    elif surrogate_doc:
        lines.append(f"surrogate({args.surrogate_kind}, n={args.surrogates}): skipped, "
                     f"{surrogate_doc['skipped_reason']}")
    return config, {"report.json": doc}, tables, "\n".join(lines)


def cmd_changepoints(args, file_cfg: dict, series) -> Run:
    cp_cfg = _cp_config(args, file_cfg)
    values, timestamps = _transformed(series, args.transform)
    result = detect_multiple(values, cp_cfg)
    return (asdict(result.config_used),
            {"changepoints.json": changepoints_to_dict(result, timestamps)},
            {"changepoints.csv": (CHANGEPOINT_HEADER, changepoint_rows(result, timestamps))},
            f"{result.n_breaks} break(s); offsets {list(result.offsets)}; "
            f"total cost {result.total_cost:.6g}")


def cmd_mfdfa(args, file_cfg: dict, series) -> Run:
    mf_cfg = _mf_config(args, file_cfg)
    values, _ = _transformed(series, args.transform)
    surface, curve, spectrum = analyze_segment(values, mf_cfg)
    doc = {
        "series": series.label,
        "n": int(values.size),
        "transform": args.transform,
        "hurst": hurst_to_dict(curve),
        "spectrum": spectrum_to_dict(spectrum),
        "config": asdict(mf_cfg),
    }
    return doc["config"], {"report.json": doc}, {
        "surface.csv": (SURFACE_HEADER, surface_rows(series.label, surface)),
        "hurst.csv": (HURST_HEADER, hurst_rows(series.label, curve)),
        "spectrum.csv": (SPECTRUM_HEADER, spectrum_rows(series.label, spectrum)),
    }, (f"series {series.label}: n={values.size}, delta_alpha={spectrum.delta_alpha:.4f}, "
        f"rho(min q)={curve.rho[0]:.4f}, rho(max q)={curve.rho[-1]:.4f}")


def cmd_surrogate(args, file_cfg: dict, series) -> Run:
    mf_cfg = _mf_config(args, file_cfg)
    values, _ = _transformed(series, args.transform)
    comparison = surrogate_test(values, args.kind, args.n, mf_cfg, args.seed)
    doc = surrogate_to_dict(comparison, asdict(mf_cfg))
    return ({"mfdfa": doc["mf_config"], "kind": args.kind, "n": args.n},
            {"surrogate.json": doc},
            {"surrogate.csv": (SURROGATE_HEADER, surrogate_rows(comparison))},
            f"original delta_alpha={comparison.original_delta_alpha:.4f}, "
            f"quantile={comparison.quantile:.3f} over {len(comparison.surrogate_delta_alphas)} "
            f"surrogates ({comparison.n_failed} failed)")


def _parse_breaks(args, series, cp_cfg) -> list[int]:
    spec_str = args.breaks
    if spec_str == "none":
        return []
    if spec_str == "auto":
        result = detect_multiple(_transformed(series)[0], cp_cfg)
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


def cmd_forecast(args, file_cfg: dict, series) -> Run:
    cp_cfg = _cp_config(args, file_cfg)
    breaks = _parse_breaks(args, series, cp_cfg)
    methods = {"both": (METHOD_FD, METHOD_LFD), "fd": (METHOD_FD,),
               "lfd": (METHOD_LFD,)}[args.method]
    p = _pick(args.p, file_cfg, "p", DEFAULT_LAGS, _integer)
    hidden = _pick(args.hidden, file_cfg, "hidden_units", DEFAULT_HIDDEN, _integer)
    report = pipeline_compare(
        series, breaks, p=p, hidden_units=hidden, seed=args.seed,
        scale=args.scale, methods=methods, evaluation=args.evaluation,
    )
    config_snapshot = {
        "p": p, "hidden_units": hidden, "scale": args.scale, "methods": list(methods),
        "breaks": breaks, "evaluation": args.evaluation,
        "changepoint": asdict(cp_cfg),
    }
    doc = forecast_report_to_dict(report)
    doc["config"] = config_snapshot
    summary = "\n".join(
        f"{method}: mean MAPE {value:.4f}% over "
        f"{sum(1 for r in report.rows if r.method == method and not r.skipped_reason)} "
        f"segment row(s)"
        for method, value in sorted(report.aggregate().items())
    )
    return config_snapshot, {"report.json": doc}, {
        "forecast.csv": (FORECAST_HEADER, forecast_rows(report)),
        "fitted.csv": (FITTED_HEADER, fitted_rows(report)),
    }, summary


@np.errstate(over="ignore", invalid="ignore")  # the isfinite check below reports an overflow
def cmd_synth(args, file_cfg: dict, series) -> Run:
    if bad := [f"--{k}" for k in ("sigma", "shift", "offset") if not np.isfinite(vars(args)[k])]:
        raise InputError(f"{' and '.join(bad)} must be finite")  # else series.csv fails to load
    if args.kind == "cascade":
        values = generate_cascade(
            args.b1, args.b2, args.levels, shuffle_seed=args.seed if args.shuffle else None
        )
        params = {"kind": "cascade", "b1": args.b1, "b2": args.b2, "levels": args.levels,
                  "shuffle": bool(args.shuffle)}
    elif args.kind == "fgn":
        values = fgn_generate(args.n, args.hurst, args.seed, sigma=args.sigma)
        params = {"kind": "fgn", "hurst": args.hurst, "n": args.n, "sigma": args.sigma}
    elif args.kind == "arfima":
        values = arfima_generate(args.d, args.n, args.seed, sigma=args.sigma)
        params = {"kind": "arfima", "d": args.d, "n": args.n, "sigma": args.sigma}
    else:
        if args.n < 4:
            raise InputError(f"step series needs n >= 4, got {args.n}")
        at = args.break_at if args.break_at is not None else args.n // 2
        if not 1 <= at < args.n:
            raise InputError(f"--break-at must lie in [1, {args.n - 1}], got {at}")
        rng = np.random.default_rng(args.seed)
        values = rng.standard_normal(args.n) * args.sigma
        values[at:] += args.shift
        params = {"kind": "step", "n": args.n, "break_at": at, "shift": args.shift,
                  "sigma": args.sigma}
    values = values + args.offset
    params["offset"] = args.offset
    if not np.isfinite(values).all():  # finite flags whose series overflows
        flags = [f"--{k}" for k in ("sigma", "shift", "offset") if k in params]
        raise InputError(f"the {args.kind} series overflows; lower {' or '.join(flags)}")
    dates = SYNTH_START_DATE + np.arange(values.size)
    return params, {}, {
        "series.csv": (SERIES_HEADER, series_rows(dates, values)),
    }, f"wrote {values.size} rows of kind {args.kind!r} to {Path(args.out) / 'series.csv'}"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:  # NumPy's generators take only non-negative seeds
        parser.error(f"argument --seed: must be a non-negative integer, got {args.seed}")
    try:
        file_cfg = _load_config_file(args)
        series = _load_series(args)
        config, docs, tables, summary = args.handler(args, file_cfg, series)
        _emit(args, config, docs, tables)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
