"""Run one committed list of smfdfa CLI jobs against two source trees and
report, job by job, whether their outputs are byte-identical.

Usage, from the root of a source checkout:

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE [--jobs full|toy] [--work DIR]

PARENT_TREE and CHANGE_TREE are source checkouts (each with a `src/smfdfa`).
The inputs are written once, with perfbench's own generators (imported from
this checkout, not copied), and both trees read the same files. Each tree
runs every job in its own subprocess, which imports `smfdfa` from that tree
only, through `smfdfa.cli.main` in a directory of its own, with one BLAS
thread. A job's record is its output directory plus its stdout, stderr and
exit code, with the tree's path replaced by `<tree>`.

One line per job follows: `identical <job>`, or `DIFFERS <job>:` and what
differs -- for JSON the key paths, for CSV the columns and the first
differing row, otherwise the file names. The last line counts the jobs.
The exit code is 0 when every job is identical and 1 otherwise.

The full list holds 451 jobs: benchmark seeds 0-9 of all three perfbench
workloads (7 inputs each, as perfbench runs them) plus change-point, forecast,
surrogate and subcommand jobs on analyze_regimes input seeds 0, 371 and
400, on one forecast_memory_switch input and on a series with a flat
regime, mostly in both --format values, and three rejected --config files:
one with a boolean q_grid item (mfdfa), one naming the retired `cp_method`
key, and one naming all six scalar settings (analyze), which are flags
only; a tree that still reads them from a file exits 0 there, an exit-code
difference under the same label. A
--config file holds only the MF-DFA grids. mfdfa, surrogate and analyze
each run four of them: a q_grid, a q_grid without q = 2 (so that analyze
fits each regime's DFA Hurst exponent in a pass of its own), a scale_grid
and a regression_range. analyze also runs five more on analyze_regimes
input 0, labelled `config` as when they were files: one flag each of
--detrend-order, --penalty, --max-breaks and --min-segment, and a q_grid
file together with all four. Surrogate jobs whose
member count does not divide by a small CPU count run surrogate --n 11 (shuffle) and --kind phase --n 13
on surrogate_cascade input 0 and analyze --surrogates 11 on
analyze_regimes input 0, in both --format values. The 18
`binseg` jobs still pass `--cp-method binary-segmentation`: binary
segmentation is retired, so they exit 2 on a tree without it, and a tree
that still has it reads as an exit-code difference under the same label. It
also runs analyze, changepoints --max-breaks 3 and changepoints
--max-breaks 8 --penalty 0 on a 20480-return series of four 5120-sample
volatility regimes, in both --format values; analyze on analyze_regimes
input 0 rewritten in other CSV dialects (quoted fields, CRLF line ends,
blank lines, short and extra columns, a repeated header name, another date
format or column names), under a file name CSV must quote, and with a bad
row or a non-UTF-8 byte late in the file; analyze on seven plain
rewrites of that input, which the loader reads with np.loadtxt, or with
csv.reader when one cell breaks the plain form (the price column first
among two extra columns, no final newline, rows in reverse date order, a
value written 1_0.5, a non-ASCII character in an unused column, no data
rows, a 2000-02-30 date); every synth kind, and fgn, step
and arfima with finite flags whose series overflows; and forecast with
the retired --scale differenced, with --evaluation holdout, with --p 3
--hidden 6 (labelled `config`), with --p 0 and --hidden 0, with
--seed 3, with a break list holding empty tokens (--breaks manual:600,,),
with --method fd and with --method lfd in both --format values, and with
--breaks manual:400,800 (three regimes) under the default methods and
under --method fd, in both --format values; and
forecast --method lfd on 100 prices and on 600 constant prices, whose
global memory estimate fails. The
`synth/step/nan` job exits 2, since synth rejects a non-finite --sigma,
and so do the three `overflow` jobs, the two forecast jobs with a
setting of 0, the one on 100 prices, `forecast/0/differenced` (forecasts
are scored on price levels only, so --scale is an unknown flag) and
`forecast/0/breaks_empty_token` (an empty token cannot be parsed), the
three rejected --config files and the plain header-only and 2000-02-30
files; the one on constant prices exits 3.
The toy list runs a few jobs on toy-size inputs in seconds; the
self-tests use it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_SEEDS = range(10)
INPUTS_PER_SEED = 7  # perfbench's INPUTS: seed s runs input seeds 7s .. 7s + 6
FORMATS = ("csv", "json")
# change-point settings run by analyze and changepoints on each custom input
CP_SETTINGS = {
    "ms2": ["--min-segment", "2"],
    "ms7": ["--min-segment", "7"],
    "ms37": ["--min-segment", "37"],
    "ms300": ["--min-segment", "300"],
    "mb0": ["--max-breaks", "0"],
    "mb1": ["--max-breaks", "1"],
    "mb3": ["--max-breaks", "3"],
    "mb8": ["--max-breaks", "8"],
    "pen0": ["--penalty", "0"],
    "binseg": ["--cp-method", "binary-segmentation"],
}
# scalar settings these jobs once set through a --config file, now flags
# under the same job labels
CONFIG_FLAGS = ["--min-segment", "64", "--max-breaks", "3", "--detrend-order", "2"]
FORECAST_CONFIG_FLAGS = ["--p", "3", "--hidden", "6"]
# MF-DFA settings that mfdfa, surrogate and analyze read from a --config file
MF_CONFIGS = {
    "q_grid": {"q_grid": [-4, -2, -1, 0.5, 1, 2, 4]},
    "q_grid_no_q2": {"q_grid": [-3, -1, 1, 3, 5]},
    "scale_grid": {"scale_grid": [16, 24, 32, 48, 64, 96, 128]},
    "regression_range": {"regression_range": [20, 200]},
}
# settings that only analyze runs, as (--config file or None, flags): one
# flag each, and a q_grid file together with MF-DFA and change-point flags
# (a penalty of 0.0001 gives 45 breaks on analyze_regimes input 0, where the
# default gives 3)
ANALYZE_CONFIGS = {
    "detrend_order": (None, ["--detrend-order", "3"]),
    "penalty": (None, ["--penalty", "0.0001"]),
    "max_breaks": (None, ["--max-breaks", "2"]),
    "min_segment": (None, ["--min-segment", "2100"]),
    "combined": ({"q_grid": [-3, -1, 1, 2, 3, 5]},
                 ["--detrend-order", "2", "--penalty", "0.00003", "--max-breaks", "5",
                  "--min-segment", "48"]),
}
# a --config file naming every scalar setting: the settings are flags, so
# it exits 2
REMOVED_KEYS = {"detrend_order": 2, "penalty": 0.0001, "max_breaks": 2, "min_segment": 64,
                "p": 3, "hidden_units": 6}
# change-point jobs on a 20480-return series of four 5120-sample regimes
# (analyze_regimes' sigmas), where the DP prunes thousands of starts
LONG_REGIME = 5120
LONG_SIGMAS = (0.005, 0.02, 0.008, 0.03)
LONG_JOBS = {
    "analyze": ["analyze"],
    "changepoints/mb3": ["changepoints", "--max-breaks", "3"],
    "changepoints/mb8/pen0": ["changepoints", "--max-breaks", "8", "--penalty", "0"],
}
SHOWN_PATHS = 5  # JSON key paths listed per differing file
SYNTH_JOBS = {
    "cascade": ["cascade", "--levels", "12"],
    "cascade/shuffle": ["cascade", "--shuffle", "--b1", "0.6", "--b2", "0.4", "--seed", "3"],
    "fgn": ["fgn", "--n", "2000", "--hurst", "0.3", "--seed", "1"],
    "arfima": ["arfima", "--n", "3000", "--d", "0.4", "--offset", "100", "--seed", "2"],
    "step": ["step", "--n", "1000", "--break-at", "300", "--shift", "2", "--seed", "4"],
    "step/nan": ["step", "--n", "100", "--sigma", "nan"],
    "fgn/overflow": ["fgn", "--n", "64", "--sigma", "1e308", "--offset", "1e308"],
    "step/overflow": ["step", "--n", "100", "--shift", "1e308", "--offset", "1e308"],
    "arfima/overflow": ["arfima", "--n", "100", "--sigma", "1e308"],
}


def _io_jobs(source: Path, inputs: Path) -> dict[str, list[str]]:
    """Jobs on the prices of `source` (a date,price CSV) written again in
    other CSV dialects, under a name CSV must quote, with a bad row or byte
    late in the file (past the loader's first chunks), and in plain files
    (which the loader reads with np.loadtxt) and files plain but for one
    cell."""
    dates, values = zip(*(line.split(",") for line in source.read_text().splitlines()[1:]))
    late = len(dates) - 200

    def write(name: str, header: str, rows, newline: str = "\n") -> str:
        path = inputs / name
        path.write_bytes((newline.join([header, *rows]) + newline).encode())
        return str(path)

    def us_date(iso: str) -> str:
        year, month, day = iso.split("-")
        return f"{month}/{day}/{year}"

    plain = [f"{d},{v}" for d, v in zip(dates, values)]
    blank = [row + "\n" * (k % 500 == 0) for k, row in enumerate(plain)]
    noted = [f'{d},{v},"note\n{k}"' if k % 300 == 0 else f"{d},{v},{k}"
             for k, (d, v) in enumerate(zip(dates, values))]
    ragged = [f"{d},{v}" if k % 3 == 0 else f"{d},{v},n{k}" if k % 3 == 1 else f"{d},{v},n,extra"
              for k, (d, v) in enumerate(zip(dates, values))]
    bad_value = [f"{d},oops" if k == late else row
                 for k, (d, row) in enumerate(zip(dates, blank))]
    jobs = {
        "quoted": ["analyze", write("quoted.csv", '"date","price"',
                                    [f'"{d}","{v}"' for d, v in zip(dates, values)])],
        "crlf": ["analyze", write("crlf.csv", "date,price", plain, "\r\n")],
        "blank": ["analyze", write("blank.csv", "date,price", blank)],
        "ragged": ["analyze", write("ragged.csv", "date,price,note", ragged)],
        "multiline": ["analyze", write("multiline.csv", "date,price,note", noted)],
        "repeated": ["analyze", write("repeated.csv", "price,date,price",
                                      [f"x,{d},{v}" for d, v in zip(dates, values)])],
        "date_format": ["analyze", write("us_dates.csv", "date,price",
                                         [f"{us_date(d)},{v}" for d, v in zip(dates, values)]),
                        "--date-format", "%m/%d/%Y"],
        "value_column": ["analyze", write("columns.csv", "day,close", plain),
                         "--date-column", "day", "--value-column", "close"],
        "late_bad_value": ["analyze", write("late_bad_value.csv", "date,price", bad_value)],
        "late_bad_value/multiline": ["analyze", write(
            "late_bad_multiline.csv", "date,price,note",
            [f"{d},oops,x" if k == late else row
             for k, (d, row) in enumerate(zip(dates, noted))])],
    }
    # plain files, which the loader reads with np.loadtxt, beside ones that
    # look plain but for one cell, which it reads with csv.reader
    mid = len(dates) // 2
    jobs.update({
        "plain/columns": ["analyze", write("plain_columns.csv", "price,note,date,volume",
                                           [f"{v},n{k},{d},{k}"
                                            for k, (d, v) in enumerate(zip(dates, values))])],
        "plain/reversed": ["analyze", write("plain_reversed.csv", "date,price", plain[::-1])],
        "plain/underscore": ["analyze", write("plain_underscore.csv", "date,price", [
            f"{dates[k]},1_0.5" if k == mid else row for k, row in enumerate(plain)])],
        "plain/non_ascii": ["analyze", write("plain_non_ascii.csv", "date,price,note", [
            row + (",\u00e9" if k == mid else ",x") for k, row in enumerate(plain)])],
        "plain/header_only": ["analyze", write("plain_header_only.csv", "date,price", [])],
        "plain/feb_30": ["analyze", write("plain_feb_30.csv", "date,price",
                                          ["2000-02-30,1.0", *plain])],
    })
    no_newline = inputs / "plain_no_final_newline.csv"
    no_newline.write_bytes("\n".join(["date,price", *plain]).encode())
    jobs["plain/no_final_newline"] = ["analyze", str(no_newline)]
    quoted_label = write('a,b"c.csv', "date,price", plain)
    jobs["label/analyze"] = ["analyze", quoted_label]
    jobs["label/mfdfa"] = ["mfdfa", quoted_label]
    lines = [b"date,price", *(row.encode() for row in plain)]
    for name, bad_row in (("late_bad_byte", None), ("bad_value_then_byte", late - 700)):
        rows = list(lines)
        rows[late + 1] = rows[late + 1].replace(b",", b",\xff")
        if bad_row is not None:
            rows[bad_row + 1] = rows[bad_row + 1].split(b",")[0] + b",x"
        path = inputs / f"{name}.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        jobs[name] = ["analyze", str(path)]
    return jobs


def _workloads():
    """perfbench/workloads.py of this checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def build_jobs(kind: str, inputs: Path) -> list[dict]:
    """Write the inputs of the `kind` list under `inputs` and return its
    jobs: {"name", "argv"}, argv without --out."""
    workloads = _workloads()
    toy = kind == "toy"

    def prepare(workload: str, input_seed: int):
        path = inputs / f"{workload}_{input_seed}.csv"
        prepared = workloads.WORKLOADS[workload](input_seed, path, toy)
        return str(path), prepared.argv

    jobs = []

    def add(name: str, argv: list[str]):
        jobs.append({"name": name, "argv": argv})

    if toy:
        path, argv = prepare("analyze_regimes", 0)
        add("toy/analyze", [argv[0], path, *argv[1:]])
        for fmt in FORMATS:
            add(f"toy/changepoints/values/{fmt}",
                ["changepoints", path, "--transform", "values", "--format", fmt])
        add("toy/analyze/config/json", ["analyze", path, *CONFIG_FLAGS, "--format", "json"])
        return jobs
    for workload in ("analyze_regimes", "surrogate_cascade", "forecast_memory_switch"):
        for seed in BENCH_SEEDS:
            for k in range(INPUTS_PER_SEED):
                input_seed = seed * INPUTS_PER_SEED + k
                path, argv = prepare(workload, input_seed)
                add(f"bench/{workload}/{input_seed}", [argv[0], path, *argv[1:]])
    for input_seed in (0, 371, 400):
        path, _ = prepare("analyze_regimes", input_seed)
        for fmt in FORMATS:
            tail = ["--format", fmt]
            for label, flags in CP_SETTINGS.items():
                add(f"analyze/{input_seed}/{label}/{fmt}", ["analyze", path, *flags, *tail])
                add(f"changepoints/{input_seed}/{label}/{fmt}",
                    ["changepoints", path, *flags, *tail])
            for label, flags in (("default", []), ("mb3", ["--max-breaks", "3"]),
                                 ("binseg", ["--cp-method", "binary-segmentation"])):
                add(f"changepoints/{input_seed}/values/{label}/{fmt}",
                    ["changepoints", path, "--transform", "values", *flags, *tail])
            add(f"analyze/{input_seed}/config/{fmt}", ["analyze", path, *CONFIG_FLAGS, *tail])
    path, _ = prepare("analyze_regimes", 0)
    for fmt in FORMATS:
        add(f"mfdfa/0/{fmt}", ["mfdfa", path, "--format", fmt])
        add(f"surrogate/0/phase/{fmt}",
            ["surrogate", path, "--kind", "phase", "--n", "10", "--seed", "3", "--format", fmt])
        for kind in ("shuffle", "phase"):
            add(f"analyze/0/surrogates/{kind}/{fmt}",
                ["analyze", path, "--surrogates", "10", "--surrogate-kind", kind, "--format", fmt])
        # member counts that no small CPU count divides
        add(f"analyze/0/surrogates/n11/{fmt}",
            ["analyze", path, "--surrogates", "11", "--format", fmt])
    cascade, cascade_argv = prepare("surrogate_cascade", 0)
    for fmt in FORMATS:
        for label, flags in (("n11", ["--n", "11"]),
                             ("phase/n13", ["--kind", "phase", "--n", "13"])):
            add(f"surrogate/cascade/{label}/{fmt}",
                [cascade_argv[0], cascade, *cascade_argv[1:], *flags, "--format", fmt])
    def config_file(label: str, file_config: dict) -> list[str]:
        config_path = inputs / f"config_{label}.json"
        config_path.write_text(json.dumps(file_config))
        return ["--config", str(config_path)]

    for label, file_config in MF_CONFIGS.items():
        for command in ("mfdfa", "surrogate", "analyze"):
            add(f"{command}/0/config/{label}", [command, path, *config_file(label, file_config)])
    for label, (file_config, flags) in ANALYZE_CONFIGS.items():
        add(f"analyze/0/config/{label}",
            ["analyze", path, *(config_file(label, file_config) if file_config else []), *flags])
    add("analyze/0/config/removed_keys",
        ["analyze", path, *config_file("removed_keys", REMOVED_KEYS)])
    for command, label, bad in (("mfdfa", "bad_config", {"q_grid": [-2, -1, True, 2, 3]}),
                                ("changepoints", "cp_method", {"cp_method": "exact-dp"})):
        add(f"{command}/0/{label}", [command, path, *config_file(label, bad)])
    # a flat regime: 600 noisy returns, 600 zero returns, 600 noisy returns
    flat = inputs / "flat.csv"
    gen = np.random.default_rng(0)
    r = np.concatenate([gen.normal(0, 0.01, 600), np.zeros(600), gen.normal(0, 0.01, 600)])
    workloads.write_price_csv(flat, workloads.prices_from_returns(r))
    for fmt in FORMATS:
        add(f"analyze/flat/{fmt}", ["analyze", str(flat), "--format", fmt])
        add(f"analyze/flat/surrogates/{fmt}",
            ["analyze", str(flat), "--surrogates", "10", "--format", fmt])
        add(f"forecast/flat/{fmt}", ["forecast", str(flat), "--breaks", "manual:600,1200",
                                     "--method", "lfd", "--p", "2", "--hidden", "2",
                                     "--format", fmt])
    long = inputs / "long.csv"
    r = workloads.regime_returns(np.random.default_rng(0), LONG_SIGMAS, LONG_REGIME)
    workloads.write_price_csv(long, workloads.prices_from_returns(r))
    for fmt in FORMATS:
        for label, (command, *flags) in LONG_JOBS.items():
            add(f"long/{label}/{fmt}", [command, str(long), *flags, "--format", fmt])
    path, argv = prepare("forecast_memory_switch", 0)
    for fmt in FORMATS:
        add(f"forecast/0/auto/{fmt}", ["forecast", path, "--breaks", "auto", "--format", fmt])
        add(f"forecast/0/auto/ms300/{fmt}",
            ["forecast", path, "--breaks", "auto", "--min-segment", "300", "--method", "lfd",
             "--format", fmt])
    add("forecast/0/differenced", [argv[0], path, *argv[1:], "--scale", "differenced"])
    add("forecast/0/breaks_empty_token", [argv[0], path, *argv[1:], "--breaks", "manual:600,,"])
    add("forecast/0/holdout", [argv[0], path, *argv[1:], "--evaluation", "holdout"])
    add("forecast/0/config", [argv[0], path, *argv[1:], *FORECAST_CONFIG_FLAGS])
    for label, flags in (("p0", ["--p", "0"]), ("hidden0", ["--hidden", "0"]),
                         ("seed3", ["--seed", "3"])):
        add(f"forecast/0/{label}", [argv[0], path, *argv[1:], *flags])
    for method in ("fd", "lfd"):  # the workload's --method both is overridden
        for fmt in FORMATS:
            add(f"forecast/0/{method}/{fmt}",
                [argv[0], path, *argv[1:], "--method", method, "--format", fmt])
    # three regimes: 6 rows to train under the default methods, 3 (an odd
    # count) under fd
    for label, flags in (("breaks3", []), ("breaks3/fd", ["--method", "fd"])):
        for fmt in FORMATS:
            add(f"forecast/0/{label}/{fmt}", [argv[0], path, *argv[1:], "--breaks",
                                             "manual:400,800", *flags, "--format", fmt])
    # series whose global memory estimate fails: too short, and constant
    short = inputs / "short.csv"
    workloads.write_price_csv(short, workloads.prices_from_returns(
        np.random.default_rng(0).normal(0, 0.01, 100)))
    const = inputs / "const.csv"
    workloads.write_price_csv(const, np.full(600, 50.0))
    for label, series in (("short", short), ("const", const)):
        add(f"forecast/{label}/lfd", ["forecast", str(series), "--method", "lfd"])
    path, _ = prepare("analyze_regimes", 0)
    for name, job_argv in _io_jobs(Path(path), inputs).items():
        add(f"io/{name}", job_argv)
    for name, flags in SYNTH_JOBS.items():
        add(f"synth/{name}", ["synth", *flags])
    return jobs


def _job_dir(job: dict) -> str:
    """A job's directory name: flat, so no job's record holds another's."""
    return job["name"].replace("/", "__")


def run_tree(tree: Path, jobs_file: Path, dest: Path) -> None:
    """Subprocess side: run every job with `smfdfa` imported from `tree`
    (an absolute path)."""
    sys.path.insert(0, str(tree / "src"))
    import smfdfa.cli

    here = Path(smfdfa.cli.__file__).resolve()
    if not here.is_relative_to(tree.resolve()):
        raise SystemExit(f"smfdfa imported from {here}, not from {tree}")
    for job in json.loads(jobs_file.read_text()):
        job_dir = dest / _job_dir(job)
        job_dir.mkdir(parents=True)
        os.chdir(job_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("default")  # each job warns as in a fresh process
            try:
                code = str(smfdfa.cli.main([*job["argv"], "--out", "out"]))
            except SystemExit as exc:
                code = str(exc.code)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                code = f"raised {type(exc).__name__}"
        for name, text in (("stdout.txt", stdout.getvalue()), ("stderr.txt", stderr.getvalue()),
                           ("exit.txt", code + "\n")):
            (job_dir / name).write_text(text.replace(str(tree), "<tree>"))


def _json_paths(a, b, path: str = "") -> list[str]:
    """Key paths where two JSON documents differ (a type change counts)."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                out.append(f"{sub} (only in {'change' if key in b else 'parent'})")
            else:
                out += _json_paths(a[key], b[key], sub)
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path or '<root>'} (length {len(a)} vs {len(b)})"]
        return [p for k, (u, v) in enumerate(zip(a, b)) for p in _json_paths(u, v, f"{path}[{k}]")]
    if type(a) is not type(b) or a != b:
        return [path or "<root>"]
    return []


def _csv_diff(a: str, b: str) -> str:
    """The columns whose cells differ and the first differing data row."""
    ra, rb = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if not ra or not rb or ra[0] != rb[0]:
        return "header"
    if len(ra) != len(rb):
        return f"rows {len(ra) - 1} vs {len(rb) - 1}"
    header, first, columns = ra[0], None, []
    for row, (u, v) in enumerate(zip(ra[1:], rb[1:]), start=1):
        diff = [k for k in range(max(len(u), len(v)))
                if k >= len(u) or k >= len(v) or u[k] != v[k]]
        if diff and first is None:
            first = row
        columns += [header[k] if k < len(header) else f"#{k}" for k in diff
                    if (header[k] if k < len(header) else f"#{k}") not in columns]
    return f"columns {', '.join(columns)}; first at row {first}"


def compare_job(parent: Path, change: Path) -> list[str]:
    """What differs between one job's two records; empty when identical."""
    files_a = {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
    files_b = {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    out = [f"{p} only in {'parent' if p in files_a else 'change'}"
           for p in sorted(files_a ^ files_b)]
    for rel in sorted(files_a & files_b):
        a, b = (parent / rel).read_bytes(), (change / rel).read_bytes()
        if a == b:
            continue
        if rel.suffix == ".json":
            try:
                paths = _json_paths(json.loads(a), json.loads(b))
            except ValueError:
                paths = []
            shown = ", ".join(paths[:SHOWN_PATHS]) + (
                f" (+{len(paths) - SHOWN_PATHS} more)" if len(paths) > SHOWN_PATHS else "")
            out.append(f"{rel} at {shown or 'bytes'}")
        elif rel.suffix == ".csv":
            out.append(f"{rel}: {_csv_diff(a.decode(), b.decode())}")
        else:
            out.append(str(rel))
    return out


def _run_both(parent: Path, change: Path, jobs_file: Path, work: Path) -> None:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    procs = [
        subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--run-tree", str(tree),
                          "--jobs-file", str(jobs_file), "--dest", str(work / side)], env=env)
        for side, tree in (("parent", parent), ("change", change))
    ]
    codes = [p.wait() for p in procs]
    if any(codes):
        raise SystemExit(f"a tree's runner failed (exit codes {codes})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--jobs", choices=("full", "toy"), default="full")
    parser.add_argument("--work", type=Path, default=None,
                        help="keep inputs and outputs here (default: a temporary directory)")
    parser.add_argument("--run-tree", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--jobs-file", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--dest", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_tree is not None:
        run_tree(args.run_tree, args.jobs_file, args.dest)
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_TREE and CHANGE_TREE are required")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "smfdfa" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/smfdfa/cli.py")
    work = (args.work or Path(tempfile.mkdtemp(prefix="compare_outputs_"))).resolve()
    try:
        (work / "inputs").mkdir(parents=True, exist_ok=True)
        jobs = build_jobs(args.jobs, (work / "inputs").resolve())
        jobs_file = work / "jobs.json"
        jobs_file.write_text(json.dumps(jobs, indent=1))
        _run_both(args.parent.resolve(), args.change.resolve(), jobs_file.resolve(), work)
        differing = 0
        for job in jobs:
            diffs = compare_job(work / "parent" / _job_dir(job), work / "change" / _job_dir(job))
            differing += bool(diffs)
            print(f"DIFFERS {job['name']}: {'; '.join(diffs)}" if diffs
                  else f"identical {job['name']}")
        print(f"{len(jobs)} jobs: {len(jobs) - differing} identical, {differing} differ")
        return 1 if differing else 0
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
