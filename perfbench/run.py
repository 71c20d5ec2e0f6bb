"""Closed-loop benchmark of the smfdfa CLI, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analyze_regimes --seed 0 --seconds 25 --trace 0

One client runs one CLI op at a time, in-process, through
``smfdfa.cli.main(argv)`` (the code behind the ``smfdfa`` console
script), on inputs generated from ``--seed`` by ``workloads.py``. The op
count is fixed by the workload and ``--seconds`` alone, so two commits
measured with the same arguments get the same sample count and the same
tail percentile. The ops cycle through INPUTS inputs; an untimed warm-up
op comes first. Every op's outputs are checked and hashed (the same input
must give byte-identical outputs), and a failed op is counted, not fatal.

``--trace 0`` reports the end-to-end metrics. The op times are gated as
ratios to a host-speed probe timed before each op (``op_rel_*``): on a
shared 2-core host, over ten seeds, the raw medians spread by 10-27% of
their median (quartile distance), the ratios by 2-8%. Raw wall seconds are
recorded on the environment line and reported by the traced run. ``--trace 1`` alternates
untraced and traced ops and reports per-layer self times and work counts
(see ``tracer.py``) and the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics; the
line before it records the environment, the input sizes and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1

# Seconds per op, as measured on a shared 2-core x86-64 host. Together with
# --seconds they fix the op count; they are constants so that a faster or
# slower program is measured with the same number of samples.
NOMINAL_OP_S = {
    "analyze_regimes": 0.6,
    "surrogate_cascade": 1.2,
    "forecast_memory_switch": 2.0,
}
TAIL_BEYOND = 10  # timed ops beyond the reported tail percentile
MIN_OPS = 2 * TAIL_BEYOND + 1  # so the tail sits at or above the median
# Each run cycles through this many inputs, seeded seed*INPUTS .. seed*INPUTS
# + INPUTS-1: op time depends on the data (forecast ops on some inputs run
# about 15% faster than on others), so with one input per run the
# run-to-run spread would be mostly input spread.
INPUTS = 7
SETUP_REPEATS = 7
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import smfdfa.cli; print(time.perf_counter() - t)"
)


def op_count(workload: str, seconds: float) -> int:
    return max(MIN_OPS, round(seconds / NOMINAL_OP_S[workload]))


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def iqr_share(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def measure_setup() -> list[float]:
    """Cold-import seconds of smfdfa.cli in fresh interpreters (one untimed
    first import compiles the bytecode)."""
    cmd = [sys.executable, "-c", IMPORT_SNIPPET.format(src=str(SRC))]
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class HostProbe:
    """Fixed work with no smfdfa code in it, timed right before each op to
    track how fast the shared host runs at that moment: a pure-Python loop,
    a small matmul, and element-wise and normal-equation steps the size of
    one Levenberg-Marquardt iteration."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.a = rng.standard_normal((128, 128))
        self.u = rng.standard_normal((600, 5))
        self.w = rng.standard_normal((5, 20))
        self.eye = np.eye(100)

    def __call__(self) -> float:
        np = self.np
        t0 = perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        for _ in range(30):
            self.a @ self.a
        for _ in range(20):
            h = np.tanh(self.u @ self.w)
            jac = ((1.0 - h * h)[:, :, None] * self.u[:, None, :]).reshape(600, 100)
            np.linalg.solve(jac.T @ jac + self.eye, jac.T @ h[:, 0])
        return perf_counter() - t0


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Client:
    """Runs CLI ops one at a time and checks each op's outputs."""

    def __init__(self, cli, prepared, csv_path: Path, out: Path, probe: HostProbe):
        self.cli = cli
        self.prepared = prepared
        self.argv = [prepared.argv[0], str(csv_path), "--out", str(out), *prepared.argv[1:]]
        self.out = out
        self.probe = probe
        self.reference: str | None = None
        self.problems: list[str] = []

    def op(self) -> tuple[float, float, bool]:
        """(probe seconds, op seconds, ok) for one op."""
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        probe_s = self.probe()
        problems = []
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            try:
                rc = self.cli.main(self.argv)
            except Exception as exc:  # a failed op is counted, the run goes on
                traceback.print_exc()
                rc = None
                problems.append(f"raised {exc!r}")
            op_s = perf_counter() - t0
        if rc is not None and rc != 0:
            problems.append(f"exit code {rc}")
        if not problems:
            try:
                problems = self.prepared.check(self.out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable outputs: {exc!r}")
        if not problems:
            digest = output_digest(self.out)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                problems.append("outputs differ from the first op's on this input")
        self.problems.extend(problems)
        return probe_s, op_s, not problems


def environment(args, prepared, n_ops: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_seeds": [args.seed * INPUTS + k for k in range(INPUTS)],
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": n_ops,
        "sizes": prepared.sizes,
        "argv": prepared.argv,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, environment record)."""
    import tracer
    import workloads

    modules = tracer.package_modules()
    setup = [] if args.trace else measure_setup()
    n_ops = op_count(args.workload, args.seconds)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tr = tracer.Tracer()
    plain, traced, layer_rows = [], [], []  # plain: (probe seconds, op seconds)
    try:
        probe = HostProbe()
        clients = []
        for k in range(INPUTS):
            csv_path = work / f"series{k}.csv"
            prepared = workloads.WORKLOADS[args.workload](args.seed * INPUTS + k, csv_path,
                                                          toy=False)
            clients.append(Client(modules["cli"], prepared, csv_path, work / f"out{k}", probe))
        env = environment(args, prepared, n_ops)
        _, warmup_s, ok = clients[0].op()
        failed = int(not ok)
        for i in range(n_ops):
            trace_this = bool(args.trace) and i % 2 == 1
            if trace_this:
                tr.reset()
                tr.install(modules)
            try:
                probe_s, op_s, ok = clients[i % INPUTS].op()
            finally:
                tr.uninstall()
            failed += not ok
            if trace_this:
                traced.append(op_s)
                layer_rows.append(tr.summarize(op_s))
            else:
                plain.append((probe_s, op_s))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = n_ops + 1
    probes = [pr for pr, _ in plain]
    op_times = [op for _, op in plain]
    rel = [op / pr for pr, op in plain]
    op_p50 = statistics.median(op_times)
    problems = [p for c in clients for p in c.problems]
    env.update(failures=list(dict.fromkeys(problems))[:10], fail_frac=failed / attempted,
               warmup_s=warmup_s, probe_s_p50=statistics.median(probes), op_s_p50=op_p50)
    run_problems = []
    if args.trace:
        metrics = layer_metrics(layer_rows, traced, op_p50, warmup_s, probes)
        self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        op_mean = metrics["trace.op_s_mean"]["value"]
        if abs(self_sum - op_mean) > 1e-9 * op_mean:
            run_problems.append(f"layer self times sum to {self_sum}, traced op mean {op_mean}")
    else:
        (op_tail, pct), (rel_tail, _) = tail(op_times), tail(rel)
        rel_p50 = statistics.median(rel)
        env.update(op_s_tail=op_tail, tail_percentile=pct, tail_samples=len(plain),
                   setup_samples_s=setup, samples={"probe_s": probes, "op_s": op_times})
        if op_tail < op_p50 or rel_tail < rel_p50:
            run_problems.append("a tail lies below its median")
        metrics = {
            "op_rel_p50": metric(rel_p50, "ratio"),
            "op_rel_tail": metric(rel_tail, "ratio"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": metric(1.0 - failed / attempted, "ratio"),
        }
    env["run_problems"] = run_problems
    result = {"correct": failed == 0 and not run_problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, env


LAYER_UNITS = {
    "self_s": "s", "rows": "count", "calls": "count", "breaks": "count", "surfaces": "count",
    "windows": "count", "members": "count", "failed": "count", "train_calls": "count",
    "lm_steps": "count", "bytes": "bytes", "files": "count",
}


def layer_metrics(rows: list[dict], traced: list[float], plain_p50: float, warmup_s: float,
                  probes: list[float]) -> dict:
    """Per-op means of the traced ops' layer figures (so the self times add up
    to the mean traced op), tracing overhead, untraced wall time and the probe."""
    mean = {k: statistics.fmean(row[k] for row in rows) for k in rows[0]}
    train_s = mean.pop("forecast.train_s")
    out = {k: metric(v, LAYER_UNITS[k.rpartition(".")[2]]) for k, v in mean.items()}
    steps = mean["forecast.lm_steps"]
    out["forecast.s_per_lm_step"] = metric(train_s / steps if steps else 0.0, "s")
    out["cli.warmup_s"] = metric(warmup_s, "s")
    out["trace.op_s_mean"] = metric(statistics.fmean(traced), "s")
    out["trace.overhead"] = metric(statistics.median(traced) / plain_p50 - 1.0, "ratio")
    out["wall.op_s_p50"] = metric(plain_p50, "s")
    out["host.probe_s_p50"] = metric(statistics.median(probes), "s")
    out["host.probe_iqr"] = metric(iqr_share(probes), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NOMINAL_OP_S)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smfdfa" / "cli.py").is_file():
        print(f"no smfdfa sources under {SRC}", file=sys.stderr)
        return 2
    # the BLAS thread pool is sized when NumPy is first imported
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    import smfdfa

    if Path(smfdfa.__file__).resolve().parent != SRC / "smfdfa":
        print(f"smfdfa imported from {smfdfa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, env = run(args)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
