"""Self-test of the benchmark harness: every workload once at toy sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

MODULES = tracer.package_modules()
CALLED = {
    "analyze_regimes": ("changepoint.calls", "mfdfa.surfaces", "longmemory.calls"),
    "surrogate_cascade": ("mfdfa.surfaces", "surrogate.members"),
    "forecast_memory_switch": ("forecast.train_calls", "forecast.lm_steps", "longmemory.calls"),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_toy_workload_passes_checks_under_tracing(name, tmp_path):
    csv_path = tmp_path / "series.csv"
    prepared = workloads.WORKLOADS[name](7, csv_path, toy=True)
    cli, series = MODULES["cli"], MODULES["series"]
    client = run.Client(cli, prepared, csv_path, tmp_path / "out", probe=lambda: 0.0)
    tr = tracer.Tracer()
    tr.install(MODULES)
    try:
        _, op_s, ok = client.op()
    finally:
        tr.uninstall()
    assert ok, client.problems
    assert cli.load_csv is series.load_csv  # uninstall restored the originals
    summary = tr.summarize(op_s)
    self_s = [v for k, v in summary.items() if k.endswith(".self_s")]
    assert sum(self_s) == pytest.approx(op_s, rel=1e-9)
    assert summary["series.rows"] == prepared.sizes["rows"]
    assert summary["serialize.files"] >= 2 and summary["serialize.bytes"] > 0
    assert all(summary[k] > 0 for k in CALLED[name])


def test_tail_keeps_ten_samples_beyond_and_stays_above_median():
    samples = [float(i) for i in range(40)]
    value, percentile = run.tail(samples)
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
    assert percentile == 75.0
    assert run.op_count("forecast_memory_switch", 1) == run.MIN_OPS
    assert run.tail([float(i) for i in range(run.MIN_OPS)])[0] >= 10.0
