"""The demos run to completion against the current library.

Each demo is a script that calls the public API the way a reader would, so
a signature change that breaks one shows up here. Each takes under a second
on a 2-core x86-64 host; forecast_comparison.py trains eight small
networks, each stopped early on a validation block.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["cascade_benchmark.py", "forecast_comparison.py", "structured_pipeline.py",
             "surrogate_attribution.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
