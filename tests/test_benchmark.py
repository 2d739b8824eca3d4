"""The benchmark's own checks, run once per listed workload.

A zero-second traced run of ``perfbench/run.py`` makes each operation of
the workload once, checks its output against numpy, and wraps every layer
that ``perfbench/spans.py`` names, so a renamed or reshaped function that
the benchmark uses fails here.  The runs write only to the git-ignored
``perfbench/.work/``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LISTED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", LISTED)
def test_benchmark_workload_runs_and_checks_out(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    run = subprocess.run(
        [*cmd, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    results = [json.loads(line) for line in run.stdout.splitlines() if line.strip()]
    assert results and all(r["correct"] is True for r in results), run.stderr[-2000:]
