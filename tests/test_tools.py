"""The scripts under tools/."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from pinvperturb.bounds import full_report, report_csv
from pinvperturb.suite import DEFAULT_SEED, default_specs, trial_pair

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _output_hashes():
    spec = importlib.util.spec_from_file_location("output_hashes", TOOLS / "output_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_output_hashes_names_the_environment(monkeypatch):
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    lines = _output_hashes().environment_lines()
    keys = ["# backend", "# numpy", "# simd", "# blas", "# openblas_coretype"]
    assert [line.partition("=")[0] for line in lines] == keys
    assert lines[1] == f"# numpy={np.__version__}"
    assert lines[-1] == "# openblas_coretype=auto"
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Prescott")
    assert _output_hashes().environment_lines()[-1] == "# openblas_coretype=Prescott"


def test_output_hashes_covers_the_suite_trial_pairs():
    texts = dict(_output_hashes().output_texts())
    assert list(texts) == [
        "report_csv", "report_table", "special_csv", "special_table", "sweep_csv_1", "sweep_csv_2",
        "factors", "identities", "spectral_e", "trace",
    ]
    # the hashed reports are those of the suite's first trials, one per spec
    pairs = [trial_pair(DEFAULT_SEED, t)[1] for t in range(len(default_specs()))]
    assert texts["report_csv"] == "".join(report_csv(full_report(p)) for p in pairs)
