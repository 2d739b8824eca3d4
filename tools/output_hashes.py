"""Print SHA-256 digests of fixed report, sweep and suite outputs.

Two trees whose digests agree produce byte-identical output, so a change
meant to keep the numbers can be checked by running this script before and
after it:

    PYTHONPATH=src python3 tools/output_hashes.py [--suite]

Each line is ``<sha256>  <name>``.  The digests depend on the kernel, whose
rotation order and arithmetic set the last bits, so the backend is named on
stderr as ``# backend=<name>``.  The reports cover the pairs of the
suite's first trials, one per ``default_specs()`` entry (``trial_pair``),
and four special pairs; the sweeps are both closed-form examples at their
default 401 steps.  ``--suite`` adds the stdout of
``pinvperturb suite --trials 500 --seed 1729`` followed by its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys

import numpy as np

from pinvperturb import cli
from pinvperturb.backends import default_backend
from pinvperturb.bounds import full_report, report_csv, report_table
from pinvperturb.geometry import make_pair
from pinvperturb.suite import DEFAULT_SEED, default_specs, trial_pair
from pinvperturb.sweeps import SweepSpec, sweep_csv, sweep_example

SPECIAL_PAIRS = (
    (np.zeros((3, 2)), np.zeros((3, 2))),
    (np.eye(2), 2.0 * np.eye(2)),
    (np.diag([1.0, 0.0]), np.diag([1.0 / 1.4, 0.2])),
    (np.eye(3)[:, :2], np.zeros((3, 2))),
)


def _spec_pairs():
    for t in range(len(default_specs(DEFAULT_SEED))):
        yield trial_pair(DEFAULT_SEED, t)[1]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def output_texts(suite=False):
    """(name, text) of every hashed output, in print order."""
    reports = [full_report(p) for p in _spec_pairs()]
    special = [full_report(make_pair(a, b)) for a, b in SPECIAL_PAIRS]
    texts = [
        ("report_csv", "".join(map(report_csv, reports))),
        ("report_table", "".join(map(report_table, reports))),
        ("special_csv", "".join(map(report_csv, special))),
        ("special_table", "".join(map(report_table, special))),
        ("sweep_csv_1", sweep_csv(sweep_example(SweepSpec(example=1)))),
        ("sweep_csv_2", sweep_csv(sweep_example(SweepSpec(example=2)))),
    ]
    if suite:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["suite", "--trials", "500", "--seed", "1729"])
        texts.append(("suite_1729", f"{out.getvalue()}exit {code}\n"))
    return texts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", action="store_true", help="also hash the 500-trial suite run")
    args = parser.parse_args(argv)
    print(f"# backend={default_backend()}", file=sys.stderr)
    for name, text in output_texts(args.suite):
        print(f"{_digest(text)}  {name}")


if __name__ == "__main__":
    main()
