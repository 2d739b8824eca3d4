"""Print SHA-256 digests of fixed report, sweep and suite outputs.

Two trees whose digests agree produce byte-identical output, so a change
meant to keep the numbers can be checked by running this script before and
after it:

    PYTHONPATH=src python3 tools/output_hashes.py [--suite]

Each line is ``<sha256>  <name>``, one per row, in this order.  The reported
pairs are those of the suite's first trials, one per ``default_specs()``
entry (``trial_pair``), then four special pairs (``SPECIAL_PAIRS``); every
``%.17g`` row holds all the bits of its numbers.

- ``report_csv`` and ``report_table``: ``report_csv`` and ``report_table``
  of the trial pairs.
- ``special_csv`` and ``special_table``: the same of the special pairs.
- ``sweep_csv_1`` and ``sweep_csv_2``: ``sweep_csv`` of both closed-form
  examples at their default 401 steps.
- ``factors``: the bytes of ``u1``, ``sigma`` and ``v1`` of both
  factorizations of every reported pair and of both sweep stacks, so a
  column swap or sign error that u and v share, which no report sees,
  still moves a digest.
- ``identities``: one ``name residual`` line (``%.17g``) per
  ``identity_checks`` row of every reported pair, which the suite shows
  only to three digits.
- ``spectral_e``: |e|_2 (``spectral_norms[0]``, ``%.17g``) of every
  reported pair, one line each.
- ``trace``: for every reported pair, one line with the ``%.17g`` of
  ``von_neumann_sum(a, b)`` and of the real and imaginary parts of every
  entry of both ``aligning_unitaries(a, b)``, which the suite shows only to
  three digits.
- ``cli``: one JSON line per ``CLI_LINES`` entry, ``[argv, exit status,
  stdout, stderr]``, each run through ``cli.main`` in a temporary directory
  on relative file names with ``COLUMNS=80`` (argparse wraps its help to
  the terminal's width): every subcommand's output, ``--help``, ``bounds
  --help``, and the ``error:`` line and exit status of a usage, file, input
  and numerical failure.  ``--help`` lists the built kernels and ``suite``
  names its backend, so this row differs by build and by backend.
- ``suite_1729``, with ``--suite`` only: the stdout of ``pinvperturb suite
  --trials 500 --seed 1729`` followed by its exit code.

The digests depend on the kernel, whose rotation order and arithmetic set
the last bits, so stderr names the backend as ``# backend=<name>``.  No
kernel computes the rows of diagonal or zero pairs, where no rotation runs
(``special_*`` and ``sweep_csv_*``), or ``spectral_e``, so those five are the
same on both kernels; ``factors``, ``trace`` and the rest are not.  The
digests depend on numpy too: its version, the SIMD targets its dispatch
enabled on this CPU (``NPY_DISABLE_CPU_FEATURES`` lowers them) and its BLAS
each move last bits, so stderr names those as ``# numpy=``, ``# simd=`` and
``# blas=`` lines.  The numpy kernel's dot products are BLAS calls, whose
bits also depend on the CPU kernel OpenBLAS picks (``OPENBLAS_CORETYPE``
forces one), named as ``# openblas_coretype=<value or auto>``.  Digests
compare only between runs whose five lines agree.

A rerun in a new process writes the same bytes: the rows without the suite
do not depend on ``PYTHONHASHSEED``, on the working directory or on the
terminal's width, which CI checks by comparing runs under
``PYTHONHASHSEED`` 0 and 1, the second from another directory with
``COLUMNS=200``.  CI also requires the five kernel-independent rows to be
equal on both kernels.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from numpy._core import _multiarray_umath

from pinvperturb import cli
from pinvperturb.backends import default_backend
from pinvperturb.bounds import full_report, report_csv, report_table
from pinvperturb.geometry import aligning_unitaries, make_pair, von_neumann_sum
from pinvperturb.matrixio import dumps
from pinvperturb.suite import DEFAULT_SEED, default_specs, identity_checks, trial_pair
from pinvperturb.sweeps import SweepSpec, case_matrices, sweep_csv, sweep_example

SPECIAL_PAIRS = (
    (np.zeros((3, 2)), np.zeros((3, 2))),
    (np.eye(2), 2.0 * np.eye(2)),
    (np.diag([1.0, 0.0]), np.diag([1.0 / 1.4, 0.2])),
    (np.eye(3)[:, :2], np.zeros((3, 2))),
)

# the files that CLI_LINES name, written into the temporary directory; "d" is a directory
CLI_FILES = {
    "a.mat": SPECIAL_PAIRS[2][0],
    "b.mat": SPECIAL_PAIRS[2][1],
    "big.mat": 1e308 * np.eye(3),
    "neg.mat": -1e308 * np.eye(3),
}
CLI_LINES = (
    "pinv a.mat",
    "pinv a.mat --out x.mat",
    "bounds a.mat b.mat",
    "bounds a.mat b.mat --format table",
    "verify-identities a.mat b.mat",
    "suite --trials 1",
    "sweep --example 1 --steps 5",
    "sweep --example 2 --steps 5",
    "--help",
    "bounds --help",
    "bounds a.mat",
    "bounds a.mat missing.mat",
    "pinv d",
    "pinv a.mat --out d",
    "sweep --example 1 --tau-min 0.6",
    "suite --trials 0",
    "bounds big.mat neg.mat",
)


def _spec_pairs():
    for t in range(len(default_specs())):
        yield trial_pair(DEFAULT_SEED, t)[1]


def _sweep_pair(example):
    """The stack of pairs that ``sweep_example`` reports for the example's default grid."""
    spec = SweepSpec(example=example)
    return make_pair(*case_matrices(example, np.linspace(spec.tau_min, spec.tau_max, spec.steps)))


def _factor_bytes(pairs):
    return b"".join(
        x.tobytes() for p in pairs for f in (p.fa, p.fb) for x in (f.u1, f.sigma, f.v1)
    )


def _identity_lines(pairs):
    return "".join(
        f"{name} {resid:.17g}\n" for p in pairs for name, resid in identity_checks(p)
    )


def _spectral_e_lines(pairs):
    return "".join(f"{p.spectral_norms[0]:.17g}\n" for p in pairs)


def _trace_lines(pairs):
    lines = []
    for p in pairs:
        parts = [np.array([von_neumann_sum(p.a, p.b)])]
        parts += [x.view(np.float64).ravel() for x in aligning_unitaries(p.a, p.b)]
        lines.append(" ".join(f"{x:.17g}" for x in np.concatenate(parts)) + "\n")
    return "".join(lines)


def _run_cli(argv):
    """(exit status, stdout, stderr) of ``cli.main(argv)``, a ``SystemExit`` code included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _cli_lines():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        os.chdir(tmp)
        try:
            os.mkdir("d")
            for name, a in CLI_FILES.items():
                Path(name).write_text(dumps(a), encoding="utf-8")
            records = [[line, *_run_cli(line.split())] for line in CLI_LINES]
        finally:
            os.chdir(cwd)
    return "".join(json.dumps(r) + "\n" for r in records)


def _digest(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def output_texts(suite=False):
    """(name, text) of every hashed output, in print order; ``factors`` is bytes."""
    pairs = list(_spec_pairs())
    special_pairs = [make_pair(a, b) for a, b in SPECIAL_PAIRS]
    reports = [full_report(p) for p in pairs]
    special = [full_report(p) for p in special_pairs]
    texts = [
        ("report_csv", "".join(map(report_csv, reports))),
        ("report_table", "".join(map(report_table, reports))),
        ("special_csv", "".join(map(report_csv, special))),
        ("special_table", "".join(map(report_table, special))),
        ("sweep_csv_1", sweep_csv(sweep_example(SweepSpec(example=1)))),
        ("sweep_csv_2", sweep_csv(sweep_example(SweepSpec(example=2)))),
        ("factors", _factor_bytes(pairs + special_pairs + [_sweep_pair(1), _sweep_pair(2)])),
        ("identities", _identity_lines(pairs + special_pairs)),
        ("spectral_e", _spectral_e_lines(pairs + special_pairs)),
        ("trace", _trace_lines(pairs + special_pairs)),
        ("cli", _cli_lines()),
    ]
    if suite:
        code, out, err = _run_cli(["suite", "--trials", "500", "--seed", "1729"])
        sys.stderr.write(err)
        texts.append(("suite_1729", f"{out}exit {code}\n"))
    return texts


def environment_lines():
    """The ``# key=value`` stderr lines that name what sets the last bits besides the sources."""
    simd = [t for t in _multiarray_umath.__cpu_dispatch__ if _multiarray_umath.__cpu_features__.get(t)]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"# backend={default_backend()}",
        f"# numpy={np.__version__}",
        f"# simd={' '.join(simd) or 'none'}",
        f"# blas={blas['name']} {blas['version']}",
        f"# openblas_coretype={os.environ.get('OPENBLAS_CORETYPE') or 'auto'}",
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", action="store_true", help="also hash the 500-trial suite run")
    args = parser.parse_args(argv)
    print(*environment_lines(), sep="\n", file=sys.stderr)
    for name, text in output_texts(args.suite):
        print(f"{_digest(text)}  {name}")


if __name__ == "__main__":
    main()
