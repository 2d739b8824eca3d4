"""Print SHA-256 digests of fixed report, sweep and suite outputs.

Two trees whose digests agree produce byte-identical output, so a change
meant to keep the numbers can be checked by running this script before and
after it:

    PYTHONPATH=src python3 tools/output_hashes.py [--suite]

Each line is ``<sha256>  <name>``.  The digests depend on the kernel, whose
rotation order and arithmetic set the last bits, so the backend is named on
stderr as ``# backend=<name>``.  They depend on numpy too: its version, the
SIMD targets its dispatch enabled on this CPU (``NPY_DISABLE_CPU_FEATURES``
lowers them) and its BLAS each move last bits, so stderr names those as
``# numpy=``, ``# simd=`` and ``# blas=`` lines.  The numpy kernel's dot
products are BLAS calls, whose bits also depend on the CPU kernel OpenBLAS
picks (``OPENBLAS_CORETYPE`` forces one), named as
``# openblas_coretype=<value or auto>``.  Digests compare only between runs
whose five lines agree.  The reports cover the pairs of the
suite's first trials, one per ``default_specs()`` entry (``trial_pair``),
and four special pairs; the sweeps are both closed-form examples at their
default 401 steps.  ``factors`` hashes the bytes of ``u1``, ``sigma`` and
``v1`` of both factorizations of every reported pair and of both sweep
stacks, so a column swap or sign error that u and v share, which no report
sees, still moves a digest.  ``identities`` holds one ``name residual``
line (``%.17g``) per ``identity_checks`` row of the same pairs, every bit
of the exact identities that the suite shows only to three digits.
``spectral_e`` holds |e|_2 (``spectral_norms[0]``, ``%.17g``) of every reported
pair, one line each; no kernel computes it, so it is the same on both.
``trace`` holds, for the same pairs, the ``%.17g`` of
``von_neumann_sum(a, b)`` and of the real and imaginary parts of every
entry of both ``aligning_unitaries(a, b)``, one line per pair: every bit of
the trace helpers, which the suite shows only to three digits.
``--suite`` adds the stdout of
``pinvperturb suite --trials 500 --seed 1729`` followed by its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys

import numpy as np
from numpy._core import _multiarray_umath

from pinvperturb import cli
from pinvperturb.backends import default_backend
from pinvperturb.bounds import full_report, report_csv, report_table
from pinvperturb.geometry import aligning_unitaries, make_pair, von_neumann_sum
from pinvperturb.suite import DEFAULT_SEED, default_specs, identity_checks, trial_pair
from pinvperturb.sweeps import SweepSpec, case_matrices, sweep_csv, sweep_example

SPECIAL_PAIRS = (
    (np.zeros((3, 2)), np.zeros((3, 2))),
    (np.eye(2), 2.0 * np.eye(2)),
    (np.diag([1.0, 0.0]), np.diag([1.0 / 1.4, 0.2])),
    (np.eye(3)[:, :2], np.zeros((3, 2))),
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
    ]
    if suite:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["suite", "--trials", "500", "--seed", "1729"])
        texts.append(("suite_1729", f"{out.getvalue()}exit {code}\n"))
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
