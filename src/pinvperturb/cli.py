"""Command line interface.

Subcommands:
  pinv                pseudoinverse of a matrix file, with rank and norms
  bounds              full estimator report for a pair of matrix files
  verify-identities   exact-identity residuals for a pair
  suite               randomized property suite
  sweep               closed-form parameter sweep (cases 1 and 2)

Exit codes: 0 success; 2 usage, input or file error (an unknown
``PINVPERTURB_BACKEND``, ``--help`` into a closed pipe); 3 numerical invariant
violation or failure (no convergence, overflow, no kernel backend, no memory).
All numbers print with 17 significant digits.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .backends import available_backends, default_backend
from .bounds import envelope_ok, full_report, norm_bounds_ok, report_csv, report_table
from .core import pinv, svd_factors
from .geometry import make_pair
from .matrixio import dumps, format_float, load
from .suite import DEFAULT_SEED, DEFAULT_TRIALS, PROPERTIES, identity_checks, run_property_suite
from .sweeps import (
    DEFAULT_STEPS,
    DEFAULT_TAU_MAX,
    DEFAULT_TAU_MIN,
    SweepSpec,
    sweep_csv,
    sweep_example,
)


class OutputError(OSError):
    """A result file that could not be written."""


def _emit(text, out):
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputError(exc.errno, exc.strerror, out) from exc


def cmd_pinv(args):
    f = svd_factors(load(args.matrix), tol=args.tol)
    x = pinv(f)
    comments = [
        f"rank {f.rank}",
        "sigma " + " ".join(format_float(s) for s in f.sigma),
        f"pinv_spectral_norm {format_float(f.pinv_norm2)}",
    ]
    text = dumps(x, comments=comments)
    _emit(text, args.out)
    if args.out:
        for c in comments:
            print(c)
    return 0


def cmd_bounds(args):
    p = make_pair(load(args.a), load(args.b), tol=args.tol)
    rep = full_report(p)
    text = report_csv(rep) if args.format == "csv" else report_table(rep)
    _emit(text, args.out)
    if not (envelope_ok(rep) and norm_bounds_ok(rep)):
        print(
            "error: bound envelope does not bracket the exact deviation",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_verify_identities(args):
    p = make_pair(load(args.a), load(args.b), tol=args.tol)
    bad = 0
    for name, resid in identity_checks(p):
        tol = PROPERTIES[name]
        ok = resid <= tol
        status = "ok" if ok else "VIOLATION"
        print(f"{status} {name} residual={format_float(resid)} tol={format_float(tol)}")
        bad += 0 if ok else 1
    if bad:
        print(f"error: {bad} identity check(s) violated", file=sys.stderr)
        return 3
    return 0


def cmd_suite(args):
    res = run_property_suite(trials=args.trials, seed=args.seed)
    for line in res.format_lines():
        print(line)
    n = len(res.results)
    good = sum(1 for r in res.results if r.passed)
    print(f"{good}/{n} properties passed (backend={default_backend()})")
    if not res.passed:
        print("error: property suite failed", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args):
    spec = SweepSpec(
        example=args.example,
        tau_min=args.tau_min,
        tau_max=args.tau_max,
        steps=args.steps,
    )
    res = sweep_example(spec)
    _emit(sweep_csv(res), args.out)
    return 0


def _integer_from(low):
    """An argparse type: an integer of at least ``low``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text!r}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """A parser that raises the ``OSError`` of a failed write to stdout, which argparse drops."""

    def _print_message(self, message, file=None):
        if file is None or file is sys.stderr:  # nothing could report a failed write there
            return super()._print_message(message, file)
        file.write(message)


def build_parser():
    parser = _Parser(
        prog="pinvperturb",
        description=(
            "Moore-Penrose inverses via one-sided Jacobi SVD, and the family "
            "of perturbation bounds on the squared Frobenius deviation of "
            "pseudoinverses."
        ),
        epilog=f"kernel backends available: {', '.join(available_backends())}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinv", help="pseudoinverse of a matrix file")
    p.add_argument("matrix", help="input matrix file")
    p.add_argument("--tol", type=float, default=None, help="absolute rank cutoff")
    p.add_argument("--out", default=None, help="write the result here instead of stdout")
    p.set_defaults(func=cmd_pinv)

    p = sub.add_parser("bounds", help="estimator report for a pair of matrices")
    p.add_argument("a", help="first matrix file")
    p.add_argument("b", help="second matrix file")
    p.add_argument("--tol", type=float, default=None, help="absolute rank cutoff")
    p.add_argument("--format", choices=("csv", "table"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify-identities", help="exact identity residuals for a pair")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=None, help="absolute rank cutoff")
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("suite", help="randomized property suite")
    # a suite of no trials checks nothing, and numpy seeds are non-negative
    p.add_argument("--trials", type=_integer_from(1), default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=_integer_from(0), default=DEFAULT_SEED)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("sweep", help="closed-form sweep of a worked case")
    p.add_argument("--example", type=int, choices=(1, 2), required=True)
    p.add_argument("--tau-min", type=float, default=DEFAULT_TAU_MIN)
    p.add_argument("--tau-max", type=float, default=DEFAULT_TAU_MAX)
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def _file_error(exc):
    """Print the one ``error:`` line for an ``OSError``; return exit status 2."""
    # a failed read names its file; a failed write is an OutputError, or names none (stdout)
    verb = "write" if exc.filename is None or isinstance(exc, OutputError) else "read"
    path = sys.stdout.name if exc.filename is None else exc.filename
    print(f"error: cannot {verb} {path}: {exc.strerror}", file=sys.stderr)
    return 2


def main(argv=None):
    """Run one command line in this process and return its exit status.

    A usage error raises ``SystemExit(2)``.  The garbage collector is left as
    it is: ``run`` is the entry of a process.
    """
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:
        return _file_error(exc)
    except ValueError as exc:  # a MatrixFormatError and a ShapeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run():
    """The entry of a ``pinvperturb`` process: ``main()`` on ``sys.argv``, then its exit status.

    The ``pinvperturb`` script, ``python -m pinvperturb`` and ``python -m
    pinvperturb.cli`` start here.  It freezes the objects that the imports
    left (``gc.freeze``), so that the collections at interpreter exit do not
    walk them, the largest part of a short process's exit.  It flushes
    standard output itself, so that a closed pipe there gives the one
    ``error: cannot write <stdout>:`` line and exit 2, not a failed flush at
    interpreter exit.
    """
    gc.freeze()
    try:
        status = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        status = exc.code
    try:
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        # what is left in the buffer cannot be written: send it to devnull, so
        # that the interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # a command that failed has said so already
        return status or _file_error(exc)
    return status


if __name__ == "__main__":
    sys.exit(run())
