"""The four workloads: their operations, and the checks on every output.

Each workload is a fixed list of operations (a "pass") that the runner
repeats in a closed loop.  An operation is either the workload's ``main``
kind or its ``aux`` kind; the end-to-end metrics are, for each kind, the
median over passes of its mean latency at reference speed.  Checks compare
against numpy references or closed forms and run outside the timed call.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from pinvperturb import bounds, core, geometry, suite, sweeps

# Library functions are looked up on their modules at call time, so the
# tracer's wrappers, installed on those modules, see every call.

SUITE_TRIALS = 500
SUITE_TRACE_TRIALS = 200
REL_TOL = 1e-8
SWEEP_TOL = 1e-9
# a rank cutoff for numpy.linalg.lstsq that sits inside every input's gap
LSTSQ_RCOND = 1e-10

# the output each workload's digest covers
DIGEST_OF = {
    "suite": "suite result lines",
    "interactive": "sweep_csv",
    "square": "report_csv",
    "tall": "report_csv",
}
# what main and aux mean on each workload
KINDS = {
    "suite": ("suite property trials", "suite trace trials"),
    "interactive": ("one 401-point sweep", "one cli process"),
    "square": ("report", "solve"),
    "tall": ("report", "solve"),
}


@dataclass
class Op:
    kind: str  # "main" or "aux"
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # an error message, or None when correct
    text: Callable[[object], str] | None = None  # output whose digest is recorded


def pinv_at_rank(a, rank):
    """numpy's pseudoinverse truncated at ``rank`` singular values."""
    u, s, vh = np.linalg.svd(a)
    return (vh[:rank].conj().T / s[:rank]) @ u[:, :rank].conj().T


def _rel_err(got, want):
    return float(np.linalg.norm(got - want)) / (1.0 + float(np.linalg.norm(want)))


def _report_ops(p, index):
    ref_a = pinv_at_rank(p.a, p.rank_a)
    ref_b = pinv_at_rank(p.b, p.rank_b)
    ref_dev = float(np.linalg.norm(ref_b - ref_a) ** 2)
    ref_x = np.linalg.lstsq(p.a, p.rhs, rcond=LSTSQ_RCOND)[0]

    def report():
        pp = geometry.make_pair(p.a, p.b)
        return pp, bounds.full_report(pp)

    def check_report(out):
        pp, rep = out
        if (pp.rank_a, pp.rank_b) != (p.rank_a, p.rank_b):
            return f"ranks {pp.rank_a},{pp.rank_b}"
        if not (bounds.envelope_ok(rep) and bounds.norm_bounds_ok(rep)):
            return "envelope or norm bound violated"
        if max(_rel_err(pp.pinv_a, ref_a), _rel_err(pp.pinv_b, ref_b)) > REL_TOL:
            return "pinv differs from numpy"
        if abs(rep.exact_sq - ref_dev) > REL_TOL * (1.0 + ref_dev):
            return "exact deviation differs from numpy"
        return None

    def check_solve(x):
        return "solve differs from numpy lstsq" if _rel_err(x, ref_x) > REL_TOL else None

    return [
        Op("main", f"report {index} ({p.label})", report, check_report, lambda o: bounds.report_csv(o[1])),
        Op("aux", f"solve {index} ({p.label})", lambda: core.lstsq_min_norm(p.a, p.rhs), check_solve),
    ]


def _pair_ops(seed, shapes):
    return [op for i, p in enumerate(inputs.pair_set(seed, shapes)) for op in _report_ops(p, i)]


def _suite_op(kind, trials, vn_trials, seed):
    def check(res):
        bad = [r.name for r in res.results if not r.passed]
        return f"suite properties failed: {', '.join(bad)}" if bad else None

    return Op(
        kind,
        f"suite trials={trials} trace_trials={vn_trials}",
        lambda: suite.run_property_suite(trials=trials, vn_trials=vn_trials, seed=seed),
        check,
        lambda res: "\n".join(res.format_lines()) + "\n",
    )


# exact squared deviation of the two sweep cases, derived independently
SWEEP_EXACT = {1: lambda t: 4.0 * t**2 + 1.0 / t**2, 2: lambda t: 5.0 / (4.0 * t**2)}


def _sweep_ops():
    """One operation per sweep, so the speed reference is timed between them."""

    def op(example):
        def call():
            res = sweeps.sweep_example(sweeps.SweepSpec(example=example))
            return res, sweeps.sweep_csv(res)

        def check(out):
            res = out[0]
            cols = res.columns
            worst = float(np.max(np.abs(cols["exact"] - SWEEP_EXACT[example](res.taus))))
            for name in cols:
                if f"{name}_closed" in cols:
                    worst = max(worst, float(np.max(np.abs(cols[name] - cols[f"{name}_closed"]))))
            if not worst <= SWEEP_TOL:
                return f"sweep {example} off its closed form by {worst:.3g}"
            return None

        return Op("main", f"sweep {example}", call, check, lambda out: out[1])

    return [op(1), op(2)]


@dataclass
class Cli:
    """How the interactive workload starts ``pinvperturb`` processes.

    With a tracer set, each process runs through ``cli_traced.py``, writes
    its layer times into ``stats_dir``, and is a ``cli.process`` span here.
    """

    root: Path
    env: dict
    stats_dir: Path
    tracer: object = None
    runs: int = 0

    def run(self, argv):
        self.runs += 1
        if self.tracer is None:
            return self._spawn([sys.executable, "-m", "pinvperturb.cli", *argv])
        stats = self.stats_dir / f"cli-{self.runs}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(stats), *argv]
        return self.tracer.run("cli.process", self._spawn, cmd)

    def _spawn(self, cmd):
        return subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )


def _cli_ops(seed, workdir, cli):
    ops = []
    for i, p in enumerate(inputs.cli_pairs(seed)):
        a_path, b_path = workdir / f"a{i}.mat", workdir / f"b{i}.mat"
        a_path.write_text(inputs.format_matrix(p.a), encoding="utf-8")
        b_path.write_text(inputs.format_matrix(p.b), encoding="utf-8")
        want = bounds.report_csv(bounds.full_report(geometry.make_pair(p.a, p.b)))

        def check(proc, want=want):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()}"
            return None if proc.stdout == want else "stdout differs from in-process report_csv"

        argv = ["bounds", str(a_path), str(b_path)]
        ops.append(Op("aux", f"cli bounds {i} ({p.label})", lambda argv=argv: cli.run(argv), check))

    x = inputs.cli_pinv_matrix(seed)
    x_path = workdir / "x.mat"
    x_path.write_text(inputs.format_matrix(x), encoding="utf-8")
    ref = pinv_at_rank(x, 3)

    def check_pinv(proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()}"
        if "# rank 3\n" not in proc.stdout:
            return "pinv rank is not 3"
        if _rel_err(inputs.parse_matrix(proc.stdout), ref) > REL_TOL:
            return "cli pinv differs from numpy"
        return None

    ops.append(Op("aux", "cli pinv (4x6 complex rank 3)", lambda: cli.run(["pinv", str(x_path)]), check_pinv))
    return ops


def build(name, seed, workdir, cli):
    """The workload's pass: every operation, in the order one caller runs them."""
    if name == "suite":
        return [
            _suite_op("main", SUITE_TRIALS, 0, seed),
            _suite_op("aux", 0, SUITE_TRACE_TRIALS, seed),
        ]
    if name == "interactive":
        return [*_cli_ops(seed, workdir, cli), *_sweep_ops()]
    if name == "square":
        return _pair_ops(seed, inputs.SQUARE_SHAPES)
    if name == "tall":
        return _pair_ops(seed, inputs.TALL_SHAPES)
    raise ValueError(f"unknown workload {name!r}")


def first_op(name, seed, workdir):
    """The operation whose end closes ``setup_s`` in a fresh interpreter.

    For ``interactive`` it is the first ``bounds`` command, run in-process
    on the files ``build`` wrote, as a user's first command runs.
    """
    if name == "suite":
        return lambda: suite.run_property_suite(trials=1, vn_trials=1, seed=seed)
    if name == "interactive":
        from pinvperturb import cli

        return lambda: cli.main(["bounds", str(workdir / "a0.mat"), str(workdir / "b0.mat")])
    shapes = inputs.SQUARE_SHAPES if name == "square" else inputs.TALL_SHAPES
    p = inputs.pair_set(seed, shapes[:1])[0]
    return lambda: bounds.full_report(geometry.make_pair(p.a, p.b))
