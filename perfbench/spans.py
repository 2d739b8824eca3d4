"""Spans around calls into the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a timing wrapper in
every ``pinvperturb`` module that holds a reference to it, so calls made
through ``from .x import f`` names are caught too; ``uninstall`` puts the
originals back.  A layer's self time is its spans' time minus the time of
the traced spans they called, so self times partition the root span.
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

# (layer, module, attribute) of each traced function
LAYERS = [
    ("core.jacobi_svd", "pinvperturb.core", "jacobi_svd"),
    ("core.svd_factors", "pinvperturb.core", "svd_factors"),
    ("core.pinv", "pinvperturb.core", "pinv"),
    ("core.lstsq_min_norm", "pinvperturb.core", "lstsq_min_norm"),
    ("geometry.make_pair", "pinvperturb.geometry", "make_pair"),
    ("geometry.product_norms", "pinvperturb.geometry", "_product_norms"),
    ("bounds.full_report", "pinvperturb.bounds", "full_report"),
    ("bounds.evaluate_all", "pinvperturb.bounds", "evaluate_all"),
    ("randmat.gen_pair", "pinvperturb.randmat", "gen_pair"),
    ("suite.lstsq_residuals", "pinvperturb.suite", "_lstsq_residuals"),
    ("suite.identity_checks", "pinvperturb.suite", "identity_checks"),
    ("suite.bound_checks", "pinvperturb.suite", "bound_checks"),
    ("suite.scale_covariance", "pinvperturb.suite", "scale_covariance_residual"),
    # the trace-inequality trials call only these two outside the SVD
    ("suite.von_neumann", "pinvperturb.geometry", "von_neumann_sum"),
    ("suite.von_neumann", "pinvperturb.geometry", "aligning_unitaries"),
    ("suite.run", "pinvperturb.suite", "run_property_suite"),
    ("sweeps.sweep_example", "pinvperturb.sweeps", "sweep_example"),
    ("sweeps.sweep_csv", "pinvperturb.sweeps", "sweep_csv"),
    ("matrixio.load", "pinvperturb.matrixio", "load"),
    ("matrixio.dumps", "pinvperturb.matrixio", "dumps"),
    ("cli.main", "pinvperturb.cli", "main"),
]
# a report is make_pair + full_report; its SVDs are those made in either,
# plus those of the product norms of a pair make_pair built (the suite also
# computes norms of swapped pairs, which belong to no report)
REPORT_LAYERS = ("geometry.make_pair", "bounds.full_report")
# bytes of kernel inputs kept for the LAPACK baseline
KEEP_BYTES = 48 << 20


class Tracer:
    """Per-layer call counts and self times, plus kernel and report counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.stack = []  # [layer, time spent in traced children]
        self.sweeps = 0
        self.col_pairs = 0
        self.nonconverged = 0
        self.report_svds = 0
        self._made_pairs = weakref.WeakValueDictionary()  # id -> pair from make_pair
        self._norms_of_made_pair = False
        self.applicable = 0
        self.estimators = 0
        self.kept = []  # [kernel input copy, kernel seconds]
        self.kept_bytes = 0
        self._pending = None
        self._undo = []

    def span(self, layer, fn, before=None, after=None):
        """Wrap ``fn`` so each call is a span of ``layer``."""
        stack, calls, self_s = self.stack, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if not (stack and stack[-1][0] == layer):  # a recursion counts once
                    calls[layer] += 1
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, out, dt)
            return out

        return traced

    def run(self, layer, fn, *args, **kwargs):
        """Call ``fn`` as one span of ``layer``."""
        return self.span(layer, fn)(*args, **kwargs)

    def _replace(self, orig, wrapped):
        for name, mod in list(sys.modules.items()):
            if not name.startswith("pinvperturb") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, orig))

    def install(self):
        hooks = {
            "core.jacobi_svd": dict(before=self._count_report_svd),
            "geometry.make_pair": dict(after=self._note_pair),
            "geometry.product_norms": dict(before=self._note_norms),
            "bounds.evaluate_all": dict(after=self._count_applicable),
        }
        for layer, modname, attr in LAYERS:
            orig = getattr(importlib.import_module(modname), attr)
            self._replace(orig, self.span(layer, orig, **hooks.get(layer, {})))
        from pinvperturb import backends

        for name in backends.available_backends():
            orig = backends.get_kernel(name).orthogonalize_columns
            wrapped = self.span("kernel", orig, before=self._keep_input, after=self._count_kernel)
            self._replace(orig, wrapped)

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    # hooks; each runs outside the span it belongs to
    def _note_pair(self, args, out, dt):
        self._made_pairs[id(out)] = out

    def _note_norms(self, args):
        self._norms_of_made_pair = self._made_pairs.get(id(args[0])) is args[0]

    def _count_report_svd(self, args):
        if self.stack and self.stack[-1][0] == "core.jacobi_svd":
            return
        for layer, _ in reversed(self.stack):
            if layer == "geometry.product_norms":
                self.report_svds += self._norms_of_made_pair
                return
            if layer in REPORT_LAYERS:
                self.report_svds += 1
                return

    def _count_applicable(self, args, out, dt):
        self.estimators += len(out)
        self.applicable += sum(1 for v in out if v.applicable)

    def _keep_input(self, args):
        w = args[0]
        self._pending = None
        if self.kept_bytes + w.nbytes <= KEEP_BYTES:
            self.run("bench", self._keep, w)

    def _keep(self, w):
        self._pending = [w.copy(), None]
        self.kept.append(self._pending)
        self.kept_bytes += w.nbytes

    def _count_kernel(self, args, out, dt):
        w, max_sweeps = args[0], args[3]
        n = w.shape[1]
        if out < 0:
            self.nonconverged += 1
        used = out if out >= 0 else max_sweeps
        self.sweeps += used
        self.col_pairs += used * n * (n - 1) // 2
        if self._pending is not None:
            self._pending[1] = dt

    def lapack_ratio(self):
        """Kernel seconds over ``numpy.linalg.svd`` seconds on the kept inputs."""
        kernel = lapack = 0.0
        for w, dt in self.kept:
            t0 = time.perf_counter()
            np.linalg.svd(w, full_matrices=False)
            lapack += time.perf_counter() - t0
            kernel += dt
        return kernel / lapack if lapack > 0.0 else 0.0

    def layer_metrics(self, wall_s):
        """The per-layer figures measured in this process."""
        calls, self_s = self.calls, self.self_s
        kcalls = calls["kernel"]
        reports = calls["bounds.full_report"]
        return {
            "kernel.calls": (kcalls, "count"),
            "kernel.self_s": (self_s["kernel"], "s"),
            "kernel.share": (self_s["kernel"] / wall_s, "ratio"),
            "kernel.sweeps_mean": (self.sweeps / kcalls if kcalls else 0.0, "count"),
            "kernel.col_pairs": (self.col_pairs, "count"),
            "kernel.us_per_col_pair": (
                1e6 * self_s["kernel"] / self.col_pairs if self.col_pairs else 0.0, "us"
            ),
            "kernel.nonconverged": (self.nonconverged, "count"),
            "kernel.lapack_ratio": (self.lapack_ratio(), "ratio"),
            "core.jacobi_svd.calls": (calls["core.jacobi_svd"], "count"),
            "core.jacobi_svd.self_s": (self_s["core.jacobi_svd"], "s"),
            "core.svd_factors.calls": (calls["core.svd_factors"], "count"),
            "core.pinv.self_s": (self_s["core.pinv"], "s"),
            "core.lstsq_min_norm.self_s": (self_s["core.lstsq_min_norm"], "s"),
            "geometry.make_pair.self_s": (self_s["geometry.make_pair"], "s"),
            "geometry.product_norms.self_s": (self_s["geometry.product_norms"], "s"),
            "bounds.full_report.self_s": (self_s["bounds.full_report"], "s"),
            "bounds.evaluate_all.self_s": (self_s["bounds.evaluate_all"], "s"),
            "bounds.applicable_ratio": (
                self.applicable / self.estimators if self.estimators else 0.0, "ratio"
            ),
            "bounds.svd_calls_per_report": (self.report_svds / reports if reports else 0.0, "count"),
            "randmat.gen_pair.self_s": (self_s["randmat.gen_pair"], "s"),
            "suite.lstsq_residuals.self_s": (self_s["suite.lstsq_residuals"], "s"),
            "suite.identity_checks.self_s": (self_s["suite.identity_checks"], "s"),
            "suite.bound_checks.self_s": (self_s["suite.bound_checks"], "s"),
            "suite.scale_covariance.self_s": (self_s["suite.scale_covariance"], "s"),
            "suite.von_neumann.self_s": (self_s["suite.von_neumann"], "s"),
            "suite.run.self_s": (self_s["suite.run"], "s"),
            "sweeps.sweep_example.self_s": (self_s["sweeps.sweep_example"], "s"),
            "sweeps.sweep_csv_s": (self_s["sweeps.sweep_csv"], "s"),
            "bench.self_s": (self_s["bench"], "s"),
        }
