"""Benchmark of the pinvperturb pipeline: four workloads, checked outputs.

``BENCHMARK.json`` lists three of them; ``suite`` is left out while the
property suite fails at some seeds (see ``perfbench/README.md``).

Usage:
    python3 perfbench/run.py --workload {suite,interactive,square,tall,all}
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree; the library is imported from ``src``
and nothing is installed.  One caller runs the workload's operations in a
closed loop on the default backend for about S seconds and checks every
output.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
wraps the library's public functions in spans and reports per-layer
metrics instead.  A readable summary goes to stderr, a full record to
``perfbench/.work/``, and the last line of stdout is one JSON object with
the metrics ``BENCHMARK.json`` lists for the mode.  Times are scaled to a
reference speed of the host, measured next to them (see CALIBRATION_*).  The
exit code is 1 when any check failed and 2 when the tree has no library.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("suite", "interactive", "square", "tall")
SETUP_LAUNCHES = 15
# one caller, so BLAS and OpenMP get one thread each
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_CAP = "1"
TAIL_BEYOND = 10
# The host's speed drifts with other tenants' load, by up to a third within
# a minute and between runs, and the program drifts with it.  So fixed
# reference work is timed next to the measured work, and times are reported
# scaled to the speed at which the reference takes its nominal time ("at
# reference speed"); the unscaled figures are kept in the record.  In the
# loop the reference runs between operations, and each operation is scaled
# by the reference times on either side of it, since the speed moves within
# seconds.  It is a pure-Python loop plus a loop of small numpy operations,
# about equal in time: together they tracked every kind of operation better
# than either alone.  For set-up the reference is an interpreter start that
# imports numpy, made just before each measured start.
CALIBRATION_LOOPS = 30_000
CALIBRATION_ROUNDS = 270
CALIBRATION_REF_S = 0.005
REF_LAUNCH = [sys.executable, "-c", "import time, numpy; print(repr(time.monotonic()))"]
REF_LAUNCH_S = 0.15
NPROC = len(os.sched_getaffinity(0))


def calibration_s():
    """Seconds the fixed reference work takes now."""
    import numpy as np  # imported late, after child_env() caps its threads

    w = np.ones((16, 16))
    rot = np.eye(2)
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    for _ in range(CALIBRATION_ROUNDS):
        float(np.vdot(w[:, 0], w[:, 1]))
        w[:, [0, 1]] = w[:, [0, 1]] @ rot
    return time.perf_counter() - t0


def child_env():
    """Environment of this process and every process it starts."""
    for var in THREAD_VARS:
        os.environ[var] = THREAD_CAP
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    # a library cache that honours XDG stays inside the tree
    os.environ["XDG_CACHE_HOME"] = str(WORK / "cache")
    # started processes load cached bytecode, as an installed library does
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    return dict(os.environ)


def environment():
    from pinvperturb import backends

    import numpy

    return {
        "default_backend": backends.default_backend(),
        "available_backends": backends.available_backends(),
        "PINVPERTURB_BACKEND_set": "PINVPERTURB_BACKEND" in os.environ,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "cpu": sorted(os.sched_getaffinity(0)),
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile with 10 beyond it.

    With fewer than 11 samples this is the maximum, with none beyond.
    """
    xs = sorted(samples)
    k = max(len(xs) - TAIL_BEYOND, 1)
    return xs[k - 1], 100.0 * k / len(xs), len(xs) - k


def start_to_stamp(cmd, env):
    """Run ``cmd``; return it and the seconds from its start to the clock value it printed.

    The time of the process's exit is left out: it varied in steps of 50 ms
    on the host the benchmark was written on.  None when ``cmd`` failed.
    """
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return proc, None
    return proc, float(proc.stdout.split()[-1]) - t0


def measure_setup(name, seed, env, workdir):
    """Seconds from starting an interpreter to the end of the first operation.

    Returns the median over starts at reference speed, the unscaled samples,
    the reference start of each and the errors.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)]
    # one unmeasured start compiles the bytecode caches of the library and the probe
    warm = [sys.executable, "-c", "import workloads, pinvperturb.cli"]
    subprocess.run(warm, cwd=HERE, env=env, timeout=120)
    samples, refs, errors = [], [], []
    for i in range(SETUP_LAUNCHES):
        ref_proc, ref = start_to_stamp(REF_LAUNCH, env)
        # a fresh cache directory per start, so a first-use compile shows
        launch_env = dict(env, XDG_CACHE_HOME=str(workdir / f"setup-cache-{i}"))
        proc, dt = start_to_stamp(probe, launch_env)
        if dt is None or ref is None:
            bad = proc if dt is None else ref_proc
            errors.append(f"setup start {i}: exit {bad.returncode}: {bad.stderr.strip()[-400:]}")
            continue
        samples.append(dt)
        refs.append(ref)
    if not samples:
        return None, samples, refs, errors
    # each start against the reference start next to it
    scaled = statistics.median(x / r for x, r in zip(samples, refs)) * REF_LAUNCH_S
    return scaled, samples, refs, errors


class Loop:
    """Latencies, failures and the output digest of a closed loop."""

    def __init__(self):
        self.latency = {"main": [], "aux": []}
        self.pass_means = {"main": [], "aux": []}  # mean latency of each kind per pass
        self.pass_scaled = {"main": [], "aux": []}  # the same at reference speed
        self.speeds = []  # per pass: mean calibration_s() over CALIBRATION_REF_S, for the record
        self.by_op = {}
        self.attempted = 0
        self.errors = []
        self.passes = []
        self.digest = hashlib.sha256()

    def run_pass(self, ops):
        t_pass = time.perf_counter()
        cal = [calibration_s()]  # one before every operation and one after the last
        timed = []  # (kind, seconds, index of the calibration before it)
        for op in ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception:  # a failed operation is counted, not fatal
                self.errors.append(f"{op.label}: {traceback.format_exc().strip()[-600:]}")
                out = None
            else:
                dt = time.perf_counter() - t0
                # a completed operation is timed even when its output is wrong
                timed.append((op.kind, dt, len(cal) - 1))
                self.latency[op.kind].append(dt)
                self.by_op.setdefault(op.label, []).append(dt)
                if op.text is not None and not self.passes:
                    self.digest.update(op.text(out).encode())
                try:
                    msg = op.check(out)
                except Exception as exc:
                    msg = f"check raised {exc!r}"
                if msg:
                    self.errors.append(f"{op.label}: {msg}")
            cal.append(calibration_s())
        self.speeds.append(statistics.fmean(cal) / CALIBRATION_REF_S)
        for kind in self.latency:
            mine = [(dt, i) for k, dt, i in timed if k == kind]
            if mine:
                # each operation against the reference times on either side of it
                speed = [0.5 * (cal[i] + cal[i + 1]) / CALIBRATION_REF_S for _, i in mine]
                scaled = [dt / v for (dt, _), v in zip(mine, speed)]
                self.pass_means[kind].append(statistics.fmean(dt for dt, _ in mine))
                self.pass_scaled[kind].append(statistics.fmean(scaled))
        self.passes.append(time.perf_counter() - t_pass)

    def run_for(self, ops, seconds):
        """Repeat whole passes while the next one is expected to end within ``seconds``."""
        t0 = time.perf_counter()
        while True:
            self.run_pass(ops)
            if time.perf_counter() - t0 + self.passes[-1] > seconds:
                return


def kind_summary(samples_s, pass_means_s, pass_scaled_s):
    """Per-operation figures of one kind.

    ``ms`` is the median over passes of their mean at reference speed, and
    ``raw_ms`` the same unscaled; the percentiles are unscaled.
    """
    if not samples_s:
        return {"n": 0}
    ms = [1e3 * x for x in samples_s]
    value, pct, beyond = tail(ms)
    return {
        "n": len(ms),
        "ms": 1e3 * statistics.median(pass_scaled_s),
        "raw_ms": 1e3 * statistics.median(pass_means_s),
        "p50_ms": statistics.median(ms),
        "tail_ms": value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
    }


def named_metrics(name, kinds, attempted, failed):
    """The workload's figures under the names the notes use, as (value, unit)."""
    main, aux = kinds["main"], kinds["aux"]
    out = {"failed_ratio": (failed / attempted, "ratio")}
    if not (main["n"] and aux["n"]):
        return out
    if name == "suite":
        out["suite_s"] = ((main["ms"] + aux["ms"]) / 1e3, "s")
    elif name == "interactive":
        out["sweep_s"] = (2.0 * main["ms"] / 1e3, "s")  # both sweeps
        out["cli_ms_p50"] = (aux["p50_ms"], "ms")
        out["cli_ms_tail"] = (aux["tail_ms"], "ms")
        out["cli_ms_tail_percentile"] = (aux["tail_percentile"], "%")
        out["cli_ms_tail_beyond"] = (aux["tail_beyond"], "count")
        out["cli_ms_samples"] = (aux["n"], "count")
    else:
        out["reports_per_s"] = (1e3 / main["ms"], "1/s")
        out["solves_per_s"] = (1e3 / aux["ms"], "1/s")
    return out


def cli_child_metrics(stats_dir):
    """Per-layer figures from the traced ``pinvperturb`` processes."""
    runs = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(stats_dir.glob("cli-*.json"))]

    def total(layer):
        return sum(r["self_s"].get(layer, 0.0) for r in runs)

    return {
        "matrixio.load_s": (total("matrixio.load"), "s"),
        "matrixio.dumps_s": (total("matrixio.dumps"), "s"),
        "cli.main.self_s": (total("cli.main"), "s"),
        "cli.import_ms": (statistics.median(r["import_ms"] for r in runs) if runs else 0.0, "ms"),
    }


def run_untraced(name, seed, seconds, env, workdir, workloads):
    ops = workloads.build(name, seed, workdir, workloads.Cli(ROOT, env, workdir))
    setup, setup_raw, setup_refs, errors = measure_setup(name, seed, env, workdir)
    loop = Loop()
    loop.run_for(ops, seconds)
    kinds = {
        k: kind_summary(v, loop.pass_means[k], loop.pass_scaled[k]) for k, v in loop.latency.items()
    }
    metrics = {}
    if setup and kinds["main"]["n"] and kinds["aux"]["n"]:
        metrics = {
            "setup_s": (setup, "s"),
            "main_ms": (kinds["main"]["ms"], "ms"),
            "aux_ms": (kinds["aux"]["ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    attempted = loop.attempted + SETUP_LAUNCHES
    failed = len(loop.errors) + len(errors)
    extra = {
        "latency": kinds,
        "setup_samples_s": setup_raw,
        "setup_ref_launch_s": setup_refs,
        "speeds": loop.speeds,
        "pass_means_s": loop.pass_means,
        "pass_scaled_s": loop.pass_scaled,
        "by_op_s": loop.by_op,
        "passes": len(loop.passes),
        "named": named_metrics(name, kinds, attempted, failed),
        "digest": {"of": workloads.DIGEST_OF[name], "sha256": loop.digest.hexdigest()},
    }
    return metrics, attempted, errors + loop.errors, extra


def run_traced(name, seed, seconds, env, workdir, workloads):
    """Alternate plain and traced passes; layer figures come from the traced ones."""
    import spans

    cli = workloads.Cli(ROOT, env, workdir)
    ops = workloads.build(name, seed, workdir, cli)
    with contextlib.redirect_stdout(io.StringIO()):
        workloads.first_op(name, seed, workdir)()  # warm-up, so neither side runs cold
    tracer = spans.Tracer()
    plain, traced = Loop(), Loop()

    def traced_pass(ops):
        cli.tracer = tracer
        tracer.install()
        try:
            tracer.run("bench", traced.run_pass, ops)
        finally:
            tracer.uninstall()
            cli.tracer = None

    t0 = time.perf_counter()
    while True:
        plain.run_pass(ops)
        traced_pass(ops)
        if time.perf_counter() - t0 + plain.passes[-1] + traced.passes[-1] > seconds:
            break
    wall = sum(traced.passes)
    metrics = tracer.layer_metrics(wall)
    metrics.update(cli_child_metrics(workdir))
    metrics["cli.process_s"] = (tracer.self_s["cli.process"], "s")
    metrics["trace.wall_s"] = (wall, "s")
    ratio = statistics.median(traced.passes) / statistics.median(plain.passes)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    extra = {
        "passes": {"plain": len(plain.passes), "traced": len(traced.passes)},
        "self_s_by_layer": dict(sorted(tracer.self_s.items(), key=lambda kv: -kv[1])),
        "calls_by_layer": dict(tracer.calls),
        "accounted_share": sum(tracer.self_s.values()) / wall,
    }
    return metrics, plain.attempted + traced.attempted, plain.errors + traced.errors, extra


def listed_metrics(trace):
    """The metric names ``BENCHMARK.json`` lists for the untraced or the traced run."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name, args, env, workloads):
    workdir = WORK / f"{name}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, attempted, errors, extra = run(name, args.seed, args.seconds, env, workdir, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kinds": dict(zip(("main", "aux"), workloads.KINDS[name])),
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": errors,
        **extra,
    }
    (WORK / f"result-{name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    summarize(record)
    # the result line carries the listed metrics; the record keeps every figure
    names = listed_metrics(args.trace)
    shown = {k: record["metrics"][k] for k in names if k in record["metrics"]}
    return {
        "correct": not errors and len(shown) == len(names),
        "attempted": attempted,
        "failed": len(errors),
        "metrics": shown,
    }


def summarize(record):
    err = sys.stderr
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']}", file=err)
    print(f"   main = {record['kinds']['main']}, aux = {record['kinds']['aux']}", file=err)
    print(f"   environment {json.dumps(record['environment'])}", file=err)
    for k, m in record["metrics"].items():
        print(f"   {k:<32} {m['value']:.6g} {m['unit']}", file=err)
    for kind, lat in record.get("latency", {}).items():
        if lat["n"]:
            print(f"   {kind + '_ms unscaled':<32} {lat['raw_ms']:.6g} ms", file=err)
    for k, (v, unit) in record.get("named", {}).items():
        print(f"   {k:<32} {v:.6g} {unit}", file=err)
    if "accounted_share" in record:
        print(f"   self times / traced wall          {record['accounted_share']:.6f}", file=err)
    if "digest" in record:
        print(f"   sha256({record['digest']['of']}) {record['digest']['sha256']}", file=err)
    for e in record["errors"]:
        print(f"   FAILED {e}", file=err)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pinvperturb" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'pinvperturb'}; run from a source tree", file=sys.stderr)
        return 2
    # one CPU for the benchmark and every process it starts, so the reference
    # work runs where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    sys.path.insert(0, str(SRC))
    import workloads

    WORK.mkdir(exist_ok=True)
    ok = True
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(name, args, env, workloads)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
