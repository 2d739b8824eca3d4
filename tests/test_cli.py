"""Command line interface end to end, via main(argv) return codes."""

from __future__ import annotations

import errno
import gc
import io
import os
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pinvperturb.cli as cli
from pinvperturb import backends
from pinvperturb.bounds import full_report, report_csv
from pinvperturb.core import pinv
from pinvperturb.geometry import make_pair
from pinvperturb.matrixio import dumps, loads
from pinvperturb.suite import PropertyResult, SuiteResult

from helpers import BACKENDS


def _write(tmp_path, name, a):
    path = tmp_path / name
    path.write_text(dumps(a), encoding="utf-8")
    return str(path)


@pytest.fixture
def pair_files(tmp_path):
    a = _write(tmp_path, "a.mat", np.diag([1.0, 0.0]))
    b = _write(tmp_path, "b.mat", np.diag([1.0 / 1.4, 0.2]))
    return a, b


def test_pinv_stdout_roundtrip(tmp_path, capsys):
    a = np.diag([2.0, 0.0, 0.5])
    path = _write(tmp_path, "a.mat", a)
    assert cli.main(["pinv", path]) == 0
    out = capsys.readouterr().out
    assert "# rank 2" in out
    assert "# pinv_spectral_norm 2" in out
    x = loads(out)
    assert x.dtype == np.float64
    np.testing.assert_allclose(x, pinv(a).real, atol=1e-15)


def test_pinv_out_file_prints_summary(tmp_path, capsys):
    path = _write(tmp_path, "a.mat", np.eye(2))
    dest = tmp_path / "x.mat"
    assert cli.main(["pinv", path, "--out", str(dest)]) == 0
    out = capsys.readouterr().out
    assert "rank 2" in out
    assert "sigma 1 1" in out
    x = loads(dest.read_text(encoding="utf-8"))
    np.testing.assert_allclose(x, np.eye(2), atol=1e-15)


def test_pinv_tol_override(tmp_path, capsys):
    path = _write(tmp_path, "a.mat", np.diag([1.0, 1e-6]))
    assert cli.main(["pinv", path, "--tol", "1e-3"]) == 0
    assert "# rank 1" in capsys.readouterr().out


def test_pinv_complex_input(tmp_path, capsys):
    a = np.array([[1.0 + 1.0j]])
    path = _write(tmp_path, "a.mat", a)
    assert cli.main(["pinv", path]) == 0
    x = loads(capsys.readouterr().out)
    assert x.dtype == np.complex128
    np.testing.assert_allclose(x, np.array([[0.5 - 0.5j]]), atol=1e-15)


def test_bounds_csv(pair_files, capsys):
    a, b = pair_files
    assert cli.main(["bounds", a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,kind,target,norm,applicable,value"
    assert len(lines) == 30
    exact = next(ln for ln in lines if ln.startswith("exact_squared_frobenius,"))
    assert float(exact.split(",")[5]) == pytest.approx(25.16, rel=1e-12)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_bounds_on_real_files_is_the_report_of_the_float64_arrays(tmp_path, capsys, backend):
    # a real file loads as float64, so the command's report is byte for byte
    # the in-process report of the real arrays, not of complex copies
    rng = np.random.default_rng(23)
    a = rng.standard_normal((4, 3))
    b = a + 1e-2 * rng.standard_normal((4, 3))
    files = [_write(tmp_path, name, x) for name, x in (("a.mat", a), ("b.mat", b))]
    assert cli.main(["bounds", *files]) == 0
    assert capsys.readouterr().out == report_csv(full_report(make_pair(a, b)))
    assert cli.main(["pinv", files[0]]) == 0
    x = loads(capsys.readouterr().out)
    assert x.dtype == np.float64 and x.tobytes() == pinv(a).tobytes()


def test_bounds_table(pair_files, capsys):
    a, b = pair_files
    assert cli.main(["bounds", a, b, "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[:2] == ["name", "kind"]
    assert "envelope_upper" in out


def test_bounds_out_file(pair_files, tmp_path, capsys):
    a, b = pair_files
    dest = tmp_path / "report.csv"
    assert cli.main(["bounds", a, b, "--out", str(dest)]) == 0
    assert dest.read_text(encoding="utf-8").startswith("name,kind,")
    assert capsys.readouterr().out == ""


def test_bounds_shape_mismatch_exit2(tmp_path, capsys):
    a = _write(tmp_path, "a.mat", np.eye(2))
    b = _write(tmp_path, "b.mat", np.eye(3))
    assert cli.main(["bounds", a, b]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bounds_envelope_guard_exit3(pair_files, capsys, monkeypatch):
    a, b = pair_files
    monkeypatch.setattr(cli, "envelope_ok", lambda rep: False)
    assert cli.main(["bounds", a, b]) == 3
    assert "envelope" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, target, exc",
    [
        ("pinv", "svd_factors", RuntimeError("no convergence in 60 jacobi sweeps")),
        ("pinv", "svd_factors", RuntimeError("compiled backend requested but not importable")),
        ("bounds", "full_report", OverflowError("(34, 'Numerical result out of range')")),
        ("bounds", "full_report", ZeroDivisionError("float division by zero")),
    ],
)
def test_numerical_failure_exit3(pair_files, capsys, monkeypatch, command, target, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, fail)
    args = [command, pair_files[0]] if command == "pinv" else [command, *pair_files]
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {exc}\n"
    assert captured.out == ""


def test_failed_allocation_exit3_with_one_error_line(capsys):
    # 10^16 float64 values exceed any 64-bit address space, so numpy fails
    # before any memory is touched
    assert cli.main(["sweep", "--example", "1", "--steps", "10000000000000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate ")
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("command", ["pinv", "bounds"])
def test_overflowing_input_exit3(tmp_path, capsys, command, field):
    # finite entries up to 1.5e308 of a full-rank matrix whose sigma_1 overflows to inf
    m = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, -1.0], [1.0, 0.0, 1.0]])
    a = _write(tmp_path, "a.mat", m * (1.5e308 if field == "real" else 1e308 + 1e308j))
    files = [a] if command == "pinv" else [a, a]
    assert cli.main([command, *files]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error: ")]
    assert errors == ["error: non-finite singular values (overflow) for shape (4, 3)"]


@pytest.mark.filterwarnings("error")
def test_pinv_of_tiny_entries_keeps_its_rank(tmp_path, capsys):
    # squared column norms near 1e-340 underflowed to 0 in the kernel, and
    # the pseudoinverse came out as rank 0 and all zeros, with exit 0
    a = np.random.default_rng(0).standard_normal((4, 3)) * 1e-170
    assert cli.main(["pinv", _write(tmp_path, "a.mat", a)]) == 0
    out = capsys.readouterr().out
    assert "# rank 3" in out
    x = loads(out)
    ref = np.linalg.pinv(a)
    assert np.linalg.norm((x - ref) * 1e-170) <= 1e-13 * np.linalg.norm(ref * 1e-170)


@pytest.mark.filterwarnings("error")
def test_pinv_of_huge_entries_matches_numpy(tmp_path, capsys):
    # squared column norms near 1e200: their product overflowed the kernel's
    # convergence test, which then printed an unrotated, wrong pseudoinverse
    a = np.random.default_rng(0).standard_normal((4, 3)) * 1e100
    assert cli.main(["pinv", _write(tmp_path, "a.mat", a)]) == 0
    x = loads(capsys.readouterr().out)
    ref = np.linalg.pinv(a)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.filterwarnings("error")
def test_pinv_out_of_range_exit3_with_one_error_line(tmp_path, capsys):
    # 1/sigma leaves the double range; the NaN result used to be blamed on the input
    assert cli.main(["pinv", _write(tmp_path, "a.mat", 1e-310 * np.eye(2))]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pseudoinverse failed: overflow encountered in divide\n"


def _scaled_pair_files(tmp_path, scale):
    """A 4x3 Gaussian and a 0.1-noise perturbation of it, both scaled."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    b = a + 0.1 * rng.standard_normal((4, 3))
    return [_write(tmp_path, "a.mat", a * scale), _write(tmp_path, "b.mat", b * scale)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e100, 1e160])
def test_bounds_out_of_range_exit3_with_one_error_line(tmp_path, capsys, scale):
    # the estimators' squares and fourth powers leave the double range; with
    # numpy values they used to turn into a silent inf, or warn before the error
    assert cli.main(["bounds", *_scaled_pair_files(tmp_path, scale)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "failed" in lines[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, scale, what",
    [
        ("bounds", 1e160, "product norms"),
        ("bounds", 1e-170, "product norms"),
        ("verify-identities", 1e160, "product norms"),
        ("verify-identities", 1e-170, "exact deviation"),
    ],
)
def test_out_of_range_failure_names_its_step(tmp_path, capsys, command, scale, what):
    # e2 overflows at 1e160 and the squared deviation at 1e-170
    assert cli.main([command, *_scaled_pair_files(tmp_path, scale)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {what} failed: overflow")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, what",
    [("bounds", "estimator wedin_spectral"), ("verify-identities", "angle bounds")],
)
def test_derived_norm_overflow_names_its_reader(tmp_path, capsys, command, what):
    # a = b = 1e-160 I: every stored product norm is finite, but the square of
    # |a+|_2 = 1e160, derived on first use, overflows where it is first read
    path = _write(tmp_path, "a.mat", 1e-160 * np.eye(2))
    assert cli.main([command, path, path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {what} failed: overflow")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["bounds", "verify-identities"])
def test_overflowing_perturbation_exit3_naming_it(tmp_path, capsys, command):
    # a = 1e308 I and b = -a are finite but e = b - a is not: this printed a
    # numpy warning and its source line, then blamed the product norms
    a = _write(tmp_path, "a.mat", 1e308 * np.eye(3))
    b = _write(tmp_path, "b.mat", -1e308 * np.eye(3))
    assert cli.main([command, a, b]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: perturbation failed: overflow encountered in subtract\n"


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_near_equal_pair_bounds_exit0(tmp_path, capsys, backend):
    # singular_value_lower once subtracted twice the aligned sum from the two
    # sums of 1/sigma^2, all near 1e8, and read 2.98e-8 against an exact 1.00e-8
    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    a.write_text("2 2 real\n1 0\n0 1e-4\n", encoding="utf-8")
    b.write_text("2 2 real\n1 0\n0 0.000100000001\n", encoding="utf-8")
    assert cli.main(["bounds", str(a), str(b), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    value = {row[0]: float(row[-1]) for row in rows if row[-1]}
    assert value["singular_value_lower"] <= value["exact_squared_frobenius"]


@pytest.mark.filterwarnings("error")
def test_no_convergence_exit3_without_warnings(tmp_path, capsys, monkeypatch):
    # the rank-one 0.3 * ones that stalled the kernel converges once
    # preconditioned, so a stub reports the kernel's failure; the error path
    # itself must stay quiet
    stalled = SimpleNamespace(orthogonalize_columns=lambda *args, **kwargs: -1)
    monkeypatch.setattr(backends, "get_kernel", lambda backend=None: stalled)
    path = _write(tmp_path, "a.mat", 0.3 * np.ones((3, 3)))
    assert cli.main(["pinv", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no convergence in 60 jacobi sweeps for shape (3, 3)\n"


def test_unknown_backend_variable_exit2(pair_files, capsys, monkeypatch):
    monkeypatch.setenv("PINVPERTURB_BACKEND", "fortran")
    assert cli.main(["pinv", pair_files[0]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "PINVPERTURB_BACKEND" in lines[0] and "fortran" in lines[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["pinv", "bounds", "verify-identities"])
def test_invalid_rank_cutoff_exit2(pair_files, capsys, command, tol):
    # a = diag(1, 0); a negative cutoff used to divide by its zero singular value
    files = pair_files[:1] if command == "pinv" else pair_files
    assert cli.main([command, *files, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: rank cutoff")


@pytest.mark.parametrize("tol", ["0.5", "1", "3", "1e300"])
@pytest.mark.parametrize("command", ["bounds", "verify-identities"])
def test_explicit_rank_cutoff_reports_on_the_kept_pair(tmp_path, capsys, command, tol):
    # both sides cut to rank 1, or to 0 at 1e300: e and the norms must be
    # those of the kept parts, whose pseudoinverses the report compares
    a = _write(tmp_path, "a.mat", np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = _write(tmp_path, "b.mat", np.array([[1.0, 2.0], [3.0, 4.1]]))
    assert cli.main([command, a, b, "--tol", tol]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_suite_trials_below_one_usage_error(trials, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_property_suite", lambda trials, seed: pytest.fail("suite ran"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["suite", "--trials", trials])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err


def test_suite_negative_seed_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_property_suite", lambda trials, seed: pytest.fail("suite ran"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["suite", "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: expected an integer of at least 0, got '-1'" in capsys.readouterr().err
    assert cli.build_parser().parse_args(["suite", "--seed", "0"]).seed == 0


def test_verify_identities_ok(pair_files, capsys):
    a, b = pair_files
    assert cli.main(["verify-identities", a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    assert all(ln.startswith("ok ") for ln in lines)
    names = {ln.split()[1] for ln in lines}
    assert {"identity_sum_a", "proof_identity_u", "angle_sandwich"} <= names


def test_verify_identities_violation_exit3(pair_files, capsys, monkeypatch):
    a, b = pair_files
    monkeypatch.setattr(cli, "identity_checks", lambda p: [("identity_sum_a", 1.0)])
    assert cli.main(["verify-identities", a, b]) == 3
    captured = capsys.readouterr()
    assert "VIOLATION identity_sum_a residual=1 tol=1.0000000000000001e-09" in captured.out
    assert "1 identity check(s) violated" in captured.err


def test_suite_command(capsys):
    assert cli.main(["suite", "--trials", "24", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("24/24 properties passed (backend=")
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 24


@pytest.mark.parametrize("trials", ["1", "2", "3"])
def test_suite_short_runs_pass(trials, capsys):
    # the first trials draw 1x1 pairs of rank 0, where no corruption can show
    assert cli.main(["suite", "--trials", trials]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("24/24 properties passed")


def test_suite_failure_exit3(capsys, monkeypatch):
    bad = PropertyResult(name="broken", tol=1e-9)
    bad.record(1.0, seed=5)

    monkeypatch.setattr(
        cli, "run_property_suite", lambda trials, seed: SuiteResult(results=[bad])
    )
    assert cli.main(["suite", "--trials", "1"]) == 3
    captured = capsys.readouterr()
    assert "FAIL broken" in captured.out
    assert "0/1 properties passed" in captured.out
    assert "property suite failed" in captured.err


def test_sweep_to_file_deterministic(tmp_path, capsys):
    dest1 = tmp_path / "s1.csv"
    dest2 = tmp_path / "s2.csv"
    args = ["sweep", "--example", "1", "--steps", "5"]
    assert cli.main(args + ["--out", str(dest1)]) == 0
    assert cli.main(args + ["--out", str(dest2)]) == 0
    t1 = dest1.read_text(encoding="utf-8")
    assert t1 == dest2.read_text(encoding="utf-8")
    assert t1.splitlines()[0].split(",")[0] == "tau"
    assert len(t1.splitlines()) == 6


def test_sweep_stdout(capsys):
    assert cli.main(["sweep", "--example", "2", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "gamma_lower" in lines[0].split(",")
    assert len(lines) == 4


def _fresh_python(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, unbuffered=False):
    """A new interpreter on ``argv``, importing the package from this checkout's ``src``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *argv], env=env, stdout=stdout, stderr=stderr, text=True,
        timeout=60, check=False,
    )


# every way a process starts; the script's target is checked against pyproject.toml below
PROCESS_ENTRIES = {
    "python-m-cli": ["-m", "pinvperturb.cli"],
    "python-m-package": ["-m", "pinvperturb"],
    "console-script": ["-c", "import sys\nfrom pinvperturb.cli import run\nsys.exit(run())"],
}


@pytest.mark.parametrize("entry", PROCESS_ENTRIES.values(), ids=PROCESS_ENTRIES)
@pytest.mark.parametrize("case", ["bounds", "missing-file", "usage"])
def test_process_entries_match_in_process_main(pair_files, capsys, monkeypatch, entry, case):
    # argparse wraps its usage line to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    a, b = pair_files
    argv = {
        "bounds": ["bounds", a, b],
        "missing-file": ["bounds", a, "/no/such/file.mat"],
        "usage": ["bounds", a],
    }[case]
    proc = _fresh_python(*entry, *argv)
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, captured.out, captured.err)


@pytest.mark.parametrize(
    "command, unbuffered",
    [
        ("bounds", False), ("bounds", True),
        ("verify-identities", False), ("verify-identities", True),
        ("sweep", False), ("sweep", True),
        ("--help", False), ("--help", True),
        ("bounds --help", False), ("bounds --help", True),
    ],
    ids=lambda v: {False: "buffered", True: "unbuffered"}.get(v, v),
)
def test_closed_stdout_pipe_exit2_with_one_error_line(pair_files, command, unbuffered):
    # a report shorter than the stdout buffer fails only when it is flushed; a sweep table
    # fills the buffer and fails while it is written
    argv = {
        "bounds": ["bounds", *pair_files],
        "verify-identities": ["verify-identities", *pair_files],
        "sweep": ["sweep", "--example", "1"],
        "--help": ["--help"],
        "bounds --help": ["bounds", "--help"],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _fresh_python("-m", "pinvperturb.cli", *argv, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write <stdout>: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "case, status",
    [
        ("missing-file", 2), ("usage", 2), ("bad-range", 2),
        ("overflow-python", 3), ("overflow-compiled", 3), ("both-closed", 2),
    ],
)
def test_closed_stderr_pipe_keeps_the_exit_status(tmp_path, pair_files, monkeypatch, case, status,
                                                  unbuffered):
    # the error line is lost, and neither its write nor the flush at exit may change the status
    if case.startswith("overflow-"):
        kernel = case.partition("-")[2]
        if kernel == "compiled" and backends._jacobi is None:
            pytest.skip("no _jacobi library built next to backends.py for a new process to load")
        monkeypatch.setenv("PINVPERTURB_BACKEND", kernel)
        # a = 1e308 I and b = -a: e = b - a overflows
        big = _write(tmp_path, "big.mat", 1e308 * np.eye(3))
        argv = ["bounds", big, _write(tmp_path, "neg.mat", -1e308 * np.eye(3))]
    else:
        argv = {
            "missing-file": ["bounds", "/no/a", "/no/b"],
            "usage": ["bounds", pair_files[0]],
            "bad-range": ["sweep", "--example", "1", "--tau-min", "0.6"],
            "both-closed": ["bounds", *pair_files],
        }[case]
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = write_end if case == "both-closed" else subprocess.PIPE
    try:
        proc = _fresh_python(
            "-m", "pinvperturb.cli", *argv, stdout=stdout, stderr=write_end, unbuffered=unbuffered
        )
    finally:
        os.close(write_end)
    assert proc.returncode == status
    assert proc.stdout in (None, "")


def test_process_without_stdout_still_writes_its_file(tmp_path, pair_files):
    # a process started with fd 1 closed (`>&-`) has sys.stdout None, and print() skips it
    out = tmp_path / "x.mat"
    script = "import sys\nsys.stdout = None\nfrom pinvperturb.cli import run\nsys.exit(run())"
    proc = _fresh_python("-c", script, "pinv", pair_files[0], "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_text(encoding="utf-8").endswith("2 2 real\n1 0\n0 0\n")


def test_only_the_process_entry_freezes_the_heap(pair_files, capsys):
    frozen = gc.get_freeze_count()
    assert cli.main(["bounds", *pair_files]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()
    script = (
        "import gc, sys\n"
        "from pinvperturb.cli import run\n"
        "status = run()\n"
        "print(status, gc.get_freeze_count() > 0, gc.isenabled(), file=sys.stderr)\n"
    )
    proc = _fresh_python("-c", script, "bounds", *pair_files)
    assert proc.returncode == 0
    assert proc.stderr == "0 True True\n"


def test_python_m_runs_uninstalled_checkout(capsys):
    args = ["sweep", "--example", "1", "--steps", "3"]
    proc = _fresh_python("-m", "pinvperturb", *args)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(args) == 0
    assert proc.stdout == capsys.readouterr().out


def test_bounds_process_never_imports_dataclasses(pair_files):
    # building a dataclass compiles its methods at import: 17 ms of each process
    script = (
        "import sys\n"
        "from pinvperturb.cli import main\n"
        "status = main(['bounds', *sys.argv[1:]])\n"
        "print(status, 'dataclasses' in sys.modules)\n"
    )
    proc = _fresh_python("-c", script, *pair_files)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_sweep_bad_range_exit2(capsys):
    assert cli.main(["sweep", "--example", "1", "--tau-min", "0.6"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_exit2(capsys):
    assert cli.main(["pinv", "/no/such/file.mat"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_no_stderr_keeps_the_error_line_off_stdout(capsys, monkeypatch):
    # with sys.stderr None, print(..., file=sys.stderr) writes to stdout
    monkeypatch.setattr(sys, "stderr", None)
    assert cli.main(["pinv", "/no/such/file.mat"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("case, status", [("missing-file", 2), ("envelope", 3)])
def test_unwritable_stderr_keeps_the_exit_status(pair_files, capsys, monkeypatch, case, status):
    class BrokenStderr(io.StringIO):
        def write(self, text):
            raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))

    if case == "envelope":
        monkeypatch.setattr(cli, "envelope_ok", lambda rep: False)
    monkeypatch.setattr(sys, "stderr", BrokenStderr())
    argv = ["pinv", "/no/such/file.mat"] if case == "missing-file" else ["bounds", *pair_files]
    assert cli.main(argv) == status


@pytest.mark.parametrize(
    "argv, verb, culprit",
    [
        (["pinv", "{dir}"], "read", "dir"),
        (["bounds", "{a}", "{dir}"], "read", "dir"),
        (["pinv", "{a}", "--out", "{dir}"], "write", "dir"),
        (["pinv", "{a}", "--out", "{nodir}"], "write", "nodir"),
        (["bounds", "{a}", "{a}", "--out", "{dir}"], "write", "dir"),
        (["sweep", "--example", "1", "--out", "{dir}"], "write", "dir"),
        (["sweep", "--example", "2", "--out", "{nodir}"], "write", "nodir"),
    ],
    ids=[
        "pinv-in", "bounds-in", "pinv-out", "pinv-out-nodir", "bounds-out", "sweep-out",
        "sweep-out-nodir",
    ],
)
def test_file_errors_exit2_naming_the_path_and_the_direction(tmp_path, capsys, argv, verb, culprit):
    # a directory, or a file in a directory that does not exist, in place of a file
    paths = {
        "a": _write(tmp_path, "a.mat", np.diag([1.0, 0.0])),
        "dir": str(tmp_path),
        "nodir": str(tmp_path / "nodir" / "x.mat"),
    }
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot {verb} {paths[culprit]}: ")


@pytest.mark.parametrize("command", ["sweep", "verify-identities"])
def test_stdout_write_error_exit2(pair_files, capsys, monkeypatch, command):
    # sweep writes its table in one piece, verify-identities prints line by line
    argv = [command, "--example", "1"] if command == "sweep" else [command, *pair_files]

    class FullStdout(io.StringIO):
        name = "<stdout>"

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("command", ["pinv", "bounds"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, command):
    plain = _write(tmp_path, "a.mat", np.array([[1.0, 2.0], [3.0, 4.0]]))
    marked = tmp_path / "bom.mat"
    marked.write_text("\ufeff" + Path(plain).read_text(encoding="utf-8"), encoding="utf-8")
    outputs = []
    for path in (plain, str(marked)):
        argv = [command, path, plain] if command == "bounds" else [command, path]
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == outputs[1].err == ""
    assert outputs[0].out == outputs[1].out


def test_parse_error_reports_line_number(tmp_path, capsys):
    path = tmp_path / "bad.mat"
    path.write_text("2 2 real\n1 2\n3 oops\n", encoding="utf-8")
    assert cli.main(["pinv", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 3" in err


@pytest.mark.parametrize("command", ["pinv", "bounds"])
def test_file_that_is_not_utf8_names_the_file_and_the_line(tmp_path, capsys, command):
    # a Latin-1 comment: 0xe9 is not UTF-8 after "caf"
    latin = tmp_path / "latin.mat"
    latin.write_bytes(b"2 2 real\n# caf\xe9\n1 0\n0 1\n")
    plain = _write(tmp_path, "a.mat", np.eye(2))
    argv = [command, plain, str(latin)] if command == "bounds" else [command, str(latin)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {latin}: line 2: not UTF-8 text (byte 0xe9)\n"


def test_usage_errors_raise_systemexit():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--example", "3"])
    assert exc.value.code == 2


def test_console_entry_point_registered():
    # the declaration itself, so an uninstalled tree is checked too
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts.get("pinvperturb") == "pinvperturb.cli:run"
    ep = metadata.EntryPoint(name="pinvperturb", value=scripts["pinvperturb"], group="console_scripts")
    assert ep.load() is cli.run


def _installed():
    try:
        metadata.distribution("pinvperturb")
    except metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _installed(), reason="pinvperturb distribution not installed")
def test_console_entry_point_installed():
    eps = metadata.entry_points(group="console_scripts")
    match = [ep for ep in eps if ep.name == "pinvperturb"]
    assert match
    assert match[0].value == "pinvperturb.cli:run"
    assert match[0].load() is cli.run
