"""Kernel-level tests: both backends against an independent oracle, and one kernel per process."""

from __future__ import annotations

import ctypes
import functools
import shutil
import subprocess
import sysconfig
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pinvperturb import _jacobi_py, backends
from pinvperturb.backends import available_backends, default_backend, get_kernel
from pinvperturb.bounds import full_report
from pinvperturb.core import (
    JACOBI_EPS,
    JACOBI_MAX_SWEEPS,
    factor_pair,
    jacobi_svd,
    jacobi_threshold,
    lstsq_min_norm,
    penrose_residuals,
    pinv,
    spectral_norm,
    svd_factors,
)
from pinvperturb.geometry import aligning_unitaries, deviation_spectral, make_pair, von_neumann_sum
from pinvperturb.suite import identity_checks, trace_residuals, trial_pair
from pinvperturb.sweeps import CLOSED_FORMS, SweepSpec, case_matrices, sweep_example

from helpers import BACKENDS, NO_COMPILED, lowrank

# the name setuptools gives the built kernel
BUILT_KERNEL = Path(backends.__file__).with_name("_jacobi" + sysconfig.get_config_var("EXT_SUFFIX"))


@pytest.mark.skipif(
    not BUILT_KERNEL.exists(),
    reason=f"no built {BUILT_KERNEL.name} next to backends.py (setup.py build not run)",
)
def test_both_backends_present_when_built():
    assert "python" in available_backends()
    # the library file exists; if it failed to load this fails loudly, naming the error
    assert "compiled" in available_backends(), f"_jacobi did not load: {backends.compiled_load_error}"


def test_compiled_kernel_rejects_misfit_arrays(compiled_kernel):
    # the ctypes signature stands where a typed memoryview would: a w of
    # another dtype than float64 or complex128, a v of another dtype than w,
    # or a Fortran-ordered, strided or read-only w or v raises before the C
    # loop can misread its memory, or rotate a copy in place of the caller's array
    if compiled_kernel is None:
        pytest.skip(NO_COMPILED)
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    eyes = np.array([np.eye(2, dtype=np.complex128)] * 4)
    read_only = stack.copy()
    read_only.flags.writeable = False
    misfits = [
        (np.ones((2, 3)), eyes[0]),
        (stack[0], np.eye(2)),
        (np.ones((2, 3), dtype=np.float32), np.eye(2, dtype=np.float32)),
        (stack.astype(np.complex64), eyes.astype(np.complex64)),
        (np.asfortranarray(stack[0]), eyes[0]),
        (stack[::2], eyes[:2]),
        (stack[:2], eyes[::2]),
        (read_only, eyes),
        (stack, np.broadcast_to(eyes[0], eyes.shape)),
    ]
    for w, v in misfits:
        w_in, v_in = w.copy(), v.copy()
        with pytest.raises(ctypes.ArgumentError):
            compiled_kernel.orthogonalize_columns(w, v, JACOBI_EPS, JACOBI_MAX_SWEEPS)
        assert_array_equal(w, w_in)
        assert_array_equal(v, v_in)
    # an accumulator whose rows do not match the columns of w
    with pytest.raises(ValueError, match="does not fit"):
        compiled_kernel.orthogonalize_columns(stack[0], eyes[0, :1], JACOBI_EPS, JACOBI_MAX_SWEEPS)


def test_a_build_of_older_source_is_not_loaded(tmp_path):
    # a library that exports only the entry point of earlier builds, the
    # per-matrix one, the stack one that computed its own pair order or the
    # complex-only one with no real variant, would take other arguments or
    # miss the real inputs; it fails to load, and the numpy kernel serves in
    # its place
    if shutil.which("cc") is None:
        pytest.skip("no cc to compile a stand-in for an older build")
    for name in ("orthogonalize_columns", "orthogonalize_stack", "orthogonalize_rounds"):
        src = tmp_path / f"{name}.c"
        src.write_text(f"int {name}(void) {{ return 1; }}\n")
        lib = tmp_path / f"{name}.so"
        subprocess.run(["cc", "-shared", "-fPIC", "-o", str(lib), str(src)], check=True)
        with pytest.raises(AttributeError, match="orthogonalize_rounds"):
            backends.load_compiled(lib)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_kernel_orthogonalizes_columns(backend):
    rng = np.random.default_rng(11)
    kern = get_kernel(backend)
    for m, n in [(1, 1), (3, 2), (4, 4), (7, 5), (9, 9)]:
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        # the kernels take each column as a row
        w = a.T.copy()
        v = np.eye(n, dtype=np.complex128)
        sweeps = kern.orthogonalize_columns(w, v, 2.220446049250313e-16, 60)
        assert sweeps > 0
        gram = w.conj() @ w.T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-12 * (1.0 + np.abs(gram).max())
        # the rotations are accumulated exactly: a @ v.T == w.T
        assert_allclose(a @ v.T, w.T, atol=1e-12 * (1.0 + np.abs(a).max()))
        assert_allclose(v.conj() @ v.T, np.eye(n), atol=1e-13)


def _check_svd_against_reference(rng, shapes, field):
    for m, n in shapes:
        a = rng.standard_normal((m, n))
        if field == "complex":
            a = a + 1j * rng.standard_normal((m, n))
        u, s, v = jacobi_svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert_allclose(s, ref, atol=1e-12 * (1.0 + ref[0]))
        # thin factors: one singular vector per nonzero value, all of them here
        k = min(m, n)
        assert u.shape == (m, k) and v.shape == (n, k)
        assert_allclose((u * s) @ v.conj().T, a, atol=1e-12 * (1.0 + ref[0]))
        assert_allclose(u.conj().T @ u, np.eye(k), atol=1e-12 * max(m, n))
        assert_allclose(v.conj().T @ v, np.eye(k), atol=1e-12 * max(m, n))


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_svd_matches_reference_singular_values(backend, field):
    shapes = [(1, 1), (2, 2), (3, 2), (2, 3), (5, 3), (3, 5), (6, 6), (8, 5), (1, 7)]
    _check_svd_against_reference(np.random.default_rng(23), shapes, field)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_svd_matches_reference_at_benchmark_sizes(backend, field):
    # the shapes perfbench factors: many rounds per sweep, an odd column count, tall inputs
    shapes = [(12, 12), (16, 16), (20, 20), (17, 13), (256, 16), (192, 12)]
    _check_svd_against_reference(np.random.default_rng(29), shapes, field)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("shape", [(4, 3), (20, 20), (256, 16)])
def test_extreme_scales_still_rotate(backend, shape):
    # alpha * beta overflows to inf from entries near 1e77 on; a convergence
    # test on their product passed every pair and returned unrotated columns.
    # Near 1e-150, |gamma| turns subnormal and numpy's complex division by it
    # overflowed to nan.  From 1e-170 down the squared norms underflowed to a
    # silent rank 0, and from 1e160 up they overflowed to sigma = inf; the
    # power-of-two scaling before the kernel keeps every scale in range.
    # Both sides are compared at scale 1, where their norms cannot overflow.
    a = np.random.default_rng(0).standard_normal(shape)
    ref = np.linalg.pinv(a)
    for scale in (1e-300, 1e-170, 1e-150, 1e77, 1e100, 1e140, 1e160, 1e300):
        assert np.linalg.norm(pinv(a * scale) * scale - ref) <= 1e-13 * np.linalg.norm(ref)
        assert_allclose(jacobi_svd(a * scale)[1], np.linalg.svd(a, compute_uv=False) * scale, rtol=1e-13)


@pytest.mark.parametrize("n", range(1, 18))
def test_round_robin_schedule_covers_each_pair_once(n):
    schedule = _jacobi_py.round_robin(n)
    assert schedule.dtype == np.intp
    assert schedule.shape == (0 if n == 1 else n - 1 + n % 2, 2, n // 2)
    assert not schedule.flags.writeable
    p, q = schedule[:, 0], schedule[:, 1]
    assert np.all(p < q)
    # disjoint: a round touches each of its columns once
    for ends in schedule:
        assert np.unique(ends).size == ends.size
    seen = sorted(zip(p.ravel().tolist(), q.ravel().tolist()))
    assert seen == [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_kernels_rotate_pairs_in_the_same_order(kernels):
    # one sweep stops mid-convergence, so w and v after it depend on the pair order
    if len(kernels) < 2:
        pytest.skip(NO_COMPILED)
    rng = np.random.default_rng(37)
    for n in (2, 3, 7, 8, 13, 16):
        a = rng.standard_normal((n + 3, n)) + 1j * rng.standard_normal((n + 3, n))
        out = []
        for name in ("compiled", "python"):
            w = a.T.copy()
            v = np.eye(n, dtype=np.complex128)
            get_kernel(name).orthogonalize_columns(w, v, 2.220446049250313e-16, 1)
            out.append((w, v))
        (w_c, v_c), (w_p, v_p) = out
        atol = 1e-13 * (1.0 + np.linalg.norm(a, 2))
        assert_allclose(w_c, w_p, rtol=0, atol=atol)
        assert_allclose(v_c, v_p, rtol=0, atol=atol)


def test_kernels_run_the_schedule_of_round_robin(kernels, monkeypatch):
    # with the rounds reversed, one sweep of each kernel moves to another
    # result, the same on both: the C kernel runs the array too
    if len(kernels) < 2:
        pytest.skip(NO_COMPILED)
    rng = np.random.default_rng(41)
    n = 9
    a = rng.standard_normal((n + 3, n)) + 1j * rng.standard_normal((n + 3, n))

    def one_sweep(name):
        w = a.T.copy()
        v = np.eye(n, dtype=np.complex128)
        get_kernel(name).orthogonalize_columns(w, v, 2.220446049250313e-16, 1)
        return w, v

    def reversed_rounds(k, round_robin=_jacobi_py.round_robin):
        schedule = np.ascontiguousarray(round_robin(k)[::-1])
        schedule.flags.writeable = False
        return schedule

    forward = {name: one_sweep(name) for name in ("compiled", "python")}
    monkeypatch.setattr(_jacobi_py, "round_robin", reversed_rounds)
    _jacobi_py._stacked_rounds.cache_clear()
    try:
        backward = {name: one_sweep(name) for name in ("compiled", "python")}
    finally:
        _jacobi_py._stacked_rounds.cache_clear()
    atol = 1e-13 * (1.0 + np.linalg.norm(a, 2))
    for x, y in zip(backward["compiled"], backward["python"]):
        assert_allclose(x, y, rtol=0, atol=atol)
    for name in ("compiled", "python"):
        assert np.abs(backward[name][0] - forward[name][0]).max() > 1e3 * atol


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_known_rank_deficient_case(backend):
    # the Gram matrix trick: [[1,2],[2,4]] has singular values exactly (5, 0)
    u, s, v = jacobi_svd(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert_allclose(s, [5.0, 0.0], atol=1e-13)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_zero_matrix(backend):
    u, s, v = jacobi_svd(np.zeros((3, 2)))
    assert_allclose(s, [0.0, 0.0], atol=0.0)
    # no nonzero value, so no singular vector is kept
    assert u.shape == (3, 0) and v.shape == (2, 0)


def test_backends_agree_with_each_other(monkeypatch, kernels):
    if len(kernels) < 2:
        pytest.skip(NO_COMPILED)
    rng = np.random.default_rng(31)
    for _ in range(25):
        m, n = rng.integers(1, 9, 2)
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        monkeypatch.setenv("PINVPERTURB_BACKEND", "compiled")
        s_c = jacobi_svd(a)[1]
        monkeypatch.setenv("PINVPERTURB_BACKEND", "python")
        s_p = jacobi_svd(a)[1]
        assert_allclose(s_c, s_p, atol=1e-13 * (1.0 + s_p[0]))


def test_graded_singular_values_recovered(monkeypatch, kernels):
    # widely spread spectrum, fixed by construction
    rng = np.random.default_rng(7)
    s_true = np.array([1.0, 1e-2, 1e-4, 1e-6])
    q1 = np.linalg.qr(rng.standard_normal((6, 4)))[0]
    q2 = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    a = (q1 * s_true) @ q2.conj().T
    for backend in kernels:
        monkeypatch.setenv("PINVPERTURB_BACKEND", backend)
        s = jacobi_svd(a)[1]
        assert_allclose(s, s_true, rtol=1e-10)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        get_kernel("fortran")


def test_unknown_backend_variable_rejected(monkeypatch):
    monkeypatch.setenv("PINVPERTURB_BACKEND", "fortran")
    with pytest.raises(ValueError) as err:
        default_backend()
    msg = str(err.value)
    assert "PINVPERTURB_BACKEND" in msg and "fortran" in msg
    assert "'compiled'" in msg and "'python'" in msg
    with pytest.raises(ValueError, match="PINVPERTURB_BACKEND"):
        jacobi_svd(np.eye(2))


def test_one_kernel_serves_every_svd(monkeypatch):
    # a counting stand-in for the extension; the numpy kernel does its work
    # under another name, so any call through the numpy module is a stray one
    numpy_kernel = _jacobi_py.orthogonalize_columns
    calls = {"compiled": 0, "python": 0}

    def compiled(w, v, eps, max_sweeps):
        calls["compiled"] += 1
        return numpy_kernel(w, v, eps, max_sweeps)

    def stray(*args):
        calls["python"] += 1
        return numpy_kernel(*args)

    monkeypatch.setattr(backends, "_jacobi", SimpleNamespace(orthogonalize_columns=compiled))
    monkeypatch.setattr(_jacobi_py, "orthogonalize_columns", stray)
    monkeypatch.setenv("PINVPERTURB_BACKEND", "compiled")
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    b = a + 0.1 * rng.standard_normal((4, 3))

    # a report is one kernel call, a and b as one stack: the spectral norms
    # of e and b+ - a+ take no kernel
    full_report(make_pair(a, b))
    assert calls == {"compiled": 1, "python": 0}
    lstsq_min_norm(a, rng.standard_normal(4))
    assert calls == {"compiled": 2, "python": 0}


def _by_columns(mats):
    """The matrices as one stack whose rows are each matrix's columns, as the kernels take them."""
    return np.array([m.T for m in mats], dtype=np.complex128)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_stacked_kernel_equals_a_loop_over_its_matrices(backend):
    # different sweep counts in one stack, and 0.45 * ones, which alone takes
    # 11 sweeps on both kernels, so it does not converge within the limit of
    # 6; 0.3 * ones took 11 too, but the numpy kernel's dot products are
    # BLAS's, and on some of its CPU kernels it converges in 3
    limit = 6
    rng = np.random.default_rng(41)
    mats = [
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        np.diag([3.0, 2.0, 1.0]),
        0.45 * np.ones((3, 3)),
        rng.standard_normal((3, 3)),
        np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1e-3, 2.0]]),
    ]
    kern = get_kernel(backend)
    alone = []
    for a in mats:
        w = _by_columns([a])[0]
        v = np.eye(3, dtype=np.complex128)
        alone.append((w, v, kern.orthogonalize_columns(w, v, JACOBI_EPS, limit)))
    w = _by_columns(mats)
    v = _by_columns([np.eye(3)] * len(mats))
    counts = np.zeros(len(mats), dtype=int)
    assert kern.orthogonalize_columns(w, v, JACOBI_EPS, limit, counts=counts) == -1
    assert counts.tolist() == [c for _, _, c in alone]
    assert [c < 0 for c in counts] == [False, False, True, False, False]
    assert len(set(counts.tolist())) >= 3
    for i, (wi, vi, _) in enumerate(alone):
        assert_array_equal(w[i], wi)
        assert_array_equal(v[i], vi)
    # without the failing matrix, the stack reports its slowest count
    keep = [0, 1, 3, 4]
    w = _by_columns([mats[i] for i in keep])
    v = _by_columns([np.eye(3)] * len(keep))
    assert kern.orthogonalize_columns(w, v, JACOBI_EPS, limit) == max(counts[keep])


def _every_round(w, v, eps, max_sweeps):
    """The numpy kernel's arithmetic without its per-sweep test: each matrix alone, every round of every sweep.

    Rotates ``w`` and ``v`` in place and returns the sweep count of each matrix.
    """
    n = w.shape[-2]
    counts = np.full(w.shape[:-2], -1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in np.ndindex(counts.shape):
            wi, vi = w[i], v[i]
            for sweep in range(max_sweeps):
                rotated = False
                for p, q in _jacobi_py.round_robin(n):
                    x, y = wi[p], wi[q]
                    alpha, beta = np.vecdot(x, x).real, np.vecdot(y, y).real
                    gamma = np.vecdot(x, y)
                    mag = abs(gamma)
                    tau = (beta - alpha) / (2.0 * mag)
                    t = np.copysign(1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau)), tau)
                    act = (mag > eps * np.sqrt(alpha) * np.sqrt(beta)) & (t != 0.0)
                    if not act.any():
                        continue
                    rotated = True
                    p, q, gamma, mag, t = p[act], q[act], gamma[act], mag[act], t[act]
                    parts = gamma.view(np.float64).reshape(-1, 2)
                    phase = (parts / mag[:, None]).view(np.complex128).conj()
                    c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                    s = t[:, None] * c
                    for z in (wi, vi):
                        x, y = z[p], z[q]
                        z[p] = c * x - (s * phase) * y
                        z[q] = s * x + (c * phase) * y
                if not rotated:
                    counts[i] = sweep + 1
                    break
    return counts


def _mixed_stack(rng, n, m, field):
    """Kernel inputs of n columns of length m that take from one sweep to many."""
    def draw(shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if field == "complex" else g

    orthogonal = np.linalg.qr(draw((m, n)))[0] * np.linspace(2.0, 1.0, n)  # one or two sweeps
    graded = draw((m, n)) * 2.0 ** -np.arange(0, 4 * n, 4)
    return _by_columns([draw((m, n)), orthogonal, graded, draw((m, n)) @ draw((n, n))])


@pytest.mark.parametrize("field", ["real", "complex"])
def test_per_sweep_test_changes_no_rotation(field):
    # a round skipped by the per-sweep test would have read columns that no
    # rotation had changed, so the kernel equals a run of every round bit for bit
    rng = np.random.default_rng(83)
    for n in [*range(1, 10), *range(12, 21)]:
        for m in (n, n + 7):
            stack = _mixed_stack(rng, n, m, field)
            for limit in (1, 2, 60):
                for w in (stack, stack[:1], stack[0]):
                    v = np.broadcast_to(np.eye(n, dtype=np.complex128), w.shape[:-1] + (n,)).copy()
                    w_ref, v_ref = w.copy(), v.copy()
                    w = w.copy()
                    expect = _every_round(w_ref, v_ref, jacobi_threshold(m), limit)
                    counts = np.zeros(w.shape[:-2], dtype=int)
                    got = _jacobi_py.orthogonalize_columns(w, v, jacobi_threshold(m), limit, counts=counts)
                    assert_array_equal(counts, expect)
                    assert got == (-1 if (expect < 0).any() else expect.max())
                    assert_array_equal(w, w_ref)
                    assert_array_equal(v, v_ref)
                    if limit == 60 and w.ndim == 3 and len(w) > 1 and n > 2:
                        assert len(set(counts.tolist())) >= 2, (n, m, counts)


def _check_stack_report_equals_pair_reports(a, b):
    p = make_pair(a, b)
    rep = full_report(p)
    pairs = [make_pair(x, y) for x, y in zip(a, b)]
    reps = [full_report(q) for q in pairs]
    assert_array_equal(p.pinv_a, [q.pinv_a for q in pairs])
    assert_array_equal(p.fb.sigma, [q.fb.sigma for q in pairs])
    for field in ("exact_sq", "exact_fro", "exact_spectral"):
        assert_array_equal(getattr(rep, field), [getattr(r, field) for r in reps])
    assert_array_equal(rep.envelope, np.array([r.envelope for r in reps]).T)
    for i, v in enumerate(rep.values):
        assert [r.values[i].applicable for r in reps] == [v.applicable] * len(reps)
        if v.applicable:
            assert_array_equal(v.value, [r.values[i].value for r in reps], err_msg=v.name)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_stacked_report_equals_the_reports_of_its_pairs(backend):
    rng = np.random.default_rng(43)
    cases = [(4, 3, 3, 3, True), (4, 3, 2, 3, False), (3, 5, 2, 3, True), (6, 6, 6, 6, False)]
    for m, n, ra, rb, cplx in cases:
        a = np.array([lowrank(rng, m, n, ra, cplx) for _ in range(5)])
        b = np.array([lowrank(rng, m, n, rb, cplx) for _ in range(5)])
        _check_stack_report_equals_pair_reports(a, b)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_stack_whose_perturbation_vanishes_for_some_pairs(backend):
    # e and b+ - a+ are zero for the second pair only; their spectral norms
    # take the values alone, so the stack needs no shared nonzero count
    eye = np.eye(2)
    _check_stack_report_equals_pair_reports(np.array([eye, eye]), np.array([2.0 * eye, eye]))


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_stack_mixing_nonzero_counts_at_one_rank(backend):
    # both of rank one, with two and one nonzero singular values
    stack = np.array([np.diag([1.0, 1e-20]), np.diag([1.0, 0.0])])
    f = svd_factors(stack)
    assert f.rank == 1
    for i, a in enumerate(stack):
        alone = svd_factors(a)
        for field in ("u1", "sigma", "v1"):
            assert getattr(f, field)[i].tobytes() == getattr(alone, field).tobytes(), field
        assert_array_equal(pinv(stack)[i], pinv(a))
    _check_stack_report_equals_pair_reports(stack, stack[::-1])


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_stack_mixing_nonzero_counts_gives_each_its_values(backend):
    mixed = np.array([np.diag([1.0, 0.0]), np.eye(2)])
    assert_array_equal(jacobi_svd(mixed)[1], [[1.0, 0.0], [1.0, 1.0]])
    assert_array_equal(spectral_norm(mixed), [1.0, 1.0])


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_four_dimensional_stack_equals_its_matrices(backend):
    # every SVD entry point takes a stack of any leading shape, as jacobi_svd does
    rng = np.random.default_rng(61)
    for m, n, ra, rb, cplx in [(5, 4, 3, 4, True), (3, 6, 2, 3, True), (4, 4, 2, 2, False)]:
        a, b = (
            np.array([lowrank(rng, m, n, r, cplx) for _ in range(6)]).reshape(2, 3, m, n)
            for r in (ra, rb)
        )
        f = svd_factors(a)
        x = pinv(a)
        resid = penrose_residuals(a, x)
        p = make_pair(a, b)
        rep = full_report(p)
        checks = identity_checks(p)
        for i in np.ndindex(2, 3):
            alone = svd_factors(a[i])
            for field in ("u1", "sigma", "v1"):
                assert getattr(f, field)[i].tobytes() == getattr(alone, field).tobytes(), field
            assert x[i].tobytes() == pinv(a[i]).tobytes()
            assert [r[i] for r in resid] == list(penrose_residuals(a[i], x[i]))
            q = make_pair(a[i], b[i])
            assert p.fb.sigma[i].tobytes() == q.fb.sigma.tobytes()
            one = full_report(q)
            for field in ("exact_sq", "exact_fro", "exact_spectral"):
                assert getattr(rep, field)[i] == getattr(one, field), field
            assert [side[i] for side in rep.envelope] == list(one.envelope)
            for v, w in zip(rep.values, one.values):
                assert v.applicable == w.applicable, v.name
                if v.applicable:
                    assert v.value[i] == w.value, v.name
            assert [(name, r[i]) for name, r in checks] == identity_checks(q)


def _rank_one_inputs():
    """180 constant matrices and 100 outer products of small positive integer vectors."""
    for m in range(1, 6):
        for n in range(2, 6):
            for c in np.logspace(-3, 3, 9):
                yield c * np.ones((m, n))
    rng = np.random.default_rng(0)
    for _ in range(100):
        m, n = rng.integers(1, 6, 2)
        yield 0.1 * np.outer(rng.integers(1, 6, m), rng.integers(1, 6, n))


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_rank_one_inputs_converge(backend):
    # unpreconditioned, 7 of the constants and 6 to 8 of the outer products
    # (by kernel) raised "no convergence in 60 jacobi sweeps"
    for a in _rank_one_inputs():
        ref = np.linalg.pinv(a)
        assert np.linalg.norm(pinv(a) - ref) <= 1e-12 * np.linalg.norm(ref), a


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_signed_rank_one_input_converges(backend):
    # a column parallel to the first decays by eps per sweep until tau * tau
    # overflows and t = 0; counted as a rotation, such a pair would keep every
    # later sweep from being the last
    a = 0.1 * np.outer([2, 1, 3, 4, -2], [1, -3, -4, 2, -4])
    ref = np.linalg.pinv(a)
    assert np.linalg.norm(pinv(a) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_kernel_alone_converges_on_a_constant_matrix(backend):
    # without preconditioning, 0.3 * ones reaches t = 0 the same way
    w = _by_columns([0.3 * np.ones((3, 3))])[0]
    v = np.eye(3, dtype=np.complex128)
    assert get_kernel(backend).orthogonalize_columns(w, v, JACOBI_EPS, JACOBI_MAX_SWEEPS) > 0
    gram = w.conj() @ w.T
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 1e-15 * np.abs(gram).max()
    assert_allclose(np.sort(np.linalg.norm(w, axis=-1)), [0.0, 0.0, 0.9], atol=1e-15)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("phase", [None, 1.0, np.exp(0.3j)], ids=["real", "complex", "phase"])
def test_pair_whose_squared_norm_underflows_converges(backend, phase):
    # column q's squared norm underflows to 0 while gamma = 2^-1000 does not,
    # so the threshold eps |w_p| |w_q| reads 0; every product is exact and
    # the dot product one addition, so gamma has these bits on every BLAS
    # core.  Tested unscaled, the pair stayed above the threshold after its
    # rotation in every sweep, up to the pass limit: the numpy kernel on all
    # three, C on the third.  Tested and solved from the columns scaled to
    # unit size, it converges
    x = np.ldexp([2.0, 3.0], -335)
    y = np.ldexp([2199023255522.0, -1466015503681.0], -665)
    assert 2.0 * 2199023255522 - 3.0 * 1466015503681 == 1.0 and y @ y == 0.0
    w = np.array([x, y]) if phase is None else np.array([x, y * phase], dtype=np.complex128)
    v = np.eye(2, dtype=w.dtype)
    w_in = w.copy()
    assert get_kernel(backend).orthogonalize_columns(w, v, jacobi_threshold(2), JACOBI_MAX_SWEEPS) > 0
    assert w.dtype == v.dtype == w_in.dtype
    parts = w.view(np.float64)
    unit = np.ldexp(parts, -np.frexp(abs(parts).max(axis=-1))[1][:, None]).view(w.dtype)
    cosine = abs(np.vdot(unit[0], unit[1])) / np.prod(np.linalg.norm(unit, axis=-1))
    assert cosine <= jacobi_threshold(2)
    assert_allclose(v.conj() @ v.T, np.eye(2), atol=1e-15)
    # the rotations are accumulated: v @ w_in == w, row by row at its own scale
    for got, want in zip(v @ w_in, w):
        assert_allclose(got, want, rtol=0, atol=1e-15 * abs(want).max())


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_stack_does_not_count_a_pair_with_t_zero_as_a_rotation(backend):
    # unpreconditioned, 0.45 * ones and the signed outer product end on a
    # sweep whose only pair above the threshold has t = 0 (11 and 13 sweeps
    # alone, on both kernels and on every BLAS core tried); in the stack the
    # other matrices still rotate in those sweeps, and the pairs with t = 0
    # keep failing the per-sweep test, so rounds run with such pairs among
    # those that do rotate.  Counted as rotations, they would leave both
    # matrices at -1
    rng = np.random.default_rng(47)
    mats = [
        0.45 * np.ones((3, 3)),
        0.1 * np.outer([5, 5, -3], [-4, -4, 3]),
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
    ]
    kern = get_kernel(backend)
    alone = []
    for a in mats:
        w = _by_columns([a])[0]
        v = np.eye(3, dtype=np.complex128)
        alone.append((w, v, kern.orthogonalize_columns(w, v, JACOBI_EPS, JACOBI_MAX_SWEEPS)))
    w = _by_columns(mats)
    v = _by_columns([np.eye(3)] * len(mats))
    counts = np.zeros(len(mats), dtype=int)
    got = kern.orthogonalize_columns(w, v, JACOBI_EPS, JACOBI_MAX_SWEEPS, counts=counts)
    assert counts.tolist() == [c for _, _, c in alone]
    assert (counts > 0).all() and counts[0] < counts.max()
    assert got == counts.max()
    for i, (wi, vi, _) in enumerate(alone):
        assert_array_equal(w[i], wi)
        assert_array_equal(v[i], vi)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_columns_orthogonal_up_to_roundoff_converge(backend):
    # the second matrix of trace trial 79 of suite seed 9: after the QR and
    # the Gram eigenvectors, its columns are orthogonal to about 1e-16, and at
    # a threshold of plain eps the pair (0, 2), at |cos| = 2.65e-16, rotated
    # without changing a bit in every sweep until the pass limit
    a = np.array(
        [
            [0.19221004408895878, 0.5331937353000584, 1.3791513780413978,
             -0.32822900297066443, 1.8694221027034048, 0.23467896931047477],
            [0.1480859143730628, -0.3007802589344709, -0.319167532061398,
             -0.3136455019868257, 0.7244902704332881, -0.5564010811490064],
            [1.7523484733873558, 0.05641588142819445, 0.01692243380352709,
             -1.0623669058509557, 1.4558281516929288, 0.6381831358661744],
            [0.9878461741150448, 0.43505034345188703, 1.1507144881061937,
             1.8801747500869963, 0.02590639618118781, 0.7057107759653597],
        ]
    )
    ref = np.linalg.svd(a, compute_uv=False)
    assert_allclose(jacobi_svd(a)[1], ref, rtol=0, atol=1e-14 * ref[0])


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_kernel_stops_at_once_on_orthogonal_columns(backend, field):
    # columns orthogonal up to roundoff, as the Gram eigenvectors leave them:
    # at the threshold of core, at most one sweep rotates (plain eps took 3 or 4)
    rng = np.random.default_rng(73)
    kern = get_kernel(backend)
    for n in (3, 4, 5, 8, 12, 16, 20):
        for _ in range(10):
            x = rng.standard_normal((n, n))
            if field == "complex":
                x = x + 1j * rng.standard_normal((n, n))
            q = np.linalg.qr(x)[0] * np.linspace(2.0, 1.0, n)
            w = np.array(q.T, dtype=np.complex128, order="C")
            v = np.eye(n, dtype=np.complex128)
            assert 0 < kern.orthogonalize_columns(w, v, jacobi_threshold(n), JACOBI_MAX_SWEEPS) <= 2


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_joint_factors_take_one_eigh_and_equal_separate_factors(backend, monkeypatch):
    # factor_pair starts the kernel from the Gram eigenvectors of both sides
    # in one stacked eigh, and each side is still its svd_factors bit for bit
    eigh = np.linalg.eigh
    stacks = []

    def counting(g):
        stacks.append(g.shape[:-2])
        return eigh(g)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    rng = np.random.default_rng(79)
    for m, n, ra, rb in [(12, 12, 12, 9), (20, 20, 10, 20), (256, 16, 16, 8), (16, 20, 16, 16)]:
        for cplx in (False, True):
            for lead in ((), (3,)):
                count, shape = int(np.prod(lead)), lead + (m, n)
                a = np.array([lowrank(rng, m, n, ra, cplx) for _ in range(count)]).reshape(shape)
                b = np.array([lowrank(rng, m, n, rb, cplx) for _ in range(count)]).reshape(shape)
                del stacks[:]
                joint = factor_pair(a, b)
                assert stacks == [(2,) + lead]
                for f, x in zip(joint, (a, b)):
                    g = svd_factors(x)
                    assert f.rank == g.rank
                    for field in ("u1", "sigma", "v1", "tol"):
                        mine, alone = np.asarray(getattr(f, field)), np.asarray(getattr(g, field))
                        assert mine.tobytes() == alone.tobytes(), (m, n, cplx, lead, field)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_graded_columns_keep_relative_accuracy(backend, field):
    # one-sided Jacobi gets each singular value of a * diag(2^j) to a few
    # ulps relative (Demmel & Veselic 1992), where LAPACK's bidiagonal SVD
    # loses the small ones entirely; the reference takes 60 digits.  The
    # error grows with the condition number of a with unit columns, up to
    # about kappa / 2 ulps, so the benchmark's shapes take its singular
    # values, in [0.1, 1]: Gaussian 12 x 12 and 20 x 20 draws read up to 500
    # ulps at kappa 1.4e4
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    svd = mpmath.svd_c if field == "complex" else mpmath.svd_r
    rng = np.random.default_rng(53)
    for m, n in [(6, 4), (5, 5), (8, 3), (4, 6), (12, 12), (20, 20), (256, 16)]:
        a = rng.standard_normal((m, n))
        if field == "complex":
            a = a + 1j * rng.standard_normal((m, n))
        if min(m, n) > 8:
            u, _, vh = np.linalg.svd(a, full_matrices=False)
            a = (u * np.exp(rng.uniform(np.log(0.1), 0.0, min(m, n)))) @ vh
        a = a * np.ldexp(1.0, rng.integers(-40, 41, n))
        ref = svd(mpmath.matrix(a.tolist()), compute_uv=False)
        ref = np.sort([float(x) for x in ref])[::-1]
        err = np.abs(jacobi_svd(a)[1] - ref) / (ref * np.finfo(np.float64).eps)
        assert err.max() <= 8.0, (m, n, err)


def _graded_columns(seed, cplx):
    """A Gaussian 3 x 4 with columns scaled by 1e-150 to 1e150, real or with random phases."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4)) * np.logspace(-150, 150, 4)
    return a * np.exp(2j * np.pi * rng.uniform(size=a.shape)) if cplx else a


@functools.cache
def _graded_reference(seed, cplx):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(360):
        svd = mpmath.svd_c if cplx else mpmath.svd_r
        sigma = svd(mpmath.matrix(_graded_columns(seed, cplx).tolist()), compute_uv=False)
        return np.sort([float(x) for x in sigma])[::-1]


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_columns_graded_over_300_decades_converge_accurately(backend, cplx):
    # the squared norm of the 1e-50 column, scaled by 2^-500 with the matrix,
    # underflows to 0: every real input stalled with "no convergence" and the
    # complex ones stalled or gave a singular value of exactly 0.  Now the
    # worst relative error is 1.1e-14 real and 9.1e-16 complex, on the
    # SkylakeX, Haswell and Prescott BLAS cores and on both kernels
    for seed in range(50):
        sigma = jacobi_svd(_graded_columns(seed, cplx))[1]
        ref = _graded_reference(seed, cplx)
        assert (np.abs(sigma - ref) <= 1e-13 * ref).all(), (seed, sigma, ref)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("example", [1, 2])
def test_sweep_columns_equal_per_point_reports(backend, example):
    res = sweep_example(SweepSpec(example=example, steps=25))
    reps = [full_report(make_pair(*case_matrices(example, t))) for t in res.taus.tolist()]
    assert res.columns["exact"].tolist() == [r.exact_sq for r in reps]
    for name, form in CLOSED_FORMS[example].items():
        if name != "exact":
            assert res.columns[name].tolist() == [r.by_name(name).value for r in reps], name
        assert_array_equal(res.columns[f"{name}_closed"], form(res.taus), err_msg=name)


def _joint_factor_cases(rng):
    """(a, b, tol) pairs whose sides differ in rank, nonzero count or orientation, and stacks."""
    for m, n in [(6, 4), (4, 6), (5, 5)]:
        for ra, rb in [(2, 3), (3, 1), (0, 2), (4, 4)]:
            cplx = bool((ra + rb) % 2)
            yield lowrank(rng, m, n, ra, cplx), lowrank(rng, m, n, rb, cplx), None
    # the two special pairs of tools/output_hashes.py whose sides differ in
    # the count of nonzero singular values
    yield np.eye(3)[:, :2], np.zeros((3, 2)), None
    yield np.diag([1.0, 0.0]), np.diag([1.0 / 1.4, 0.2]), None
    # an explicit cutoff between the singular values
    yield np.diag([3.0, 1.0, 0.25]), np.diag([2.0, 0.75, 0.5]), 0.6
    a = rng.standard_normal((5, 3))
    yield a, a + 0.1 * rng.standard_normal((5, 3)), 0.0
    # stacks of pairs, each side with one rank, tall and wide
    for m, n, ra, rb in [(5, 4, 2, 3), (3, 5, 3, 1)]:
        a = np.array([lowrank(rng, m, n, ra, True) for _ in range(4)])
        b = np.array([lowrank(rng, m, n, rb, True) for _ in range(4)])
        yield a, b, None


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_joint_factors_equal_separate_factors_bit_for_bit(backend):
    rng = np.random.default_rng(61)
    for a, b, tol in _joint_factor_cases(rng):
        p = make_pair(a, b, tol=tol)
        for f, x in ((p.fa, a), (p.fb, b)):
            g = svd_factors(x, tol=tol)
            assert (f.rank, np.shape(f.tol)) == (g.rank, np.shape(g.tol))
            for field in ("u1", "sigma", "v1", "tol"):
                mine, alone = np.asarray(getattr(f, field)), np.asarray(getattr(g, field))
                assert mine.shape == alone.shape and mine.tobytes() == alone.tobytes(), field


def _kernel_calls(monkeypatch):
    """The number of matrices in each later call of the process's kernel, as a growing list."""
    kern = get_kernel()
    inner = kern.orthogonalize_columns
    stacks = []

    def counting(w, v, *args, **kwargs):
        stacks.append(int(np.prod(w.shape[:-2])))
        return inner(w, v, *args, **kwargs)

    monkeypatch.setattr(kern, "orthogonalize_columns", counting)
    return stacks


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_a_report_makes_one_kernel_call(backend, monkeypatch):
    stacks = _kernel_calls(monkeypatch)
    rng = np.random.default_rng(67)
    for shape in [(4, 3), (3, 4), (4, 4), (5, 4, 3)]:
        a = rng.standard_normal(shape)
        b = a + 0.1 * rng.standard_normal(shape)
        del stacks[:]
        full_report(make_pair(a, b))
        # a and b as one stack; the spectral norms of e and b+ - a+ take none
        assert stacks == [2 * int(np.prod(shape[:-2]))]


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_a_trace_helper_makes_one_kernel_call(backend, monkeypatch):
    stacks = _kernel_calls(monkeypatch)
    rng = np.random.default_rng(71)
    for shape in [(4, 3), (3, 4), (4, 4), (1, 5)]:
        mm, nn = rng.standard_normal((2,) + shape)
        for helper in (von_neumann_sum, aligning_unitaries):
            del stacks[:]
            helper(mm, nn)
            # m and n as one stack
            assert stacks == [2], helper.__name__
    # so a trace trial of the suite makes two
    del stacks[:]
    list(trace_residuals(1729, 0))
    assert stacks == [2, 2]


def test_spectral_norm_of_e_is_the_same_on_both_kernels(kernels, monkeypatch):
    # |e|_2 takes no kernel, so the backend leaves every bit of it
    if "compiled" not in kernels:
        pytest.skip(NO_COMPILED)
    rng = np.random.default_rng(103)
    pairs = []
    for shape in [(5, 3), (3, 5), (4, 4), (3, 5, 3), (16, 16), (256, 16)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        pairs.append((a, a + 0.1 * rng.standard_normal(shape)))
    # from a values-only Jacobi SVD, the last bit of |e|_2 differed between
    # the kernels at these two trials of the suite at seed 1729
    pairs += [(p.a, p.b) for p in (trial_pair(1729, t)[1] for t in (51, 111))]
    for a, b in pairs:
        es = []
        for name in ("compiled", "python"):
            monkeypatch.setenv("PINVPERTURB_BACKEND", name)
            es.append(np.asarray(make_pair(a, b).norms.es).tobytes())
        assert es[0] == es[1], a.shape


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_spectral_deviation_is_the_same_whichever_norm_runs_first(backend):
    rng = np.random.default_rng(71)
    for shape in [(5, 3), (3, 5), (4, 4), (3, 5, 3), (3, 3, 5)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = a + 0.1 * rng.standard_normal(shape)
        first = make_pair(a, b)
        d_first = deviation_spectral(first)
        es_after = first.norms.es
        after = make_pair(a, b)
        es_first = after.norms.es
        d_after = deviation_spectral(after)
        assert np.asarray(d_first).tobytes() == np.asarray(d_after).tobytes()
        assert np.asarray(es_first).tobytes() == np.asarray(es_after).tobytes()
        alone = spectral_norm(first.pinv_b - first.pinv_a)
        assert np.asarray(d_first).tobytes() == np.asarray(alone).tobytes()
        es_alone = spectral_norm(first.e)
        assert np.asarray(es_first).tobytes() == np.asarray(es_alone).tobytes()
        assert deviation_spectral(first.swapped) is d_first
