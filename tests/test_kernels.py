"""Kernel-level tests: both backends against an independent oracle, and one kernel per process."""

from __future__ import annotations

import importlib.util
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pinvperturb import _jacobi_py, backends
from pinvperturb.backends import available_backends, default_backend, get_kernel
from pinvperturb.bounds import full_report
from pinvperturb.core import jacobi_svd, lstsq_min_norm
from pinvperturb.geometry import make_pair

BACKENDS = available_backends()


@pytest.mark.skipif(
    importlib.util.find_spec("pinvperturb._jacobi_cy") is None,
    reason="no built _jacobi_cy extension file for this interpreter (Cython build not run)",
)
def test_both_backends_present_when_built():
    assert "python" in BACKENDS
    # the extension file exists (find_spec locates it without loading it);
    # if it failed to import this fails loudly, naming the import error
    assert "compiled" in BACKENDS, f"_jacobi_cy did not import: {backends.compiled_import_error}"


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_orthogonalizes_columns(backend):
    rng = np.random.default_rng(11)
    kern = get_kernel(backend)
    for m, n in [(1, 1), (3, 2), (4, 4), (7, 5), (9, 9)]:
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        w = np.array(a, order="F", dtype=np.complex128)
        v = np.asfortranarray(np.eye(n, dtype=np.complex128))
        sweeps = kern.orthogonalize_columns(w, v, 2.220446049250313e-16, 60)
        assert sweeps > 0
        gram = w.conj().T @ w
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-12 * (1.0 + np.abs(gram).max())
        # the rotations are accumulated exactly: w_in @ v == w_out
        assert_allclose(a @ v, w, atol=1e-12 * (1.0 + np.abs(a).max()))
        assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-13)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_svd_matches_reference_singular_values(backend, field, monkeypatch):
    monkeypatch.setenv("PINVPERTURB_BACKEND", backend)
    rng = np.random.default_rng(23)
    for m, n in [(1, 1), (2, 2), (3, 2), (2, 3), (5, 3), (3, 5), (6, 6), (8, 5), (1, 7)]:
        a = rng.standard_normal((m, n))
        if field == "complex":
            a = a + 1j * rng.standard_normal((m, n))
        u, s, v = jacobi_svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert_allclose(s, ref, atol=1e-12 * (1.0 + ref[0]))
        k = min(m, n)
        assert_allclose((u[:, :k] * s) @ v[:, :k].conj().T, a, atol=1e-12 * (1.0 + ref[0]))
        assert_allclose(u.conj().T @ u, np.eye(m), atol=1e-12 * max(m, n))
        assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-12 * max(m, n))


@pytest.mark.parametrize("backend", BACKENDS)
def test_known_rank_deficient_case(backend, monkeypatch):
    monkeypatch.setenv("PINVPERTURB_BACKEND", backend)
    # the Gram matrix trick: [[1,2],[2,4]] has singular values exactly (5, 0)
    u, s, v = jacobi_svd(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert_allclose(s, [5.0, 0.0], atol=1e-13)


@pytest.mark.parametrize("backend", BACKENDS)
def test_zero_matrix(backend, monkeypatch):
    monkeypatch.setenv("PINVPERTURB_BACKEND", backend)
    u, s, v = jacobi_svd(np.zeros((3, 2)))
    assert_allclose(s, [0.0, 0.0], atol=0.0)
    assert_allclose(u, np.eye(3), atol=0.0)
    assert_allclose(v.conj().T @ v, np.eye(2), atol=0.0)


def test_backends_agree_with_each_other(monkeypatch):
    if len(BACKENDS) < 2:
        pytest.skip("only one backend importable")
    rng = np.random.default_rng(31)
    for _ in range(25):
        m, n = rng.integers(1, 9, 2)
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        monkeypatch.setenv("PINVPERTURB_BACKEND", "compiled")
        s_c = jacobi_svd(a)[1]
        monkeypatch.setenv("PINVPERTURB_BACKEND", "python")
        s_p = jacobi_svd(a)[1]
        assert_allclose(s_c, s_p, atol=1e-13 * (1.0 + s_p[0]))


def test_graded_singular_values_recovered(monkeypatch):
    # widely spread spectrum, fixed by construction
    rng = np.random.default_rng(7)
    s_true = np.array([1.0, 1e-2, 1e-4, 1e-6])
    q1 = np.linalg.qr(rng.standard_normal((6, 4)))[0]
    q2 = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    a = (q1 * s_true) @ q2.conj().T
    for backend in BACKENDS:
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

    monkeypatch.setattr(backends, "_jacobi_cy", SimpleNamespace(orthogonalize_columns=compiled))
    monkeypatch.setattr(_jacobi_py, "orthogonalize_columns", stray)
    monkeypatch.setenv("PINVPERTURB_BACKEND", "compiled")
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    b = a + 0.1 * rng.standard_normal((4, 3))

    full_report(make_pair(a, b))
    assert calls == {"compiled": 4, "python": 0}
    lstsq_min_norm(a, rng.standard_normal(4))
    assert calls == {"compiled": 5, "python": 0}
