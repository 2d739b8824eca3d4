"""Core API tests: pseudoinverse contract, norms, least squares."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pinvperturb.core import (
    ShapeError,
    as_matrix,
    as_stack,
    default_cutoff,
    jacobi_svd,
    lstsq_min_norm,
    penrose_residuals,
    pinv,
    spectral_norm,
    svd_factors,
)

from helpers import BACKENDS, lowrank


def test_as_matrix_validation():
    with pytest.raises(ShapeError):
        as_matrix(np.zeros(3))
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 1.0]])
    with pytest.raises(ValueError):
        as_matrix([[np.nan]])
    # one dtype per call: float64 when every input is real, complex128 otherwise
    for x in ([[1, 2], [3, 4]], [[True]], np.ones((2, 2), dtype=np.float32), np.eye(2)):
        assert as_matrix(x).dtype == np.float64
    for x in ([[1j]], np.ones((2, 2), dtype=np.complex64)):
        assert as_matrix(x).dtype == np.complex128
    a, b = as_matrix(np.eye(2), [[1j, 0], [0, 1]])
    assert a.dtype == b.dtype == np.complex128 and a.tolist() == np.eye(2).tolist()
    assert [x.dtype for x in as_stack(np.eye(2), np.zeros((3, 2, 2)))] == [np.float64] * 2
    with pytest.raises(ShapeError):
        as_matrix(np.eye(2), np.zeros(2))


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_real_input_is_factored_in_real_arithmetic(backend):
    rng = np.random.default_rng(29)
    stack = np.array([lowrank(rng, 5, 4, 4, False) for _ in range(2)])
    for a in (lowrank(rng, 6, 4, 3, False), lowrank(rng, 3, 5, 3, False), stack):
        u, sigma, v = jacobi_svd(a)
        f = svd_factors(a)
        assert {x.dtype for x in (u, sigma, v, f.u1, f.v1, pinv(a))} == {np.dtype(np.float64)}
        assert_allclose(sigma, np.linalg.svd(a, compute_uv=False), rtol=0, atol=1e-13 * sigma.max())
    b = rng.standard_normal(6)
    assert lstsq_min_norm(lowrank(rng, 6, 4, 3, False), b).dtype == np.float64


def test_real_matrix_with_a_complex_operand_is_a_complex_call():
    rng = np.random.default_rng(31)
    a = lowrank(rng, 5, 3, 2, False)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    x = lstsq_min_norm(a, z)
    assert x.tobytes() == lstsq_min_norm(a.astype(complex), z).tobytes()
    p = pinv(a.astype(complex))
    assert [r.tobytes() for r in penrose_residuals(a, p)] == [
        r.tobytes() for r in penrose_residuals(a.astype(complex), p)
    ]


def _huge(field):
    """Finite 4 x 3 entries up to 1.5e308 whose sigma_1, above 3.4e308, exceeds the double range.

    Full rank, because an exactly rank-one input can stall the kernel instead.
    """
    m = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, -1.0], [1.0, 0.0, 1.0]])
    return m * (1.5e308 if field == "real" else 1e308 + 1e308j)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["real", "complex"])
def test_overflowing_singular_values_rejected(field):
    with pytest.raises(RuntimeError, match=r"non-finite singular values .* shape \(4, 3\)"):
        jacobi_svd(_huge(field))
    with pytest.raises(RuntimeError, match=r"non-finite singular values .* shape \(4, 3\)"):
        spectral_norm(_huge(field))


@pytest.mark.filterwarnings("error")
def test_wide_input_error_names_its_own_shape():
    # a wide input is factored through its transpose, but the error is about the input
    a = _huge("real").T
    with pytest.raises(RuntimeError, match=r"shape \(3, 4\)"):
        jacobi_svd(a)
    with pytest.raises(RuntimeError, match=r"shape \(3, 4\)"):
        spectral_norm(a)


def test_penrose_equations_random():
    rng = np.random.default_rng(3)
    for m, n in [(1, 1), (2, 2), (4, 3), (3, 4), (6, 6), (8, 5)]:
        for r in {0, 1, min(m, n), min(m, n) // 2}:
            for cplx in (False, True):
                a = lowrank(rng, m, n, r, cplx)
                f = svd_factors(a)
                assert f.rank == r
                x = pinv(f)
                scale = 1.0 + f.norm2 * f.pinv_norm2
                assert max(penrose_residuals(a, x)) <= 1e-10 * scale


def test_pinv_involution():
    rng = np.random.default_rng(5)
    a = lowrank(rng, 5, 4, 3, True)
    back = pinv(pinv(a))
    assert_allclose(back, a, atol=1e-10 * (1.0 + jacobi_svd(a)[1][0]))


def test_pinv_matches_reference():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m, n = rng.integers(1, 7, 2)
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        assert_allclose(pinv(a), np.linalg.pinv(a), atol=1e-11)


def test_pinv_diagonal_closed_form():
    x = pinv(np.diag([2.0, 0.0, 0.5]))
    assert_allclose(x, np.diag([0.5, 0.0, 2.0]), atol=1e-14)


def test_rank_cutoff_policy():
    # explicit absolute tolerance: values at or below it are null
    a = np.diag([1.0, 1e-9])
    assert svd_factors(a).rank == 2
    assert svd_factors(a, tol=1e-9).rank == 1
    assert svd_factors(a, tol=0.5e-9).rank == 2
    cut = default_cutoff((4, 7), 3.0)
    assert cut == 7 * np.spacing(3.0)


def test_rank_cutoff_of_the_wrong_type_names_it():
    # True was the cutoff 1.0, a string failed in float() and an array with a TypeError
    a = np.diag([1.0, 1e-9])
    for tol in (True, "x", np.array([0.1, 0.2])):
        with pytest.raises(ValueError, match=r"^tol must be a real number"):
            svd_factors(a, tol=tol)
    for tol in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"^rank cutoff must be finite and non-negative"):
            svd_factors(a, tol=tol)
    assert svd_factors(a, tol=np.float32(1e-6)).rank == 1
    assert svd_factors(a, tol=0).rank == 2


def test_penrose_residuals_name_the_expected_shape():
    a = np.ones((2, 3))
    with pytest.raises(ShapeError, match=r"candidate shape \(2, 3\) does not match \(3, 2\)"):
        penrose_residuals(a, a)


def test_spectral_norm_of_pinv_is_reciprocal():
    rng = np.random.default_rng(13)
    a = lowrank(rng, 6, 4, 2, False)
    f = svd_factors(a)
    assert abs(jacobi_svd(pinv(a))[1][0] * f.sigma1[-1] - 1.0) <= 1e-9


def test_lstsq_known_value():
    # overdetermined averaging: A = [[1],[1]], b = (1, 3) -> x = 2
    x = lstsq_min_norm([[1.0], [1.0]], [1.0, 3.0])
    assert_allclose(x, [2.0], atol=1e-12)


def test_lstsq_rejects_non_finite_rhs():
    for b in ([np.nan, 1.0], [1.0, np.inf], np.array([[1.0], [-np.inf]])):
        with pytest.raises(ValueError, match="entries must be finite"):
            lstsq_min_norm(np.eye(2), b)


def test_lstsq_min_norm_among_optima():
    rng = np.random.default_rng(19)
    a = lowrank(rng, 4, 6, 2, False)
    b = rng.standard_normal(4)
    x0 = lstsq_min_norm(a, b)
    r0 = np.linalg.norm(a @ x0 - b)
    f = svd_factors(a)
    for _ in range(20):
        w = rng.standard_normal(6)
        w_null = w - f.v1 @ (f.v1.conj().T @ w)
        cand = x0 + w_null
        assert np.linalg.norm(a @ cand - b) <= r0 + 1e-9 * (1.0 + r0)
        assert np.linalg.norm(cand) >= np.linalg.norm(x0) - 1e-9


def test_lstsq_matrix_rhs_and_shape_errors():
    a = np.eye(3)
    assert lstsq_min_norm(a, np.ones((3, 2))).shape == (3, 2)
    with pytest.raises(ShapeError):
        lstsq_min_norm(a, np.ones(4))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
    cplx=st.booleans(),
)
def test_penrose_property(m, n, seed, cplx):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if cplx:
        a = a + 1j * rng.standard_normal((m, n))
    f = svd_factors(a)
    x = pinv(f)
    assert max(penrose_residuals(a, x)) <= 1e-10 * (1.0 + f.norm2 * f.pinv_norm2)


def test_stack_factors_match_its_matrices():
    rng = np.random.default_rng(53)
    stack = np.array([lowrank(rng, 5, 3, 2, True) for _ in range(4)])
    f = svd_factors(stack)
    assert f.rank == 2 and f.u1.shape == (4, 5, 2) and f.v1.shape == (4, 3, 2)
    assert f.norm2.shape == f.pinv_norm2.shape == (4,)
    for a, x, sigma in zip(stack, pinv(stack), f.sigma):
        assert np.array_equal(x, pinv(a))
        assert np.array_equal(sigma, svd_factors(a).sigma)
    zero = pinv(np.zeros((2, 3, 4)))
    # a product over no singular directions: +0.0 everywhere
    assert zero.shape == (2, 4, 3) and not np.signbit(zero.view(np.float64)).any()


@pytest.mark.filterwarnings("error")
def test_out_of_range_pseudoinverse_raises():
    # 1/sigma = 1e310 leaves the double range; this used to be a NaN matrix
    tiny = 1e-310 * np.eye(2)
    with pytest.raises(ArithmeticError, match=r"^pseudoinverse failed: overflow"):
        pinv(tiny)
    with pytest.raises(ArithmeticError, match=r"^pseudoinverse failed: overflow"):
        lstsq_min_norm(tiny, np.ones(2))
    # its norm alone too, for a matrix and a stack; it used to be inf with a warning
    for x in (tiny, np.array([np.eye(2), tiny])):
        with pytest.raises(ArithmeticError, match=r"^pseudoinverse failed: overflow"):
            svd_factors(x).pinv_norm2
    # a representable pseudoinverse whose product with b overflows
    with pytest.raises(ArithmeticError, match=r"^least-squares solution failed: overflow"):
        lstsq_min_norm(1e-300 * np.eye(2), [1e300, 1.0])


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_stack_with_mixed_nonzero_counts_equals_its_matrices(backend):
    # 3, 1, 0 and 2 nonzero singular values in one 2 x 4 stack, tall and wide
    rng = np.random.default_rng(73)
    for shape in [(4, 3), (3, 4)]:
        one, two = np.zeros(shape), np.zeros(shape, dtype=complex)
        one[0, 0] = 0.5
        two[:2, :2] = [[1.0, 2.0j], [3.0, -1.0]]
        mats = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape), one, 0 * one, two]
        stack = np.array([mats, mats[::-1]])
        u, sigma, v = jacobi_svd(stack)
        assert u.shape == (2, 4, shape[0], 3) and v.shape == (2, 4, shape[1], 3)
        for i in np.ndindex(stack.shape[:2]):
            alone = jacobi_svd(stack[i])
            k = alone[0].shape[-1]
            assert sigma[i].tobytes() == alone[1].tobytes()
            assert u[i][:, :k].tobytes() == alone[0].tobytes()
            assert v[i][:, :k].tobytes() == alone[2].tobytes()
            # past its own count, v is zero and u stays orthonormal; the other
            # way round for a wide stack, factored through its conjugate transpose
            zero, unitary = (u[i], v[i]) if shape[0] < shape[1] else (v[i], u[i])
            assert not zero[:, k:].any()
            assert_allclose(unitary.conj().T @ unitary, np.eye(3), atol=1e-15)
    with pytest.raises(ShapeError):
        jacobi_svd(np.zeros(3))


def test_stack_with_mixed_ranks_rejected():
    with pytest.raises(ValueError, match=r"same rank, got 1, 2"):
        svd_factors(np.array([np.diag([1.0, 0.1]), np.eye(2)]), tol=0.5)
    with pytest.raises(ShapeError):
        svd_factors(np.zeros((0, 2, 2)))
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((1, 2, 2)))


def _spectral_norm_cases(rng, field):
    """(kind, matrix) pairs: Gaussian square, tall and wide, low rank, graded, sigma_1 ~ sigma_2."""

    def draw(m, n):
        x = rng.standard_normal((m, n))
        return x + 1j * rng.standard_normal((m, n)) if field == "complex" else x

    for m, n in [(5, 5), (8, 3), (3, 8), (12, 12), (20, 20), (40, 6), (6, 40)]:
        yield "gaussian", draw(m, n)
    for m, n, r in [(6, 4, 2), (4, 6, 1), (7, 7, 3)]:
        yield "rank-deficient", lowrank(rng, m, n, r, field == "complex")
    for m, n in [(6, 4), (5, 5), (4, 6)]:
        yield "graded", draw(m, n) * np.ldexp(1.0, rng.integers(-40, 41, n))
    for m, n in [(6, 4), (5, 5), (4, 6)]:
        k = min(m, n)
        sigma = np.zeros((m, n))
        sigma[range(k), range(k)] = np.r_[1.0, 1.0 - 1e-12, np.linspace(0.5, 0.1, k - 2)]
        q1, q2 = np.linalg.qr(draw(m, m))[0], np.linalg.qr(draw(n, n))[0]
        yield "sigma_1 ~ sigma_2", q1 @ sigma @ q2.conj().T


@pytest.mark.parametrize("field", ["real", "complex"])
def test_spectral_norm_agrees_with_60_digits(field):
    # the largest eigenvalue of the Gram matrix carries sigma_1 to a few ulps
    # whatever the other singular values: at seed 83 the worst relative error
    # is 1.33 eps, and over seeds 1 to 8 of these draws 2.67 eps; 4 eps is the bound
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    svd = mpmath.svd_c if field == "complex" else mpmath.svd_r
    rng = np.random.default_rng(83)
    for kind, a in _spectral_norm_cases(rng, field):
        ref = max(float(s) for s in svd(mpmath.matrix(a.tolist()), compute_uv=False))
        err = abs(spectral_norm(a) - ref) / (ref * np.finfo(np.float64).eps)
        assert err <= 4.0, (kind, a.shape, err)


def test_spectral_norm_of_zero_is_positive_zero():
    # its bytes, so that no report prints -0
    for x in (np.zeros((3, 2)), np.zeros((2, 3), dtype=complex), np.zeros((2, 4, 4))):
        assert np.asarray(spectral_norm(x)).tobytes() == np.zeros(x.shape[:-2]).tobytes()


def test_spectral_norm_of_a_stack_equals_its_matrices():
    rng = np.random.default_rng(89)
    for shape in [(5, 3), (3, 5), (4, 4)]:
        mats = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(3)]
        mats += [np.zeros(shape), 1e-200 * mats[0], 1e200 * mats[1], lowrank(rng, *shape, 1, True)]
        stack = np.array([mats, mats[::-1]])
        norms = spectral_norm(stack)
        assert norms.shape == (2, len(mats))
        for i in np.ndindex(stack.shape[:2]):
            assert norms[i].tobytes() == np.asarray(spectral_norm(stack[i])).tobytes()


def test_spectral_norm_scales_exactly_by_powers_of_two():
    rng = np.random.default_rng(97)
    for shape in [(5, 3), (3, 5), (6, 6)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = spectral_norm(a)
        for j in [-900, -517, -64, -1, 1, 53, 640, 900]:
            assert spectral_norm(np.ldexp(1.0, j) * a) == np.ldexp(s, j), (shape, j)


def test_spectral_norm_of_a_wide_matrix_is_that_of_its_conjugate_transpose():
    rng = np.random.default_rng(101)
    for m, n in [(1, 4), (3, 5), (2, 20)]:
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        assert spectral_norm(a).tobytes() == spectral_norm(a.conj().T).tobytes()
        stack = np.array([a, 2.0 * a])
        assert spectral_norm(stack).tobytes() == spectral_norm(stack.conj().swapaxes(-1, -2)).tobytes()
