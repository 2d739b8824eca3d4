"""Dense linear algebra core.

Full singular value decompositions come from a one-sided Jacobi kernel,
the one ``backends.get_kernel()`` picks for the whole process (compiled or
numpy, chosen only through ``PINVPERTURB_BACKEND``); on top of that sit the
Moore-Penrose inverse, spectral/Frobenius norms, orthogonal projectors and
minimum-norm least squares.  Everything works internally in complex128 and
accepts any real or complex 2-d array-like.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backends


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def as_matrix(x):
    """Convert to a 2-d complex128 array, rejecting non-finite entries."""
    a = np.asarray(x)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got shape {a.shape}")
    a = a.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def conj_transpose(a):
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def matmul(a, b):
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def default_cutoff(shape, sigma_max):
    """Rank cutoff used when no absolute tolerance is given.

    max(m, n) units in the last place of the largest singular value; values
    at or below the cutoff count as null directions.
    """
    return max(shape) * float(np.spacing(float(sigma_max)))


@dataclass(frozen=True)
class SvdFactors:
    """Full decomposition a = u @ S @ v* with a resolved rank cutoff.

    ``u`` is m x m unitary, ``v`` is n x n unitary, ``sigma`` holds the
    min(m, n) singular values sorted decreasing, and ``sigma[i] > tol``
    exactly for ``i < rank``.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    tol: float

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[0])

    @property
    def sigma1(self):
        return self.sigma[: self.rank]

    @property
    def u1(self):
        return self.u[:, : self.rank]

    @property
    def u2(self):
        return self.u[:, self.rank :]

    @property
    def v1(self):
        return self.v[:, : self.rank]

    @property
    def v2(self):
        return self.v[:, self.rank :]

    @property
    def norm2(self):
        """Largest singular value."""
        return float(self.sigma[0])

    @property
    def pinv_norm2(self):
        """Largest singular value of the pseudoinverse, 0 for the zero matrix."""
        return 1.0 / float(self.sigma1[-1]) if self.rank else 0.0


def _complete_basis(u1, m):
    """Square unitary whose leading columns are the orthonormal ``u1``."""
    k = u1.shape[1]
    if k == 0:
        return np.eye(m, dtype=np.complex128)
    out = np.empty((m, m), dtype=np.complex128)
    out[:, :k] = u1
    if k < m:
        q = np.linalg.qr(u1, mode="complete")[0]
        out[:, k:] = q[:, k:]
    return out


# the kernel's convergence threshold (relative to the column norms) and pass limit
JACOBI_EPS = float(np.finfo(np.float64).eps)
JACOBI_MAX_SWEEPS = 60


def jacobi_svd(a):
    """Full SVD via one-sided Jacobi: returns (u, sigma, v), all factors full.

    ``sigma`` is sorted decreasing with min(m, n) entries.  Wide inputs are
    factored through their conjugate transpose.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        u, sig, v = jacobi_svd(a.conj().T)
        return v, sig, u
    w = np.array(a, dtype=np.complex128, order="F", copy=True)
    v = np.asfortranarray(np.eye(n, dtype=np.complex128))
    kernel = backends.get_kernel()
    sweeps = kernel.orthogonalize_columns(w, v, JACOBI_EPS, JACOBI_MAX_SWEEPS)
    if sweeps < 0:
        raise RuntimeError(
            f"no convergence in {JACOBI_MAX_SWEEPS} jacobi sweeps for shape {a.shape}"
        )
    sig = np.linalg.norm(w, axis=0)
    order = np.argsort(-sig, kind="stable")
    sig = sig[order]
    w = w[:, order]
    v = np.ascontiguousarray(v[:, order])
    k = int(np.count_nonzero(sig > 0.0))
    u1 = w[:, :k] / sig[:k]
    u = _complete_basis(u1, m)
    return u, sig, v


def svd_factors(a, tol=None):
    """Factor ``a`` and resolve its numerical rank.

    ``tol=None`` applies the default cutoff from ``default_cutoff``; an
    explicit ``tol`` is an absolute threshold.
    """
    a = as_matrix(a)
    u, sig, v = jacobi_svd(a)
    cut = default_cutoff(a.shape, sig[0]) if tol is None else float(tol)
    rank = int(np.count_nonzero(sig > cut))
    return SvdFactors(u=u, sigma=sig, v=v, rank=rank, tol=cut)


def pinv(a, tol=None):
    """Moore-Penrose inverse v1 @ diag(1/sigma1) @ u1*.

    Accepts a matrix or precomputed ``SvdFactors``.
    """
    f = a if isinstance(a, SvdFactors) else svd_factors(a, tol=tol)
    m, n = f.shape
    if f.rank == 0:
        return np.zeros((n, m), dtype=np.complex128)
    return (f.v1 / f.sigma1) @ f.u1.conj().T


def spectral_norm(a):
    """Largest singular value."""
    return float(jacobi_svd(a)[1][0])


def frobenius_norm(a):
    return float(np.linalg.norm(as_matrix(a), "fro"))


def projector_col(a, tol=None):
    """Orthogonal projector onto the column space (equals a @ pinv(a))."""
    f = a if isinstance(a, SvdFactors) else svd_factors(a, tol=tol)
    return f.u1 @ f.u1.conj().T


def projector_row(a, tol=None):
    """Orthogonal projector onto the row space (equals pinv(a) @ a)."""
    f = a if isinstance(a, SvdFactors) else svd_factors(a, tol=tol)
    return f.v1 @ f.v1.conj().T


def lstsq_min_norm(a, b, tol=None):
    """Minimum-norm least-squares solution pinv(a) @ b.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    a = as_matrix(a)
    bb = np.asarray(b, dtype=np.complex128)
    vec = bb.ndim == 1
    if vec:
        bb = bb[:, None]
    if bb.ndim != 2 or bb.shape[0] != a.shape[0]:
        raise ShapeError(
            f"cannot solve a {a.shape} system with right-hand side of shape {np.asarray(b).shape}"
        )
    x = pinv(a, tol=tol) @ bb
    return x[:, 0] if vec else x


def penrose_residuals(a, x):
    """Max-entry residuals of the four defining equations for candidate ``x``.

    Returns (a x a - a, x a x - x, hermiticity of a x, hermiticity of x a).
    """
    a = as_matrix(a)
    x = as_matrix(x)
    if x.shape != (a.shape[1], a.shape[0]):
        raise ShapeError(f"candidate shape {x.shape} does not match {a.shape}")
    ax = a @ x
    xa = x @ a
    return (
        float(np.abs(ax @ a - a).max()),
        float(np.abs(xa @ x - x).max()),
        float(np.abs(ax.conj().T - ax).max()),
        float(np.abs(xa.conj().T - xa).max()),
    )
