"""Dense linear algebra core.

Thin singular value decompositions come from a one-sided Jacobi kernel,
the one ``backends.get_kernel()`` picks for the whole process (the C kernel
when built, else numpy; chosen only through ``PINVPERTURB_BACKEND``).  Its
threshold and pass limit are ``JACOBI_EPS`` and ``JACOBI_MAX_SWEEPS`` here,
and nowhere else.  On top of that sit the Moore-Penrose inverse,
spectral/Frobenius norms, orthogonal projectors and minimum-norm least
squares.  Everything works internally in complex128 and accepts any real or
complex 2-d array-like with finite entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backends


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _finite(a):
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_matrix(x):
    """Convert to a 2-d complex128 array, rejecting non-finite entries."""
    a = np.asarray(x)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got shape {a.shape}")
    return _finite(a.astype(np.complex128, copy=False))


def default_cutoff(shape, sigma_max):
    """Rank cutoff used when no absolute tolerance is given.

    max(m, n) units in the last place of the largest singular value; values
    at or below the cutoff count as null directions.
    """
    return max(shape) * float(np.spacing(float(sigma_max)))


@dataclass(frozen=True)
class SvdFactors:
    """Rank-split factors: a = u1 @ diag(sigma1) @ v1* up to values <= tol.

    ``u1`` (m x rank) and ``v1`` (n x rank) have orthonormal columns,
    ``sigma`` holds all min(m, n) singular values sorted decreasing, and
    ``sigma[i] > tol`` exactly for ``i < rank``.  The null blocks u2 and v2
    are not stored; ``geometry`` reads them through I - u1 u1* and I - v1 v1*.
    """

    u1: np.ndarray
    sigma: np.ndarray
    v1: np.ndarray
    rank: int
    tol: float

    @property
    def shape(self):
        return (self.u1.shape[0], self.v1.shape[0])

    @property
    def sigma1(self):
        return self.sigma[: self.rank]

    @property
    def norm2(self):
        """Largest singular value."""
        return float(self.sigma[0])

    @property
    def pinv_norm2(self):
        """Largest singular value of the pseudoinverse, 0 for the zero matrix."""
        return 1.0 / float(self.sigma1[-1]) if self.rank else 0.0


# the kernel's convergence threshold (relative to the column norms) and pass limit
JACOBI_EPS = float(np.finfo(np.float64).eps)
JACOBI_MAX_SWEEPS = 60


def jacobi_svd(a):
    """Thin SVD via one-sided Jacobi: returns (u, sigma, v).

    ``sigma`` holds all min(m, n) singular values sorted decreasing; ``u``
    (m x k) and ``v`` (n x k) hold the singular vectors of its k nonzero
    values, so ``a == (u * sigma[:k]) @ v*``.  A wide input is factored
    through its conjugate transpose, and errors name the input's own shape.

    The kernel sees the input scaled by 2^-k, with k the exponent of its
    largest entry, so its squared column norms stay in range at any scale
    of input; power-of-two scaling is exact, and sigma is scaled back.
    """
    a = as_matrix(a)
    wide = a.shape[0] < a.shape[1]
    w = np.array(a.conj().T if wide else a, dtype=np.complex128, order="F", copy=True)
    parts = w.reshape(-1, order="F").view(np.float64)  # a view: w is F-ordered and fresh
    k = math.frexp(np.abs(parts).max())[1]
    np.ldexp(parts, -k, out=parts)
    n = w.shape[1]
    v = np.asfortranarray(np.eye(n, dtype=np.complex128))
    kernel = backends.get_kernel()
    sweeps = kernel.orthogonalize_columns(w, v, JACOBI_EPS, JACOBI_MAX_SWEEPS)
    if sweeps < 0:
        raise RuntimeError(
            f"no convergence in {JACOBI_MAX_SWEEPS} jacobi sweeps for shape {a.shape}"
        )
    scaled = np.linalg.norm(w, axis=0)
    order = np.argsort(-scaled, kind="stable")
    scaled = scaled[order]
    with np.errstate(over="ignore"):
        sig = np.ldexp(scaled, k)
    if not np.all(np.isfinite(sig)):
        raise RuntimeError(f"non-finite singular values (overflow) for shape {a.shape}")
    keep = order[: int(np.count_nonzero(sig > 0.0))]
    u = np.ascontiguousarray(w[:, keep] / scaled[: keep.size])
    v = np.ascontiguousarray(v[:, keep])
    return (v, sig, u) if wide else (u, sig, v)


def svd_factors(a, tol=None):
    """Factor ``a`` and resolve its numerical rank.

    ``tol=None`` applies the default cutoff from ``default_cutoff``; an
    explicit ``tol`` is an absolute threshold, finite and non-negative.
    """
    a = as_matrix(a)
    if tol is not None and not 0.0 <= float(tol) < np.inf:
        raise ValueError(f"rank cutoff must be finite and non-negative, got {tol}")
    u, sig, v = jacobi_svd(a)
    cut = default_cutoff(a.shape, sig[0]) if tol is None else float(tol)
    rank = int(np.count_nonzero(sig > cut))
    return SvdFactors(u1=u[:, :rank], sigma=sig, v1=v[:, :rank], rank=rank, tol=cut)


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

    ``b`` may be a vector or a matrix of stacked right-hand sides; its
    entries must be finite, like those of ``a``.
    """
    a = as_matrix(a)
    bb = _finite(np.asarray(b, dtype=np.complex128))
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
