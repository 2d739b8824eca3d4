"""Dense linear algebra core.

Thin singular value decompositions come from a one-sided Jacobi kernel,
the one ``backends.get_kernel()`` picks for the whole process (the C kernel
when built, else numpy; chosen only through ``PINVPERTURB_BACKEND``).  Its
threshold, ``jacobi_threshold(n)`` = sqrt(n) ``JACOBI_EPS`` for columns of
length n, and its pass limit ``JACOBI_MAX_SWEEPS`` are set here and nowhere
else.  On top of that sit the Moore-Penrose inverse,
minimum-norm least squares and the residuals of the Penrose equations.
``spectral_norm`` gives the largest singular value alone, from the largest
eigenvalue of a Gram matrix, with no kernel call.  Everything works
internally in complex128 and accepts any real or complex 2-d array-like
with finite entries.  ``svd_factors`` and ``pinv`` also take a stack
``(B, m, n)`` of same-shape matrices, ``jacobi_svd`` and ``spectral_norm``
a stack of any leading shape, and each factorization takes one kernel call
for the whole stack; a matrix is the one-element case.  A stack's thin
factors keep as many vectors as its largest count of nonzero singular
values, with zero ``v`` (wide: ``u``) columns past each matrix's own count.
Only the rank is shared, so ``factor_pair`` factors a and b as one stack,
each at its own.  ``penrose_residuals`` takes a stack too, with one
residual per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backends


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


# overflow, division by zero and invalid operations raise FloatingPointError
# in the pseudoinverse, the product norms, the exact deviations and the estimators
@np.errstate(over="raise", divide="raise", invalid="raise")
def checked(what, fn, *args):
    """``fn(*args)`` under strict arithmetic; an arithmetic error says that ``what`` failed."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        # an overflow's own message is only "(34, 'Numerical result out of range')"
        detail = exc.args[-1] if exc.args else type(exc).__name__
        raise type(exc)(f"{what} failed: {detail}") from exc


def _finite(a):
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _as_complex(x, ndims, what):
    a = np.asarray(x)
    if a.ndim not in ndims:
        raise ShapeError(f"expected {what}, got shape {a.shape}")
    if min(a.shape) < 1:
        raise ShapeError(f"matrix dimensions must be positive, got shape {a.shape}")
    return _finite(a.astype(np.complex128, copy=False))


def as_matrix(x):
    """Convert to a 2-d complex128 array, rejecting non-finite entries."""
    return _as_complex(x, (2,), "a 2-d matrix")


def as_stack(x):
    """``as_matrix``, or the same for a 3-d stack of same-shape matrices."""
    return _as_complex(x, (2, 3), "a 2-d matrix or a 3-d stack of them")


def _one_per_stack(values, what):
    """The value that every matrix of a stack shares; a stack that mixes values is a ValueError."""
    values = np.asarray(values)
    if values.ndim and values.min() != values.max():
        found = ", ".join(map(str, np.unique(values)))
        raise ValueError(f"every matrix of a stack needs the same {what}, got {found}")
    return int(values.max())


def conj_transpose(x):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def default_cutoff(shape, sigma_max):
    """Rank cutoff used when no absolute tolerance is given.

    max(m, n) units in the last place of the largest singular value; values
    at or below the cutoff count as null directions.  ``shape`` may be a
    stack's, with one ``sigma_max`` per matrix.
    """
    return max(shape[-2:]) * np.spacing(sigma_max)


@dataclass(frozen=True)
class SvdFactors:
    """Rank-split factors: a = u1 @ diag(sigma1) @ v1* up to values <= tol.

    ``u1`` (m x rank) and ``v1`` (n x rank) have orthonormal columns,
    ``sigma`` holds all min(m, n) singular values sorted decreasing, and
    ``sigma[i] > tol`` exactly for ``i < rank``.  The null blocks u2 and v2
    are not stored; ``geometry`` reads them through I - u1 u1* and I - v1 v1*.
    The factors of a stack carry a leading axis, and one ``rank`` for all.
    """

    u1: np.ndarray
    sigma: np.ndarray
    v1: np.ndarray
    rank: int
    tol: float

    @property
    def shape(self):
        return (self.u1.shape[-2], self.v1.shape[-2])

    @property
    def sigma1(self):
        return self.sigma[..., : self.rank]

    @property
    def norm2(self):
        """Spectral norm of the kept part: the largest kept singular value, 0 at rank 0."""
        if not self.rank:
            return np.zeros(self.sigma.shape[:-1])[()]
        return self.sigma[..., 0][()]

    @property
    def kept(self):
        """The kept part u1 @ diag(sigma1) @ v1*, the matrix that ``pinv`` inverts."""
        return (self.u1 * self.sigma1[..., None, :]) @ conj_transpose(self.v1)

    @property
    def pinv_norm2(self):
        """Largest singular value of the pseudoinverse, 0 for the zero matrix.

        A value beyond the double range is an ArithmeticError, as in ``pinv``.
        """
        if not self.rank:
            return np.zeros(self.sigma.shape[:-1])[()]
        return checked("pseudoinverse", np.divide, 1.0, self.sigma1[..., -1])


# the unit of the kernel's convergence threshold, and its pass limit
JACOBI_EPS = float(np.finfo(np.float64).eps)
JACOBI_MAX_SWEEPS = 60


def jacobi_threshold(n):
    """The kernel's threshold on |w_p* w_q| / (|w_p| |w_q|) for columns of length n: sqrt(n) eps.

    As in LAPACK xGESVJ.  A pair's cosine is only known to about sqrt(n) eps,
    so a pair below that is left alone: with plain eps, a pair of columns that
    start orthogonal up to roundoff can sit above the threshold while its
    rotation changes no bit, and every sweep repeats it.
    """
    return JACOBI_EPS * np.sqrt(n)


def _stack_index(shape):
    """Each matrix's index in a stack of ``shape``, none for a matrix.

    With a trailing axis, so that ``x[index + (p,)]`` holds the rows ``p[i]``
    of each ``x[i]``; the columns are the rows of ``x.swapaxes(-1, -2)``.
    """
    return tuple(i[..., None] for i in np.indices(shape, sparse=True))


def _any_stack(a):
    return _as_complex(a, range(2, 65), "a matrix or a stack of them")  # numpy allows 64 axes


def _scaled(a):
    """``(w, k)``: each matrix of ``a``, or its conjugate transpose when wide, times 2^-k.

    ``w`` is a fresh C-ordered copy with m >= n; k, the exponent of the
    matrix's largest real or imaginary part, has two trailing unit axes.
    """
    w = np.array(conj_transpose(a) if a.shape[-2] < a.shape[-1] else a, order="C")
    parts = w.view(np.float64)
    k = np.frexp(np.abs(parts).reshape(parts.shape[:-2] + (1, -1)).max(axis=-1, keepdims=True))[1]
    np.ldexp(parts, -k, out=parts)
    return w, k


def _scaled_back(s, k, shape):
    """``s`` times 2^k; a value beyond the double range is a RuntimeError naming ``shape``."""
    with np.errstate(over="ignore"):
        s = np.ldexp(s, k)
    if not np.all(np.isfinite(s)):
        raise RuntimeError(f"non-finite singular values (overflow) for shape {shape}")
    return s


def spectral_norm(x):
    """Largest singular value of a matrix, or of each matrix of a stack of any leading shape.

    Each matrix w, taken as ``jacobi_svd`` takes it (the conjugate transpose
    of a wide input, scaled by 2^-k), gives the Gram matrix w* w of its
    smaller side, whose largest eigenvalue (``eigvalsh``) is sigma_1^2
    2^-2k.  No kernel runs.  Power-of-two scaling is exact, a wide matrix
    gives the bits of its conjugate transpose and a stack those of its
    matrices, and the zero matrix gives +0.0.
    """
    a = _any_stack(x)
    w, k = _scaled(a)
    top = np.linalg.eigvalsh(conj_transpose(w) @ w)[..., -1]
    # a zero or roundoff-negative top eigenvalue gives +0.0, never -0.0
    return _scaled_back(np.sqrt(np.where(top > 0.0, top, 0.0)), k[..., 0, 0], a.shape[-2:])


def jacobi_svd(a, compute_uv=True):
    """Thin SVD via one-sided Jacobi: returns (u, sigma, v), or sigma alone without ``compute_uv``.

    ``sigma`` holds all min(m, n) singular values sorted decreasing; ``u``
    (m x k) and ``v`` (n x k) hold the singular vectors of its k nonzero
    values, so ``a == (u * sigma[:k]) @ v*``.  A wide input is factored
    through its conjugate transpose, and errors name the shape of one input
    matrix as given.  A stack of any leading shape gives stacked factors in
    one kernel call, with k the largest count in the stack: past a matrix's
    own count, its columns of ``v`` are zero and those of ``u`` orthonormal
    (the other way round for a wide stack), so its first columns and
    ``sigma`` are those it gets alone.

    Each matrix w (the input, or its conjugate transpose when wide, so
    m >= n) is preconditioned as in Drmac & Veselic ("New fast and accurate
    Jacobi SVD algorithm", SIMAX 2008; LAPACK xGEJSV): it is scaled by 2^-k,
    with k the exponent of its largest entry, so its squared column norms
    stay in range at any scale of input (power-of-two scaling is exact, and
    sigma is scaled back); its columns are sorted by decreasing norm and its
    rows by decreasing largest modulus, pr w pc = q r; and the kernel runs
    on the n x n r*.  For n > 2 it starts from r* v0, where v0 holds the
    eigenvectors of the Gram matrix r r* by decreasing eigenvalue: r* v0 has
    orthogonal columns up to roundoff, so few sweeps remain.  With two
    columns, the kernel's one rotation already solves the problem.  With
    r* v_j = u_w diag(sigma), where v_j is v0 times the kernel's rotations,
    the factors are u = pr^T q v_j and v = pc u_w.  The values alone need
    neither q nor v_j.
    """
    a = _any_stack(a)
    shape = a.shape[-2:]
    wide = shape[0] < shape[1]
    w, k = _scaled(a)
    m, n = w.shape[-2:]
    pc = np.argsort(-np.vecdot(w, w, axis=-2).real, axis=-1, kind="stable")
    pr = np.argsort(-np.abs(w).max(axis=-1), axis=-1, kind="stable")
    stack = _stack_index(w.shape[:-2])
    w = w[stack + (pr,)].swapaxes(-1, -2)[stack + (pc,)].swapaxes(-1, -2)
    if compute_uv:
        q, r = np.linalg.qr(w)
    else:
        r = np.linalg.qr(w, mode="r")
    # the preconditioned copies go before the kernel, whose temporaries set
    # the peak memory (twice as large for the joint stack of a pair)
    del w
    # the kernel rotates rows: those of r.conj() are the columns of r*, and
    # those of vt, which starts as V0^T (the identity for n <= 2) or empty,
    # the columns of V_J
    rt = np.conjugate(r, out=r)
    nv = n if compute_uv else 0
    if n > 2:
        # V0^T: the eigenvectors of the Gram matrix of r*'s columns, by
        # decreasing eigenvalue, as rows; r* V0 has orthogonal columns up to roundoff
        v0t = np.linalg.eigh(rt.conj() @ rt.swapaxes(-1, -2))[1][..., ::-1].swapaxes(-1, -2)
        rt = v0t @ rt
        vt = np.array(v0t[..., :nv], order="C")
    else:
        vt = np.empty(rt.shape[:-1] + (nv,), dtype=np.complex128)
        vt[...] = np.eye(n, nv)
    kernel = backends.get_kernel()
    # every matrix in one call, as one stack (views, rotated in place)
    count = rt.size // (n * n)
    sweeps = kernel.orthogonalize_columns(
        rt.reshape(count, n, n), vt.reshape(count, n, nv), jacobi_threshold(n), JACOBI_MAX_SWEEPS
    )
    if sweeps < 0:
        raise RuntimeError(
            f"no convergence in {JACOBI_MAX_SWEEPS} jacobi sweeps for shape {shape}"
        )
    scaled = np.linalg.norm(rt, axis=-1)
    order = np.argsort(-scaled, axis=-1, kind="stable")
    scaled = scaled[stack + (order,)]
    sig = _scaled_back(scaled, k[..., 0], shape)
    if not compute_uv:
        return sig
    # the stack's largest count; past its own, a matrix's v columns are zero
    nonzero = int((sig > 0.0).sum(axis=-1).max())
    keep = stack + (order[..., :nonzero],)
    u = np.empty(q.shape[:-1] + (nonzero,), dtype=np.complex128)
    v = np.empty(rt.shape[:-1] + (nonzero,), dtype=np.complex128)
    u[stack + (pr,)] = q @ vt[keep].swapaxes(-1, -2)
    v[stack + (pc,)] = np.divide(
        rt[keep].swapaxes(-1, -2),
        scaled[..., None, :nonzero],
        out=np.zeros_like(v),
        where=sig[..., None, :nonzero] > 0.0,
    )
    return (v, sig, u) if wide else (u, sig, v)


def _checked_cutoff(tol):
    if tol is not None and not 0.0 <= float(tol) < np.inf:
        raise ValueError(f"rank cutoff must be finite and non-negative, got {tol}")


def _at_rank(svd, tol):
    """``SvdFactors`` of the thin SVD ``svd = (u, sigma, v)`` of a matrix or stack."""
    u, sig, v = svd
    cut = default_cutoff((u.shape[-2], v.shape[-2]), sig[..., 0]) if tol is None else float(tol)
    rank = _one_per_stack((sig > np.asarray(cut)[..., None]).sum(axis=-1), "rank")
    return SvdFactors(u1=u[..., :rank], sigma=sig, v1=v[..., :rank], rank=rank, tol=cut)


def svd_factors(a, tol=None):
    """Factor ``a`` and resolve its numerical rank.

    ``tol=None`` applies the default cutoff from ``default_cutoff``; an
    explicit ``tol`` is an absolute threshold, finite and non-negative.  The
    matrices of a stack each get their own default cutoff, and must all
    come out with the same rank.
    """
    a = as_stack(a)
    _checked_cutoff(tol)
    return _at_rank(jacobi_svd(a), tol)


def factor_pair(a, b, tol=None):
    """``(svd_factors(a, tol), svd_factors(b, tol))``, bit for bit, from one kernel call.

    ``a`` and ``b`` are same-shape complex128 matrices or stacks, as
    ``as_stack`` returns them, factored as one stack.  Each side is cut at
    its own rank, which never exceeds its own count of nonzero singular
    values, so the zero ``v`` columns of the joint factors are never kept.
    """
    _checked_cutoff(tol)
    u, sig, v = jacobi_svd(np.stack((a, b)))
    return _at_rank((u[0], sig[0], v[0]), tol), _at_rank((u[1], sig[1], v[1]), tol)


def pinv(a, tol=None):
    """Moore-Penrose inverse v1 @ diag(1/sigma1) @ u1*.

    Accepts a matrix, a stack or precomputed ``SvdFactors``.  A 1/sigma
    or an entry beyond the double range is an ArithmeticError.
    """
    f = a if isinstance(a, SvdFactors) else svd_factors(a, tol=tol)
    return checked("pseudoinverse", _inverse, f)


def _inverse(f):
    return (f.v1 / f.sigma1[..., None, :]) @ conj_transpose(f.u1)


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
    x = checked("least-squares solution", np.matmul, pinv(a, tol=tol), bb)
    return x[:, 0] if vec else x


def penrose_residuals(a, x):
    """Max-entry residuals of the four defining equations for candidate ``x``.

    Returns (a x a - a, x a x - x, hermiticity of a x, hermiticity of x a),
    each one value per matrix of a stack ``a`` with its stack of candidates.
    """
    a = as_stack(a)
    x = as_stack(x)
    if x.shape != conj_transpose(a).shape:
        raise ShapeError(f"candidate shape {x.shape} does not match {a.shape}")
    ax = a @ x
    xa = x @ a
    return tuple(
        np.abs(r).max(axis=(-2, -1))
        for r in (ax @ a - a, xa @ x - x, conj_transpose(ax) - ax, conj_transpose(xa) - xa)
    )
