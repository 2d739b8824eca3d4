"""Dense linear algebra core.

Thin singular value decompositions come from a one-sided Jacobi kernel,
the one ``backends.get_kernel()`` picks for the whole process (the C kernel
when built, else numpy; chosen only through ``PINVPERTURB_BACKEND``).  Its
threshold, ``jacobi_threshold(n)`` = sqrt(n) ``JACOBI_EPS`` for columns of
length n, and its pass limit ``JACOBI_MAX_SWEEPS`` are set here and nowhere
else.  On top of that sit the Moore-Penrose inverse,
minimum-norm least squares and the residuals of the Penrose equations.
``spectral_norm`` gives the largest singular value alone, from the largest
eigenvalue of a Gram matrix, with no kernel call; every other route to
singular values is a full ``jacobi_svd``.  Every entry point accepts any
real or complex 2-d array-like with finite entries, and works in one dtype
per call (``_field``): float64 when every input is real, complex128
otherwise, so a real input is factored in real arithmetic and a real a
with a complex b is a complex pair.  Every SVD entry point
(``jacobi_svd``, ``spectral_norm``, ``svd_factors``, ``pinv``) also takes
a stack of same-shape matrices of any leading shape (``as_stack``), and
each factorization takes one kernel call for the whole stack; a matrix is
the one-element case.  A stack's thin
factors keep as many vectors as its largest count of nonzero singular
values, with zero ``v`` (wide: ``u``) columns past each matrix's own count.
Only the rank is shared, so ``factor_pair`` factors a and b as one stack,
each at its own.  ``penrose_residuals`` takes a stack too, with one
residual per matrix.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

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


# a spec's fields: numpy integers and reals count, a bool counts as neither
def check_integer(name, value):
    """A ValueError naming ``name`` unless ``value`` is an integer."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(name, value):
    """A ValueError naming ``name`` unless ``value`` is a real number."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _finite(a):
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _field(*arrays):
    """The package's one dtype rule: float64 when every array is real, complex128 otherwise.

    Real means a bool, integer or float dtype.  The rule takes every input of
    a call at once, so a real a with a complex b is a complex pair.
    """
    return np.float64 if all(a.dtype.kind in "biuf" for a in arrays) else np.complex128


def _as_field(xs, ndims, what):
    """The inputs ``xs`` of one call as arrays of the dtype ``_field`` picks for them all.

    Each must have a dimension count in ``ndims``, positive sides and finite
    entries.
    """
    arrays = [np.asarray(x) for x in xs]
    for a in arrays:
        if a.ndim not in ndims:
            raise ShapeError(f"expected {what}, got shape {a.shape}")
        if min(a.shape) < 1:
            raise ShapeError(f"matrix dimensions must be positive, got shape {a.shape}")
    dtype = _field(*arrays)
    return tuple(_finite(a.astype(dtype, copy=False)) for a in arrays)


def as_matrix(x, *more):
    """Convert to a 2-d float64 or complex128 array, rejecting non-finite entries.

    With ``more``, all the inputs of one call as a tuple of one dtype
    (``_field``): float64 when every one is real, complex128 otherwise.
    """
    arrays = _as_field((x, *more), (2,), "a 2-d matrix")
    return arrays if more else arrays[0]


def as_stack(x, *more):
    """``as_matrix``, or the same for stacks of same-shape matrices of any leading shape."""
    arrays = _as_field((x, *more), range(2, 65), "a matrix or a stack of them")  # numpy allows 64 axes
    return arrays if more else arrays[0]


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


class SvdFactors(NamedTuple):
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


def _row_norms(x):
    """``(norms, units)``: the 2-norm of each row of ``x``, with no square lost below the range.

    A row whose norm is below 2^-450 may have lost squares to underflow, so
    it is scaled in place by 2^-e, e the exponent of its largest real or
    imaginary part; its norm at that scale goes to ``units`` and, scaled
    back by 2^e, to ``norms``.  Both steps are exact, and a row divided by
    its unit is the row divided by its norm, with no 1/norm beyond the
    range.  Every other row is its own unit: there a square that underflows
    lies far below half an ulp of the sum, so ``np.linalg.norm`` gives it
    the bits of the scaled route.
    """
    norms = np.linalg.norm(x, axis=-1)
    units = norms
    small = np.nonzero(norms < 2.0**-450)
    if small[0].size:
        parts = x[small].view(np.float64)
        e = np.frexp(np.abs(parts).max(axis=-1, keepdims=True))[1]
        x[small] = unit = np.ldexp(parts, -e).view(x.dtype)
        units = norms.copy()
        units[small] = unit_norms = np.linalg.norm(unit, axis=-1)
        norms[small] = np.ldexp(unit_norms, e[:, 0])
    return norms, units


def spectral_norm(x):
    """Largest singular value of a matrix, or of each matrix of a stack of any leading shape.

    Each matrix w, taken as ``jacobi_svd`` takes it (the conjugate transpose
    of a wide input, scaled by 2^-k), gives the Gram matrix w* w of its
    smaller side, whose largest eigenvalue (``eigvalsh``) is sigma_1^2
    2^-2k.  No kernel runs.  Power-of-two scaling is exact, a wide matrix
    gives the bits of its conjugate transpose and a stack those of its
    matrices, and the zero matrix gives +0.0.
    """
    a = as_stack(x)
    w, k = _scaled(a)
    top = np.linalg.eigvalsh(conj_transpose(w) @ w)[..., -1]
    # a zero or roundoff-negative top eigenvalue gives +0.0, never -0.0
    return _scaled_back(np.sqrt(np.where(top > 0.0, top, 0.0)), k[..., 0, 0], a.shape[-2:])


def jacobi_svd(a):
    """Thin SVD via one-sided Jacobi: returns (u, sigma, v).

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
    the factors are u = pr^T q v_j and v = pc u_w.  Each sigma is the norm
    of a row of the rotated r*, taken at unit scale (``_row_norms``), so a
    column whose squares underflow keeps its sigma, and its column of v,
    the row over its norm at that scale, stays finite.  ``spectral_norm`` is
    the one route to a singular value without the vectors.
    """
    a = as_stack(a)
    shape = a.shape[-2:]
    wide = shape[0] < shape[1]
    w, k = _scaled(a)
    m, n = w.shape[-2:]
    pc = np.argsort(-np.vecdot(w, w, axis=-2).real, axis=-1, kind="stable")
    pr = np.argsort(-np.abs(w).max(axis=-1), axis=-1, kind="stable")
    stack = _stack_index(w.shape[:-2])
    w = w[stack + (pr,)].swapaxes(-1, -2)[stack + (pc,)].swapaxes(-1, -2)
    q, r = np.linalg.qr(w)
    # the preconditioned copies go before the kernel, whose temporaries set
    # the peak memory (twice as large for the joint stack of a pair)
    del w
    # the kernel rotates rows: those of r.conj() are the columns of r*, and
    # those of vt, which starts as V0^T (the identity for n <= 2), the
    # columns of V_J
    rt = np.conjugate(r, out=r)
    if n > 2:
        # V0^T: the eigenvectors of the Gram matrix of r*'s columns, by
        # decreasing eigenvalue, as rows; r* V0 has orthogonal columns up to roundoff
        v0t = np.linalg.eigh(rt.conj() @ rt.swapaxes(-1, -2))[1][..., ::-1].swapaxes(-1, -2)
        rt = v0t @ rt
        vt = np.array(v0t, order="C")
    else:
        vt = np.empty(rt.shape, dtype=rt.dtype)
        vt[...] = np.eye(n)
    kernel = backends.get_kernel()
    # every matrix in one call, as one stack (views, rotated in place)
    count = rt.size // (n * n)
    sweeps = kernel.orthogonalize_columns(
        rt.reshape(count, n, n), vt.reshape(count, n, n), jacobi_threshold(n), JACOBI_MAX_SWEEPS
    )
    if sweeps < 0:
        raise RuntimeError(
            f"no convergence in {JACOBI_MAX_SWEEPS} jacobi sweeps for shape {shape}"
        )
    scaled, units = _row_norms(rt)
    order = np.argsort(-scaled, axis=-1, kind="stable")
    sig = _scaled_back(scaled[stack + (order,)], k[..., 0], shape)
    # the stack's largest count; past its own, a matrix's v columns are zero
    nonzero = int((sig > 0.0).sum(axis=-1).max())
    keep = stack + (order[..., :nonzero],)
    u = np.empty(q.shape[:-1] + (nonzero,), dtype=q.dtype)
    v = np.empty(rt.shape[:-1] + (nonzero,), dtype=rt.dtype)
    u[stack + (pr,)] = q @ vt[keep].swapaxes(-1, -2)
    v[stack + (pc,)] = np.divide(
        rt[keep].swapaxes(-1, -2),
        units[keep][..., None, :],
        out=np.zeros_like(v),
        where=sig[..., None, :nonzero] > 0.0,
    )
    return (v, sig, u) if wide else (u, sig, v)


def _checked_cutoff(tol):
    if tol is not None:
        check_real("tol", tol)
        if not 0.0 <= tol < np.inf:
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

    ``a`` and ``b`` are same-shape matrices or stacks of one dtype, as
    ``as_stack(a, b)`` returns them, factored as one stack.  Each side is cut at
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
    bb = np.asarray(b)
    dtype = _field(a, bb)
    a, bb = a.astype(dtype, copy=False), _finite(bb.astype(dtype, copy=False))
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
    a, x = as_stack(a, x)
    if x.shape != conj_transpose(a).shape:
        raise ShapeError(f"candidate shape {x.shape} does not match {conj_transpose(a).shape}")
    ax = a @ x
    xa = x @ a
    return tuple(
        np.abs(r).max(axis=(-2, -1))
        for r in (ax @ a - a, xa @ x - x, conj_transpose(ax) - ax, conj_transpose(xa) - xa)
    )
