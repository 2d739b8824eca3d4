"""Joint SVD geometry of a matrix pair (a, b) with e = b - a.

Both factorizations are split at their numerical rank and keep only u1,
sigma1 and v1: a null block u2 only ever appears inside a Frobenius norm,
which ``_outside`` takes through u2 u2* = I - u1 u1*, once per block in
``PerturbationPair.leaks``.  The module exposes the exact decomposition of
the squared Frobenius deviation of the pseudoinverses, the matching
decomposition of the perturbation energy, the principal-angle masses
between range/null spaces, and the trace inequality that compares singular
value lists (with an explicit aligning pair of unitaries attaining it).

Each quantity has a route through (a, e) and a mirror route with a and b
exchanged.  Only the first is written here; the mirror is the same function
on ``p.swapped``, whose norms ``ProductNorms.swapped`` maps from p's
without a new product or SVD.

Everything that takes a pair also takes a stack of same-shape pairs, one
pair per leading index, and gives one value per pair, with the bits that
pair gets alone; only the trace helpers take two matrices instead.
``ProductNorms`` stores the norms that need the factors or a product, and
derives the squares, fourth powers and |e|_F from them on first use.  The
spectral norms |e|_2 and |b+ - a+|_2 need neither; a pair computes them
together on first read, in ``PerturbationPair.spectral_norms``.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .core import (
    ShapeError,
    SvdFactors,
    as_matrix,
    as_stack,
    checked,
    conj_transpose,
    factor_pair,
    jacobi_svd,
    pinv,
    spectral_norm,
)

def _fro2(x):
    """Squared Frobenius norm, one per matrix of a stack; 0.0 for empty blocks.

    A block is summed row-major by ``_field_dot``, a complex one as ``np.vdot(x, x)`` sums it.
    """
    f = x.reshape(x.shape[:-2] + (-1,))
    return _field_dot(f)(f, f).real


def _field_dot(x):
    """The dot product for the field of ``x``: ``np.vecdot`` if complex, else ``_real_dot``."""
    return np.vecdot if np.iscomplexobj(x) else _real_dot


def _real_dot(x, y, axis=-1):
    """sum_i x_i y_i along ``axis`` of real x and y, by numpy's pairwise sum.

    Not ``np.vecdot``, which calls BLAS ddot on contiguous float64 rows: on
    some CPU kernels (OpenBLAS's Prescott) ddot sums a row that is not
    16-byte aligned in another order, and the matrices of a stack sit at
    every alignment, so a stack would not give each pair its bits alone.
    """
    return np.add.reduce(x * y, axis=axis)


def _outside(q, p):
    """q* (I - p p*) = q* - (q* p) p*; with p = u1, any row scaling of it has the norm of q* u2."""
    qh = conj_transpose(q)
    return qh - (qh @ p) @ conj_transpose(p)


def _read_only(record, name, *value):
    """``__setattr__`` and ``__delattr__`` of a record that caches in its ``__dict__``."""
    raise AttributeError(f"{type(record).__name__} is read-only, cannot change {name!r}")


class PerturbationPair:
    """A same-shape pair, or a stack of them, with both factorizations and pseudoinverses.

    A plain class, not a tuple: its cached properties live in its
    ``__dict__``, and it can be weakly referenced.
    """

    def __init__(self, a, b, e, fa, fb, pinv_a, pinv_b):
        vars(self).update(a=a, b=b, e=e, fa=fa, fb=fb, pinv_a=pinv_a, pinv_b=pinv_b)

    __setattr__ = __delattr__ = _read_only

    @property
    def shape(self):
        """The shape of a, or of each a of a stack."""
        return self.a.shape[-2:]

    @property
    def rank_a(self):
        return self.fa.rank

    @property
    def rank_b(self):
        return self.fb.rank

    @cached_property
    def norms(self):
        return checked("product norms", _product_norms, self)

    @cached_property
    def spectral_norms(self):
        """``(|e|_2, |b+ - a+|_2)`` from one ``spectral_norm`` call on first read of either.

        ``b+ - a+`` is stacked with ``e`` as it is when the pair is square and
        as its conjugate transpose otherwise: ``spectral_norm`` gives a wide
        matrix the bits of its conjugate transpose and a stack those of its
        matrices, so the values are those of two separate calls.  No kernel
        runs.  Only the spectral rows of a report and ``deviation_spectral``
        read them, so a pair that prints neither never computes them.  An
        arithmetic error names the exact deviation.
        """
        e = self.e

        def with_e(d):
            d = d if d.shape == e.shape else conj_transpose(d)
            return spectral_norm(np.stack((e, d)))

        s = checked("exact deviation", with_e, self.deviation)
        return s[0][()], s[1][()]

    @cached_property
    def deviation(self):
        """The exact deviation b+ - a+, which every norm of it reads."""
        return checked("exact deviation", np.subtract, self.pinv_b, self.pinv_a)

    @cached_property
    def swapped(self):
        """The pair (b, a), whose norms are ``norms.swapped``; its own ``swapped`` is this pair."""
        q = PerturbationPair(self.b, self.a, -self.e, self.fb, self.fa, self.pinv_b, self.pinv_a)
        # no norm sees the sign of e, so nothing is recomputed
        vars(q).update(norms=self.norms.swapped, swapped=self)
        return q

    @cached_property
    def leaks(self):
        """u1b* (I - ua ua*) and va* (I - vb vb*), with the norms of u1b* u2a and v2b* v1a.

        Every exact identity reads its blocks here, and its mirror's from ``swapped.leaks``.
        """
        return _outside(self.fb.u1, self.fa.u1), _outside(self.fa.v1, self.fb.v1)


def make_pair(a, b, tol=None):
    """The pair (a, b), or the stack of pairs (a[i], b[i]) of any leading shape.

    Both sides are factored in one kernel call (``core.factor_pair``), and
    each keeps its own rank: ``fa`` and ``fb`` equal ``svd_factors(a, tol)``
    and ``svd_factors(b, tol)`` bit for bit.  Within a side, the pairs of a
    stack share one rank; the counts of nonzero singular values may differ.
    An explicit ``tol`` makes the pair that of the kept parts ``fa.kept``
    and ``fb.kept``, so that e and every norm describe the matrices whose
    pseudoinverses are compared.  An e beyond the double range is an
    ArithmeticError that names the perturbation.
    """
    a, b = as_stack(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"pair shapes differ: {a.shape} vs {b.shape}")
    fa, fb = factor_pair(a, b, tol)
    if tol is not None:
        a, b = fa.kept, fb.kept
    e = checked("perturbation", np.subtract, b, a)
    return PerturbationPair(a=a, b=b, e=e, fa=fa, fb=fb, pinv_a=pinv(fa), pinv_b=pinv(fb))


def _weighted(sq, s, dot):
    """sum_i (1 - (s_r/s_i)^2) sq_i and sum_i ((s_1/s_i)^2 - 1) sq_i by ``dot``, over decreasing ``s``."""
    low = s[..., -1:] / s
    high = s[..., :1] / s
    return dot((1.0 - low) * (1.0 + low), sq), dot((high - 1.0) * (high + 1.0), sq)


# The squared product norms of one orientation, in the order ``_oriented``
# returns them: each with its product, and the thin block it is read from.
_ORIENTED = (
    "ae",      # |a+ e|^2 = |Sa^-1 F|^2
    "eb",      # |e b+|^2 = |G Sb^-1|^2
    "y",       # |a+ e b+|^2 = |Sa^-1 C Sb^-1|^2
    "aaeb",    # |a a+ e b+|^2 = |C Sb^-1|^2
    "aebb",    # |a+ e b+ b|^2 = |Sa^-1 C|^2
    "aebb_c",  # |a+ e (I - b+ b)|^2 = ae - aebb, as |Sa^-1 (F - C vb*)|^2
    "aaeb_c",  # |(I - a a+) e b+|^2 = eb - aaeb, as |(G - ua C) Sb^-1|^2
    "ebb_c",   # |e (I - b+ b)|^2 = e2 - |e b+ b|^2, as |e - G vb*|^2
    "aae_c",   # |(I - a a+) e|^2 = e2 - |a a+ e|^2, as |e - ua F|^2
    "aebb_r",  # aebb - y / nbi2, as a sum over the columns of Sa^-1 C
    "aebb_1",  # nb2 y - aebb, as a sum over the columns of Sa^-1 C
    "aaeb_r",  # aaeb - y / nai2, as a sum over the rows of C Sb^-1
    "aaeb_1",  # na2 y - aaeb, as a sum over the rows of C Sb^-1
)
# a norm's mirror, the same norm of the pair (b, a), swaps a with b and x
# with y in its name; e2 is its own, and the derived values follow their fields
_SWAP_AB = str.maketrans("abxy", "bayx")


def _oriented(e, fa, fb):
    """The ``_ORIENTED`` norms of the pair with factors ``fa`` and ``fb``, as a tuple in that order.

    With a+ = va Sa^-1 ua* and b+ = vb Sb^-1 ub*, every norm is read from
    three thin blocks, F = ua* e (r_a x n), G = e vb (m x r_b) and
    C = F vb = ua* e vb (r_a x r_b): the orthonormal columns of va and ub
    drop out of a Frobenius norm, and a a+ = ua ua*, b+ b = vb vb*.  No
    block is larger than e.  A ``_c`` norm is the norm of its projected
    block, not the equal difference, which cancels; a ``_r`` or ``_1`` norm
    is such a difference too, taken as a sum of non-negative terms (see
    ``ProductNorms``).
    """
    ua, vb = fa.u1, fb.v1
    sa, sb = fa.sigma1[..., :, None], fb.sigma1[..., None, :]
    f = conj_transpose(ua) @ e
    g = e @ vb
    c = f @ vb
    vbh = conj_transpose(vb)
    ac = c / sa  # its column i has the norm of a+ e v_i
    cb = c / sb  # its row i has the norm of u_i* e b+
    dot = _field_dot(c)
    cols, rows = dot(ac, ac, axis=-2).real, dot(cb, cb).real
    return (
        _fro2(f / sa),
        _fro2(g / sb),
        _fro2(ac / sb),
        _fro2(cb),
        _fro2(ac),
        _fro2((f - c @ vbh) / sa),
        _fro2((g - ua @ c) / sb),
        _fro2(e - g @ vbh),
        _fro2(e - ua @ f),
        *_weighted(cols, fb.sigma1, dot),
        *_weighted(rows, fa.sigma1, dot),
    )


def _square(name):
    """A derived ``ProductNorms`` value: the square of ``name``, as a product.

    Not a power: a power of a numpy scalar goes through the C library's
    pow(), which would give a pair other bits than its stack.
    """
    return cached_property(lambda nm: getattr(nm, name) * getattr(nm, name))


# na, nb, nai and nbi are the spectral norms of a, b, a+ and b+, and e2 is
# |e|_F^2; the oriented norms of the pair (a, b) follow, then their mirrors
_ProductNormFields = NamedTuple(
    "_ProductNormFields",
    [
        (name, float)
        for name in ("na", "nb", "nai", "nbi", "e2", *_ORIENTED, *(n.translate(_SWAP_AB) for n in _ORIENTED))
    ],
)


class ProductNorms(_ProductNormFields):
    """Ingredients shared by the deviation estimators, one value per pair.

    Why ``gamma_upper`` >= ``alpha_upper`` and ``gamma_lower`` <=
    ``alpha_lower`` whatever the rounding of the blocks: with c_i the
    columns of Sa^-1 C and s_1 >= ... >= s_r the singular values of b,
    ``aebb`` = sum_i |c_i|^2 and ``y`` = sum_i |c_i|^2 / s_i^2, so
    ``aebb_r`` = sum_i (1 - (s_r/s_i)^2) |c_i|^2 and ``aebb_1`` =
    sum_i ((s_1/s_i)^2 - 1) |c_i|^2; ``aaeb_r`` and ``aaeb_1`` weigh the
    rows of C Sb^-1 by the singular values of a in the same way.  Since
    ae = aebb_c + aebb, ae - y / nbi2 = aebb_c + aebb_r and
    ae - nb2 y = aebb_c - aebb_1, and the same holds for eb with the
    ``aaeb`` fields.  So ``gamma_upper`` adds the non-negative ``aebb_r``
    and ``aaeb_r`` to the complements that ``alpha_upper`` scales, and
    ``gamma_lower`` subtracts the non-negative ``aebb_1`` and ``aaeb_1``
    from those that ``alpha_lower`` scales.  Rounding is monotone, so both
    orderings hold by construction.
    """

    na2 = _square("na")
    nb2 = _square("nb")
    nai2 = _square("nai")
    nbi2 = _square("nbi")
    na4 = _square("na2")
    nb4 = _square("nb2")
    nai4 = _square("nai2")
    nbi4 = _square("nbi2")
    ef = cached_property(lambda nm: np.sqrt(nm.e2))

    __setattr__ = __delattr__ = _read_only

    @cached_property
    def swapped(self):
        """The same norms for the pair with a and b exchanged."""
        return ProductNorms(*_mirrored_fields(self))


# the mirror's field values in ProductNorms' positional order
_mirrored_fields = attrgetter(*(name.translate(_SWAP_AB) for name in ProductNorms._fields))


def _product_norms(p):
    fa, fb, e = p.fa, p.fb, p.e
    # the mirror's perturbation is -e, whose sign no squared norm sees
    return ProductNorms(
        fa.norm2, fb.norm2, fa.pinv_norm2, fb.pinv_norm2, _fro2(e),
        *_oriented(e, fa, fb), *_oriented(e, fb, fa),
    )


def deviation_sq(p):
    """Exact squared Frobenius deviation of the pseudoinverses."""
    return checked("exact deviation", _fro2, p.deviation)


def deviation_spectral(p):
    """Exact spectral deviation |b+ - a+|_2, read from ``p.spectral_norms``."""
    return p.spectral_norms[1]


def identity_terms(p):
    """Exact three-term split of ``deviation_sq``.

    Terms: b's inverted null-leak against a's left null space, a's inverted
    null-leak against b's right null space, and the doubly-projected cross
    term |b+ e a+|^2.  Their sum equals the deviation exactly; the mirror
    split is ``identity_terms(p.swapped)``.
    """
    lu, lv = p.leaks
    t1 = _fro2(lu / p.fb.sigma1[..., :, None])
    t2 = _fro2(lv / p.fa.sigma1[..., :, None])
    return t1, t2, p.norms.x


def cross_term_blocks(p):
    """The cross term norms.x recomputed from rank-block data.

    It is the squared norm of a weighted difference of the aligned unitary
    blocks; ``norms.y`` is the same on ``p.swapped``.
    """
    fa, fb = p.fa, p.fb
    g = (conj_transpose(fb.v1) @ fa.v1) / fa.sigma1[..., None, :]
    h = (conj_transpose(fb.u1) @ fa.u1) / fb.sigma1[..., :, None]
    return _fro2(g - h)


def proof_identity_u(p):
    """Left-block identity: |u1b* u2a|^2 == |(I - a a+) e b+|^2."""
    return _fro2(p.leaks[0]), p.norms.aaeb_c


def proof_identity_v(p):
    """Right-block identity: |v2b* v1a|^2 == |a+ e (I - b+ b)|^2."""
    return _fro2(p.leaks[1]), p.norms.aebb_c


def energy_terms(p):
    """Exact three-term split of |e|^2 in the mixed bases (u of a, v of b).

    Terms: core block, row-space leak of a against b's right null space,
    column leak of b against a's left null space.  The split in the other
    mixed bases (v of a, u of b) is ``energy_terms(p.swapped)``.
    """
    lu, lv = p.leaks
    fa, fb = p.fa, p.fb
    sa = fa.sigma1[..., :, None]
    core = (conj_transpose(fa.u1) @ fb.u1) * fb.sigma1[..., None, :] - sa * (
        conj_transpose(fa.v1) @ fb.v1
    )
    t2 = _fro2(sa * lv)
    t3 = _fro2(fb.sigma1[..., :, None] * lu)
    return _fro2(core), t2, t3


def subspace_angles(p):
    """``(|u1b* u2a|_F, |v2b* v1a|_F)``; on ``p.swapped``, ``(|u2b* u1a|_F, |v1b* v2a|_F)``."""
    return tuple(np.sqrt(_fro2(block)) for block in p.leaks)


def equal_rank_angle_gap(p):
    """Max of |u12 - u21| and |v12 - v21|; zero when the ranks agree."""
    u12, v21 = subspace_angles(p)
    u21, v12 = subspace_angles(p.swapped)
    return np.maximum(abs(u12 - u21), abs(v12 - v21))


def _ratio(num, den):
    # a zero numerator comes from an empty block, where den may be 0 too
    return np.divide(num, den, out=np.zeros_like(num), where=num != 0.0)[()]


def angle_bounds(p):
    """Principal-angle sandwich ``(lower, upper)`` of the squared deviation.

    ``upper`` dominates the deviation and ``lower`` is dominated by it; the
    mirror sandwich is ``angle_bounds(p.swapped)``.  The squared angle
    masses are ``_fro2`` of ``p.leaks``, the bits that ``proof_identity_u``
    and ``proof_identity_v`` give.  An overflow, such as that of a
    pseudoinverse norm's square, names the angle bounds.
    """
    return checked("angle bounds", _sandwich, *map(_fro2, p.leaks), p.norms)


def _sandwich(u2, v2, n):
    return (
        _ratio(u2, n.nb2) + _ratio(v2, n.na2) + n.x,
        n.nbi2 * u2 + n.nai2 * v2 + n.x,
    )


def _trace_pairing(m_, n_):
    """Both operands as matrices, which must have the same shape."""
    m_, n_ = as_matrix(m_, n_)
    if m_.shape != n_.shape:
        raise ShapeError(f"trace pairing needs equal shapes, got {m_.shape} and {n_.shape}")
    return m_, n_


def trace_real(m_, n_):
    """Re tr(m n*) for same-shape matrices."""
    m_, n_ = _trace_pairing(m_, n_)
    return float(np.real(np.vdot(n_, m_)))


def von_neumann_sum(m_, n_):
    """Sum of pairwise products of the decreasing singular value lists.

    This is the sharp upper bound for |Re tr(u m v n*)| over unitary u, v.
    Both lists come from one kernel call on the stack (m, n).
    """
    sm, sn = jacobi_svd(np.stack(_trace_pairing(m_, n_)))[1]
    return float(np.dot(sm, sn))


def _complete(q):
    """Square unitary whose leading columns are the orthonormal ``q``."""
    if q.shape[1] == 0:
        return np.eye(q.shape[0], dtype=q.dtype)
    full = np.linalg.qr(q, mode="complete")[0]
    full[:, : q.shape[1]] = q  # the same span, so the rest stays orthogonal to it
    return full


def aligning_unitaries(m_, n_):
    """Unitaries (u, v) with trace_real(u @ m @ v, n) == von_neumann_sum(m, n).

    Only the leading min(nonzero counts) singular vectors pair up nonzero
    values, so any completion of the thin factors to full bases attains it.
    m and n are factored as one stack, each cut at its own count of them.
    """
    u, sig, v = jacobi_svd(np.stack(_trace_pairing(m_, n_)))
    counts = (sig > 0.0).sum(axis=-1)
    um, un, vm, vn = (_complete(x[i][:, : counts[i]]) for x in (u, v) for i in (0, 1))
    return un @ um.conj().T, vm @ vn.conj().T
