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
derives the squares, fourth powers and |e|_F from them on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter

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
    """Squared Frobenius norm, summed row-major as ``np.vdot(x, x)`` sums it; 0.0 for empty blocks."""
    f = x.reshape(x.shape[:-2] + (-1,))
    return np.vecdot(f, f).real


def _fro(x):
    """Frobenius norm, summed as ``np.linalg.norm`` sums one matrix: real parts, then imaginary."""
    f = x.reshape(x.shape[:-2] + (-1,))
    re, im = f.real, f.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _outside(q, p):
    """q* (I - p p*) = q* - (q* p) p*; with p = u1, any row scaling of it has the norm of q* u2."""
    qh = conj_transpose(q)
    return qh - (qh @ p) @ conj_transpose(p)


def _square(name):
    """A derived ``ProductNorms`` value: the square of ``name``, as a product."""
    return cached_property(lambda nm: getattr(nm, name) * getattr(nm, name))


@dataclass(frozen=True)
class ProductNorms:
    """Ingredients shared by the deviation estimators, one value per pair.

    The 32 fields are what needs the factors or a product; the rest is
    derived from them on first use and cached.  ``na``/``nb``/``nai``/``nbi``
    are the spectral norms of a, b and their pseudoinverses; their squares
    ``na2`` and so on and fourth powers ``na4`` and so on are derived, as
    products: a power of a numpy scalar goes through the C library's pow(),
    which would give a pair other bits than its stack.  ``e2`` is |e|_F^2,
    ``es`` |e|_2, and the derived ``ef`` the square root of ``e2``.  The
    other fields are the squared Frobenius norms of the projected perturbation
    products named beside them.  With a = ua Sa va* and b = ub Sb vb* at
    their ranks, those through (a, e) are read from three thin blocks,
    F = ua* e, G = e vb and C = ua* e vb (``_oriented``); their mirrors
    from the same blocks with a and b exchanged.  A ``_c`` field is a
    Pythagorean complement, taken as the norm of a projected block, such
    as Sa^-1 (F - C vb*) for ``aebb_c``, rather than as the equal
    difference noted beside it, which cancels.  A ``_r`` or ``_1`` field
    is such a difference too, taken as a sum of non-negative terms.  With
    c_i the columns of Sa^-1 C and s_1 >= ... >= s_r the singular values of
    b, ``aebb`` = sum_i |c_i|^2 and ``y`` = sum_i |c_i|^2 / s_i^2, so
    ``aebb_r`` = sum_i (1 - (s_r/s_i)^2) |c_i|^2 and ``aebb_1`` =
    sum_i ((s_1/s_i)^2 - 1) |c_i|^2; ``aaeb_r`` and ``aaeb_1`` weigh the
    rows of C Sb^-1 by the singular values of a in the same way.  Since
    ae = aebb_c + aebb, ae - y / nbi2 = aebb_c + aebb_r and
    ae - nb2 y = aebb_c - aebb_1, and the same holds for eb with the
    ``aaeb`` fields.  So ``gamma_upper`` adds the non-negative ``aebb_r``
    and ``aaeb_r`` to the complements that ``alpha_upper`` scales, and
    ``gamma_lower`` subtracts the non-negative ``aebb_1`` and ``aaeb_1``
    from those that ``alpha_lower`` scales.  Rounding is monotone, so
    gamma_upper >= alpha_upper and gamma_lower <= alpha_lower hold by
    construction, whatever the rounding of the blocks.
    """

    na: float
    nb: float
    nai: float
    nbi: float
    e2: float
    es: float
    ae: float    # |a+ e|^2
    ea: float    # |e a+|^2
    be: float    # |b+ e|^2
    eb: float    # |e b+|^2
    x: float     # |b+ e a+|^2
    y: float     # |a+ e b+|^2
    aaeb: float  # |a a+ e b+|^2
    aebb: float  # |a+ e b+ b|^2
    bbea: float  # |b b+ e a+|^2
    beaa: float  # |b+ e a+ a|^2
    aebb_c: float  # |a+ e (I - b+ b)|^2 = ae - aebb
    aaeb_c: float  # |(I - a a+) e b+|^2 = eb - aaeb
    beaa_c: float  # |b+ e (I - a+ a)|^2 = be - beaa
    bbea_c: float  # |(I - b b+) e a+|^2 = ea - bbea
    ebb_c: float   # |e (I - b+ b)|^2 = e2 - |e b+ b|^2
    aae_c: float   # |(I - a a+) e|^2 = e2 - |a a+ e|^2
    eaa_c: float   # |e (I - a+ a)|^2 = e2 - |e a+ a|^2
    bbe_c: float   # |(I - b b+) e|^2 = e2 - |b b+ e|^2
    aebb_r: float  # aebb - y / nbi2
    aaeb_r: float  # aaeb - y / nai2
    beaa_r: float  # beaa - x / nai2
    bbea_r: float  # bbea - x / nbi2
    aebb_1: float  # nb2 y - aebb
    aaeb_1: float  # na2 y - aaeb
    beaa_1: float  # na2 x - beaa
    bbea_1: float  # nb2 x - bbea

    na2 = _square("na")
    nb2 = _square("nb")
    nai2 = _square("nai")
    nbi2 = _square("nbi")
    na4 = _square("na2")
    nb4 = _square("nb2")
    nai4 = _square("nai2")
    nbi4 = _square("nbi2")
    ef = cached_property(lambda nm: np.sqrt(nm.e2))

    @cached_property
    def swapped(self):
        """The same norms for the pair with a and b exchanged."""
        return ProductNorms(*_mirrored_fields(self))


# a field's counterpart under a <-> b swaps a with b and x with y in its name;
# e2 and es are their own, and the derived values follow their fields
_SWAP_AB = str.maketrans("abxy", "bayx")
# the mirror's field values in ProductNorms' positional order
_mirrored_fields = attrgetter(*(f.name.translate(_SWAP_AB) for f in fields(ProductNorms)))


@dataclass(frozen=True)
class PerturbationPair:
    """A same-shape pair, or a stack of them, with both factorizations and pseudoinverses."""

    a: np.ndarray
    b: np.ndarray
    e: np.ndarray
    fa: SvdFactors
    fb: SvdFactors
    pinv_a: np.ndarray
    pinv_b: np.ndarray

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
        """``(|e|_2, |b+ - a+|_2)`` from one ``spectral_norm`` call, whichever is asked for first.

        ``b+ - a+`` is stacked with ``e`` as it is when the pair is square and
        as its conjugate transpose otherwise: ``spectral_norm`` gives a wide
        matrix the bits of its conjugate transpose and a stack those of its
        matrices, so the values are those of two separate calls.  No kernel
        runs.  An arithmetic error names the exact deviation.
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
        # no norm sees the sign of e or of b+ - a+, so nothing is recomputed
        vars(q).update(norms=self.norms.swapped, spectral_norms=self.spectral_norms, swapped=self)
        return q

    @cached_property
    def leaks(self):
        """u1b* (I - ua ua*) and va* (I - vb vb*), with the norms of u1b* u2a and v2b* v1a.

        Every exact identity reads its blocks here, and its mirror's from ``swapped.leaks``.
        """
        return _outside(self.fb.u1, self.fa.u1), _outside(self.fa.v1, self.fb.v1)


def make_pair(a, b, tol=None):
    """The pair (a, b), or the stack of pairs (a[i], b[i]).

    Both sides are factored in one kernel call (``core.factor_pair``), and
    each keeps its own rank: ``fa`` and ``fb`` equal ``svd_factors(a, tol)``
    and ``svd_factors(b, tol)`` bit for bit.  Within a side, the pairs of a
    stack share one rank; the counts of nonzero singular values may differ.
    An explicit ``tol`` makes the pair that of the kept parts ``fa.kept``
    and ``fb.kept``, so that e and every norm describe the matrices whose
    pseudoinverses are compared.  An e beyond the double range is an
    ArithmeticError that names the perturbation.
    """
    a = as_stack(a)
    b = as_stack(b)
    if a.shape != b.shape:
        raise ShapeError(f"pair shapes differ: {a.shape} vs {b.shape}")
    fa, fb = factor_pair(a, b, tol)
    if tol is not None:
        a, b = fa.kept, fb.kept
    e = checked("perturbation", np.subtract, b, a)
    return PerturbationPair(a=a, b=b, e=e, fa=fa, fb=fb, pinv_a=pinv(fa), pinv_b=pinv(fb))


def _weighted(sq, s):
    """sum_i (1 - (s_r/s_i)^2) sq_i and sum_i ((s_1/s_i)^2 - 1) sq_i, over decreasing ``s``."""
    low = s[..., -1:] / s
    high = s[..., :1] / s
    return np.vecdot((1.0 - low) * (1.0 + low), sq), np.vecdot((high - 1.0) * (high + 1.0), sq)


def _oriented(e, fa, fb):
    """The squared product norms of one orientation, by their a-side names.

    ``fa`` and ``fb`` are the factors of a and b, with a+ = va Sa^-1 ua* and
    b+ = vb Sb^-1 ub*.  Every norm is read from three thin blocks,
    F = ua* e (r_a x n), G = e vb (m x r_b) and C = F vb = ua* e vb
    (r_a x r_b): the orthonormal columns of va and ub drop out of a
    Frobenius norm, and a a+ = ua ua*, b+ b = vb vb*.  So |a+ e|^2 =
    |Sa^-1 F|^2, |e b+|^2 = |G Sb^-1|^2, |a+ e b+|^2 = |Sa^-1 C Sb^-1|^2,
    |a a+ e b+|^2 = |C Sb^-1|^2, |a+ e b+ b|^2 = |Sa^-1 C|^2, and the
    complements are |Sa^-1 (F - C vb*)|^2, |(G - ua C) Sb^-1|^2,
    |e - G vb*|^2 and |e - ua F|^2.  The ``_r`` and ``_1`` sums weigh the
    columns of Sa^-1 C and the rows of C Sb^-1 (see ``ProductNorms``).  No
    block is larger than e.
    """
    ua, vb = fa.u1, fb.v1
    sa, sb = fa.sigma1[..., :, None], fb.sigma1[..., None, :]
    f = conj_transpose(ua) @ e
    g = e @ vb
    c = f @ vb
    vbh = conj_transpose(vb)
    ac = c / sa  # its column i has the norm of a+ e v_i
    cb = c / sb  # its row i has the norm of u_i* e b+
    aebb_r, aebb_1 = _weighted(np.vecdot(ac, ac, axis=-2).real, fb.sigma1)
    aaeb_r, aaeb_1 = _weighted(np.vecdot(cb, cb).real, fa.sigma1)
    return {
        "ae": _fro2(f / sa),
        "eb": _fro2(g / sb),
        "y": _fro2(ac / sb),
        "aaeb": _fro2(cb),
        "aebb": _fro2(ac),
        "aebb_c": _fro2((f - c @ vbh) / sa),
        "aaeb_c": _fro2((g - ua @ c) / sb),
        "ebb_c": _fro2(e - g @ vbh),
        "aae_c": _fro2(e - ua @ f),
        "aebb_r": aebb_r,
        "aaeb_r": aaeb_r,
        "aebb_1": aebb_1,
        "aaeb_1": aaeb_1,
    }


def _product_norms(p):
    fa, fb, e = p.fa, p.fb, p.e
    # the mirror's perturbation is -e, whose sign no squared norm sees
    mirror = _oriented(e, fb, fa)
    return ProductNorms(
        na=fa.norm2,
        nb=fb.norm2,
        nai=fa.pinv_norm2,
        nbi=fb.pinv_norm2,
        e2=_fro2(e),
        es=p.spectral_norms[0],
        **_oriented(e, fa, fb),
        **{k.translate(_SWAP_AB): v for k, v in mirror.items()},
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
    return tuple(_fro(block) for block in p.leaks)


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
    mirror sandwich is ``angle_bounds(p.swapped)``.  An overflow, such as
    that of a pseudoinverse norm's square, names the angle bounds.
    """
    u12, v21 = subspace_angles(p)
    # squares as products, as in ``ProductNorms``
    return checked("angle bounds", _sandwich, u12 * u12, v21 * v21, p.norms)


def _sandwich(u2, v2, n):
    return (
        _ratio(u2, n.nb2) + _ratio(v2, n.na2) + n.x,
        n.nbi2 * u2 + n.nai2 * v2 + n.x,
    )


def _trace_pairing(m_, n_):
    """Both operands as matrices, which must have the same shape."""
    m_ = as_matrix(m_)
    n_ = as_matrix(n_)
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
    """
    m_, n_ = _trace_pairing(m_, n_)
    sm, sn = jacobi_svd(np.stack((m_, n_)), compute_uv=False)
    return float(np.dot(sm, sn))


def _complete(q):
    """Square unitary whose leading columns are the orthonormal ``q``."""
    if q.shape[1] == 0:
        return np.eye(q.shape[0], dtype=np.complex128)
    full = np.linalg.qr(q, mode="complete")[0]
    full[:, : q.shape[1]] = q  # the same span, so the rest stays orthogonal to it
    return full


def aligning_unitaries(m_, n_):
    """Unitaries (u, v) with trace_real(u @ m @ v, n) == von_neumann_sum(m, n).

    Only the leading min(nonzero counts) singular vectors pair up nonzero
    values, so any completion of the thin factors to full bases attains it.
    """
    um, _, vm = jacobi_svd(m_)
    un, _, vn = jacobi_svd(n_)
    um, vm, un, vn = map(_complete, (um, vm, un, vn))
    return un @ um.conj().T, vm @ vn.conj().T
