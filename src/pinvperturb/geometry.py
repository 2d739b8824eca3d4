"""Joint SVD geometry of a matrix pair (a, b) with e = b - a.

Both factorizations are split at their numerical rank and keep only u1,
sigma1 and v1: a null block u2 only ever appears inside a Frobenius norm,
which ``_outside`` takes through u2 u2* = I - u1 u1*.  The module exposes
the exact decomposition of the squared Frobenius deviation of the
pseudoinverses, the matching decomposition of the perturbation energy, the
principal-angle masses between range/null spaces, and the trace inequality
that compares singular value lists (with an explicit aligning pair of
unitaries attaining it).

Each quantity has a route through (a, e) and a mirror route with a and b
exchanged.  Only the first is written here; the mirror is the same function
on ``swap_pair(p)``, whose norms ``ProductNorms.swapped`` maps from p's
without a new product or SVD.

``make_pair``, ``swap_pair``, the product norms and the deviations also
take a stack of same-shape pairs, one pair per leading index, and give one
value per pair; the identity, angle and trace helpers take single pairs.
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
    conj_transpose,
    jacobi_svd,
    named_failure,
    pinv,
    spectral_norm,
    strict_arithmetic,
    svd_factors,
)

def _fro2(x):
    """Squared Frobenius norm, summed row-major as ``np.vdot(x, x)`` sums it; 0.0 for empty blocks."""
    f = x.reshape(x.shape[:-2] + (-1,))
    return np.vecdot(f, f).real


def _outside(q, p):
    """q* (I - p p*) = q* - (q* p) p*; with p = u1, any row scaling of it has the norm of q* u2."""
    qh = q.conj().T
    return qh - (qh @ p) @ p.conj().T


@dataclass(frozen=True)
class ProductNorms:
    """Ingredients shared by the deviation estimators, one value per pair.

    ``na``/``nb``/``nai``/``nbi`` are the spectral norms of a, b and their
    pseudoinverses, and ``na2``/``na4`` and so on their squares and fourth
    powers, taken as products: a power of a numpy scalar goes through the C
    library's pow(), which would give a pair other bits than its stack.  The
    remaining fields are squared Frobenius norms of the projected
    perturbation products, except ``ef`` (Frobenius norm of e, the square
    root of ``e2``) and ``es`` (spectral norm of e).  A ``_c`` field is a
    Pythagorean complement, taken as the norm of a projected product rather
    than as the equal difference noted beside it, which cancels.  A ``_r``
    or ``_1`` field is such a difference too, taken as a sum of
    non-negative terms over singular directions: with s_i and v_i the
    singular values and right vectors of b, |a+ e b+|^2 = sum_i
    |a+ e v_i|^2 / s_i^2, so ``aebb_r`` weighs |a+ e v_i|^2 by
    1 - (s_r/s_i)^2 for the smallest s_r, and ``aebb_1`` by (s_1/s_i)^2 - 1
    for the largest s_1; ``aaeb_r`` and ``aaeb_1`` do the same with the
    rows u_i* e b+ and the singular values of a.
    """

    na: float
    nb: float
    nai: float
    nbi: float
    na2: float
    nb2: float
    nai2: float
    nbi2: float
    na4: float
    nb4: float
    nai4: float
    nbi4: float
    e2: float
    ef: float
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

    @cached_property
    def swapped(self):
        """The same norms for the pair with a and b exchanged."""
        return ProductNorms(*_mirrored_fields(self))


# a field's counterpart under a <-> b swaps a with b and x with y in its name;
# e2, ef and es are their own
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
        try:
            return _product_norms(self)
        except ArithmeticError as exc:
            raise named_failure("product norms", exc) from exc


def make_pair(a, b, tol=None):
    """The pair (a, b), or the stack of pairs (a[i], b[i]); each side has one rank for the stack."""
    a = as_stack(a)
    b = as_stack(b)
    if a.shape != b.shape:
        raise ShapeError(f"pair shapes differ: {a.shape} vs {b.shape}")
    fa = svd_factors(a, tol=tol)
    fb = svd_factors(b, tol=tol)
    return PerturbationPair(
        a=a, b=b, e=b - a, fa=fa, fb=fb, pinv_a=pinv(fa), pinv_b=pinv(fb)
    )


def swap_pair(p):
    """The same data with a and b interchanged; its norms are ``p.norms.swapped``."""
    q = PerturbationPair(
        a=p.b, b=p.a, e=-p.e, fa=p.fb, fb=p.fa, pinv_a=p.pinv_b, pinv_b=p.pinv_a
    )
    q.__dict__["norms"] = p.norms.swapped  # prefill the cached property
    return q


def _weighted(sq, s):
    """sum_i (1 - (s_r/s_i)^2) sq_i and sum_i ((s_1/s_i)^2 - 1) sq_i, over decreasing ``s``."""
    low = s[..., -1:] / s
    high = s[..., :1] / s
    return np.vecdot((1.0 - low) * (1.0 + low), sq), np.vecdot((high - 1.0) * (high + 1.0), sq)


def _oriented(pa, pb, e, a, b, fa, fb):
    """The squared product norms of one orientation, by their a-side names.

    ``fa`` and ``fb`` are the factors of a and b: I - a a+ = I - ua ua*,
    I - b+ b = I - vb vb*, with ua = fa.u1 and vb = fb.v1.
    """
    ua, vb = fa.u1, fb.v1
    pae = pa @ e
    epb = e @ pb
    y_m = pa @ epb
    vbh, uah = conj_transpose(vb), conj_transpose(ua)
    pae_vb = pae @ vb  # its column i is a+ e v_i
    uah_epb = uah @ epb  # its row i is u_i* e b+
    aebb_r, aebb_1 = _weighted(np.vecdot(pae_vb, pae_vb, axis=-2).real, fb.sigma1)
    aaeb_r, aaeb_1 = _weighted(np.vecdot(uah_epb, uah_epb).real, fa.sigma1)
    return {
        "ae": _fro2(pae),
        "eb": _fro2(epb),
        "y": _fro2(y_m),
        "aaeb": _fro2(a @ y_m),
        "aebb": _fro2(y_m @ b),
        "aebb_c": _fro2(pae - pae_vb @ vbh),
        "aaeb_c": _fro2(epb - ua @ uah_epb),
        "ebb_c": _fro2(e - (e @ vb) @ vbh),
        "aae_c": _fro2(e - ua @ (uah @ e)),
        "aebb_r": aebb_r,
        "aaeb_r": aaeb_r,
        "aebb_1": aebb_1,
        "aaeb_1": aaeb_1,
    }


@strict_arithmetic
def _product_norms(p):
    fa, fb, e = p.fa, p.fb, p.e
    # the mirror's perturbation is -e, whose sign no squared norm sees
    mirror = _oriented(p.pinv_b, p.pinv_a, e, p.b, p.a, fb, fa)
    spectral = dict(na=fa.norm2, nb=fb.norm2, nai=fa.pinv_norm2, nbi=fb.pinv_norm2)
    sq = {name: v * v for name, v in spectral.items()}
    e2 = _fro2(e)
    return ProductNorms(
        **spectral,
        **{f"{name}2": v for name, v in sq.items()},
        **{f"{name}4": v * v for name, v in sq.items()},
        e2=e2,
        ef=np.sqrt(e2),
        es=spectral_norm(e),
        **_oriented(p.pinv_a, p.pinv_b, e, p.a, p.b, fa, fb),
        **{k.translate(_SWAP_AB): v for k, v in mirror.items()},
    )


@strict_arithmetic
def _deviation(p, norm):
    """``norm(b+ - a+)``; an arithmetic error names the exact deviation."""
    try:
        return norm(p.pinv_b - p.pinv_a)
    except ArithmeticError as exc:
        raise named_failure("exact deviation", exc) from exc


def deviation_sq(p):
    """Exact squared Frobenius deviation of the pseudoinverses."""
    return _deviation(p, _fro2)


def deviation_fro(p):
    return np.sqrt(deviation_sq(p))


def deviation_spectral(p):
    return _deviation(p, spectral_norm)


def identity_terms(p):
    """Exact three-term split of ``deviation_sq``.

    Terms: b's inverted null-leak against a's left null space, a's inverted
    null-leak against b's right null space, and the doubly-projected cross
    term |b+ e a+|^2.  Their sum equals the deviation exactly; the mirror
    split is ``identity_terms(swap_pair(p))``.
    """
    fa, fb = p.fa, p.fb
    t1 = _fro2(_outside(fb.u1, fa.u1) / fb.sigma1[:, None])
    t2 = _fro2(_outside(fa.v1, fb.v1) / fa.sigma1[:, None])
    return t1, t2, p.norms.x


def cross_term_blocks(p):
    """The cross term norms.x recomputed from rank-block data.

    It is the squared norm of a weighted difference of the aligned unitary
    blocks; ``norms.y`` is the same on ``swap_pair(p)``.
    """
    fa, fb = p.fa, p.fb
    g = (fb.v1.conj().T @ fa.v1) / fa.sigma1[None, :]
    h = (fb.u1.conj().T @ fa.u1) / fb.sigma1[:, None]
    return _fro2(g - h)


def proof_identity_u(p):
    """Left-block identity: |u1b* u2a|^2 == |(I - a a+) e b+|^2."""
    return _fro2(_outside(p.fb.u1, p.fa.u1)), p.norms.aaeb_c


def proof_identity_v(p):
    """Right-block identity: |v2b* v1a|^2 == |a+ e (I - b+ b)|^2."""
    return _fro2(_outside(p.fa.v1, p.fb.v1)), p.norms.aebb_c


def energy_terms(p):
    """Exact three-term split of |e|^2 in the mixed bases (u of a, v of b).

    Terms: core block, row-space leak of a against b's right null space,
    column leak of b against a's left null space.  The split in the other
    mixed bases (v of a, u of b) is ``energy_terms(swap_pair(p))``.
    """
    fa, fb = p.fa, p.fb
    core = (fa.u1.conj().T @ fb.u1) * fb.sigma1[None, :] - fa.sigma1[:, None] * (
        fa.v1.conj().T @ fb.v1
    )
    t2 = _fro2(fa.sigma1[:, None] * _outside(fa.v1, fb.v1))
    t3 = _fro2(fb.sigma1[:, None] * _outside(fb.u1, fa.u1))
    return _fro2(core), t2, t3


@dataclass(frozen=True)
class SubspaceAngles:
    """Frobenius masses of the four cross blocks between the two splittings."""

    u12: float  # |u1b* u2a|_F
    u21: float  # |u2b* u1a|_F
    v12: float  # |v1b* v2a|_F
    v21: float  # |v2b* v1a|_F


def subspace_angles(p):
    fa, fb = p.fa, p.fb
    return SubspaceAngles(
        u12=float(np.linalg.norm(_outside(fb.u1, fa.u1))),
        u21=float(np.linalg.norm(_outside(fa.u1, fb.u1))),
        v12=float(np.linalg.norm(_outside(fb.v1, fa.v1))),
        v21=float(np.linalg.norm(_outside(fa.v1, fb.v1))),
    )


def equal_rank_angle_gap(p):
    """Max of |u12 - u21| and |v12 - v21|; zero when the ranks agree."""
    ang = subspace_angles(p)
    return max(abs(ang.u12 - ang.u21), abs(ang.v12 - ang.v21))


@dataclass(frozen=True)
class AngleBounds:
    """Principal-angle sandwich of the squared deviation.

    ``upper`` dominates the deviation and ``lower`` is dominated by it; the
    mirror sandwich is ``angle_bounds(swap_pair(p))``.
    """

    upper: float
    lower: float


def _ratio(num, den):
    # a zero numerator comes from an empty block, where den may be 0 too
    return 0.0 if num == 0.0 else num / den


def angle_bounds(p):
    ang = subspace_angles(p)
    n = p.norms
    return AngleBounds(
        upper=n.nbi2 * ang.u12**2 + n.nai2 * ang.v21**2 + n.x,
        lower=_ratio(ang.u12**2, n.nb2) + _ratio(ang.v21**2, n.na2) + n.x,
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
    sm = jacobi_svd(m_, compute_uv=False)
    sn = jacobi_svd(n_, compute_uv=False)
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
