"""Joint SVD geometry of a matrix pair (a, b) with e = b - a.

Both factorizations are split at their numerical rank.  The module exposes
the exact two-route decompositions of the squared Frobenius deviation of the
pseudoinverses, the matching decompositions of the perturbation energy, the
principal-angle masses between range/null spaces, and the trace inequality
that compares singular value lists (with an explicit aligning pair of
unitaries attaining it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ShapeError, SvdFactors, as_matrix, jacobi_svd, pinv, spectral_norm, svd_factors


def _fro2(x):
    """Squared Frobenius norm; 0.0 for empty blocks."""
    if x.size == 0:
        return 0.0
    return float(np.real(np.vdot(x, x)))


@dataclass(frozen=True)
class ProductNorms:
    """Scalar ingredients shared by the deviation estimators.

    ``na``/``nb``/``nai``/``nbi`` are the spectral norms of a, b and their
    pseudoinverses; the remaining fields are squared Frobenius norms of the
    projected perturbation products, except ``ef`` (plain Frobenius norm of
    e) and ``es`` (spectral norm of e).
    """

    na: float
    nb: float
    nai: float
    nbi: float
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
    ebb: float   # |e b+ b|^2
    aae: float   # |a a+ e|^2
    bbe: float   # |b b+ e|^2
    eaa: float   # |e a+ a|^2


@dataclass(frozen=True)
class PerturbationPair:
    """A same-shape pair with both factorizations and pseudoinverses."""

    a: np.ndarray
    b: np.ndarray
    e: np.ndarray
    fa: SvdFactors
    fb: SvdFactors
    pinv_a: np.ndarray
    pinv_b: np.ndarray

    @property
    def shape(self):
        return self.a.shape

    @property
    def rank_a(self):
        return self.fa.rank

    @property
    def rank_b(self):
        return self.fb.rank

    @cached_property
    def norms(self):
        return _product_norms(self)


def make_pair(a, b, tol=None):
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeError(f"pair shapes differ: {a.shape} vs {b.shape}")
    fa = svd_factors(a, tol=tol)
    fb = svd_factors(b, tol=tol)
    return PerturbationPair(
        a=a, b=b, e=b - a, fa=fa, fb=fb, pinv_a=pinv(fa), pinv_b=pinv(fb)
    )


def swap_pair(p):
    """The same data with the roles of a and b interchanged."""
    return PerturbationPair(
        a=p.b, b=p.a, e=-p.e, fa=p.fb, fb=p.fa, pinv_a=p.pinv_b, pinv_b=p.pinv_a
    )


def _product_norms(p):
    pa, pb, e = p.pinv_a, p.pinv_b, p.e
    pae = pa @ e
    epa = e @ pa
    pbe = pb @ e
    epb = e @ pb
    y_m = pa @ epb
    x_m = pb @ epa
    return ProductNorms(
        na=p.fa.norm2,
        nb=p.fb.norm2,
        nai=p.fa.pinv_norm2,
        nbi=p.fb.pinv_norm2,
        e2=_fro2(e),
        ef=float(np.linalg.norm(e)),
        es=spectral_norm(e),
        ae=_fro2(pae),
        ea=_fro2(epa),
        be=_fro2(pbe),
        eb=_fro2(epb),
        x=_fro2(x_m),
        y=_fro2(y_m),
        aaeb=_fro2(p.a @ y_m),
        aebb=_fro2(y_m @ p.b),
        bbea=_fro2(p.b @ x_m),
        beaa=_fro2(x_m @ p.a),
        ebb=_fro2(epb @ p.b),
        aae=_fro2(p.a @ pae),
        bbe=_fro2(p.b @ pbe),
        eaa=_fro2(epa @ p.a),
    )


def deviation_sq(p):
    """Exact squared Frobenius deviation of the pseudoinverses."""
    return _fro2(p.pinv_b - p.pinv_a)


def deviation_fro(p):
    return float(np.linalg.norm(p.pinv_b - p.pinv_a))


def deviation_spectral(p):
    return spectral_norm(p.pinv_b - p.pinv_a)


def identity_terms_a(p):
    """First exact three-term split of ``deviation_sq``.

    Terms: b's inverted null-leak against a's left null space, a's inverted
    null-leak against b's right null space, and the doubly-projected cross
    term |b+ e a+|^2.  Their sum equals the deviation exactly.
    """
    fa, fb = p.fa, p.fb
    t1 = _fro2((fb.u1.conj().T @ fa.u2) / fb.sigma1[:, None])
    t2 = _fro2((fb.v2.conj().T @ fa.v1) / fa.sigma1[None, :])
    return t1, t2, p.norms.x


def identity_terms_b(p):
    """Second exact three-term split, the mirror route of ``identity_terms_a``."""
    fa, fb = p.fa, p.fb
    t1 = _fro2((fb.u2.conj().T @ fa.u1) / fa.sigma1[None, :])
    t2 = _fro2((fb.v1.conj().T @ fa.v2) / fb.sigma1[:, None])
    return t1, t2, p.norms.y


def cross_term_blocks(p):
    """The two cross terms recomputed from rank-block data.

    Returns (x_alt, y_alt) equal to norms.x and norms.y: each is the squared
    norm of a weighted difference of the aligned unitary blocks.
    """
    fa, fb = p.fa, p.fb
    g = (fb.v1.conj().T @ fa.v1) / fa.sigma1[None, :]
    h = (fb.u1.conj().T @ fa.u1) / fb.sigma1[:, None]
    x_alt = _fro2(g - h)
    g2 = (fa.u1.conj().T @ fb.u1) / fa.sigma1[:, None]
    h2 = (fa.v1.conj().T @ fb.v1) / fb.sigma1[None, :]
    y_alt = _fro2(g2 - h2)
    return x_alt, y_alt


def proof_identity_u(p):
    """Left-block identity: |u1b* u2a|^2 == |e b+|^2 - |a a+ e b+|^2."""
    lhs = _fro2(p.fb.u1.conj().T @ p.fa.u2)
    n = p.norms
    return lhs, n.eb - n.aaeb


def proof_identity_v(p):
    """Right-block identity: |v2b* v1a|^2 == |a+ e|^2 - |a+ e b+ b|^2."""
    lhs = _fro2(p.fb.v2.conj().T @ p.fa.v1)
    n = p.norms
    return lhs, n.ae - n.aebb


def energy_terms_a(p):
    """Exact three-term split of |e|^2 in the mixed bases (u of a, v of b).

    Terms: core block, row-space leak of a against b's right null space,
    column leak of b against a's left null space.
    """
    fa, fb = p.fa, p.fb
    core = (fa.u1.conj().T @ fb.u1) * fb.sigma1[None, :] - fa.sigma1[:, None] * (
        fa.v1.conj().T @ fb.v1
    )
    t2 = _fro2(fa.sigma1[:, None] * (fa.v1.conj().T @ fb.v2))
    t3 = _fro2((fa.u2.conj().T @ fb.u1) * fb.sigma1[None, :])
    return _fro2(core), t2, t3


def energy_terms_b(p):
    """Mirror split of |e|^2 in the other mixed bases (v of a, u of b)."""
    fa, fb = p.fa, p.fb
    core = fb.sigma1[:, None] * (fb.v1.conj().T @ fa.v1) - (fb.u1.conj().T @ fa.u1) * fa.sigma1[
        None, :
    ]
    t2 = _fro2(fb.sigma1[:, None] * (fb.v1.conj().T @ fa.v2))
    t3 = _fro2((fb.u2.conj().T @ fa.u1) * fa.sigma1[None, :])
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
        u12=float(np.linalg.norm(fb.u1.conj().T @ fa.u2)),
        u21=float(np.linalg.norm(fb.u2.conj().T @ fa.u1)),
        v12=float(np.linalg.norm(fb.v1.conj().T @ fa.v2)),
        v21=float(np.linalg.norm(fb.v2.conj().T @ fa.v1)),
    )


def equal_rank_angle_gap(p):
    """Max of |u12 - u21| and |v12 - v21|; zero when the ranks agree."""
    ang = subspace_angles(p)
    return max(abs(ang.u12 - ang.u21), abs(ang.v12 - ang.v21))


@dataclass(frozen=True)
class AngleBounds:
    """Principal-angle sandwich of the squared deviation.

    Both uppers dominate the deviation and both lowers are dominated by it.
    """

    upper_a: float
    upper_b: float
    lower_a: float
    lower_b: float


def _ratio(num, den):
    # a zero numerator comes from an empty block, where den may be 0 too
    return 0.0 if num == 0.0 else num / den


def angle_bounds(p):
    ang = subspace_angles(p)
    n = p.norms
    upper_a = n.nbi**2 * ang.u12**2 + n.nai**2 * ang.v21**2 + n.x
    upper_b = n.nai**2 * ang.u21**2 + n.nbi**2 * ang.v12**2 + n.y
    lower_a = _ratio(ang.u12**2, n.nb**2) + _ratio(ang.v21**2, n.na**2) + n.x
    lower_b = _ratio(ang.u21**2, n.na**2) + _ratio(ang.v12**2, n.nb**2) + n.y
    return AngleBounds(upper_a=upper_a, upper_b=upper_b, lower_a=lower_a, lower_b=lower_b)


def trace_real(m_, n_):
    """Re tr(m n*) for same-shape matrices."""
    m_ = as_matrix(m_)
    n_ = as_matrix(n_)
    if m_.shape != n_.shape:
        raise ShapeError(f"trace pairing needs equal shapes, got {m_.shape} and {n_.shape}")
    return float(np.real(np.vdot(n_, m_)))


def von_neumann_sum(m_, n_):
    """Sum of pairwise products of the decreasing singular value lists.

    This is the sharp upper bound for |Re tr(u m v n*)| over unitary u, v.
    """
    m_ = as_matrix(m_)
    n_ = as_matrix(n_)
    if m_.shape != n_.shape:
        raise ShapeError(f"trace pairing needs equal shapes, got {m_.shape} and {n_.shape}")
    sm = jacobi_svd(m_)[1]
    sn = jacobi_svd(n_)[1]
    return float(np.dot(sm, sn))


def aligning_unitaries(m_, n_):
    """Unitaries (u, v) with trace_real(u @ m @ v, n) == von_neumann_sum(m, n)."""
    um, _, vm = jacobi_svd(m_)
    un, _, vn = jacobi_svd(n_)
    return un @ um.conj().T, vm @ vn.conj().T
