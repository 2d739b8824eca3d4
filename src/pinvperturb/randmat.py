"""Seeded random ensembles with exact numerical rank.

A matrix is assembled as q1 @ diag(s) @ q2* from Haar-distributed orthonormal
frames and a log-uniform singular value profile with largest value 1, so the
rank under the default cutoff is known by construction.  Everything is driven
by ``numpy.random.default_rng`` seeds for bitwise reproducibility.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import check_integer, check_real, default_cutoff
from .geometry import make_pair

MAX_SIDE = 16
# the smallest kept singular value must exceed this many default cutoffs
SEPARATION = 1e3


class _EnsembleFields(NamedTuple):
    m: int
    n: int
    rank_a: int
    rank_b: int
    field: str = "real"
    seed: int = 0
    condition_cap: float = 1e6


class EnsembleSpec(_EnsembleFields):
    """Shape, ranks and sampling parameters for a random pair, checked on every construction.

    Sides and ranks are integers, the seed a non-negative integer and the
    cap a finite real of at least 1; numpy's integers and reals count, a
    bool does not, and any other value is a ValueError that names it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        # a bool is not a side, rank, seed or cap, and a seed of None would
        # draw from OS entropy, never to repeat
        for name in ("m", "n", "rank_a", "rank_b", "seed"):
            check_integer(name, getattr(spec, name))
        if spec.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {spec.seed!r}")
        check_real("condition_cap", spec.condition_cap)
        if not (1 <= spec.m <= MAX_SIDE and 1 <= spec.n <= MAX_SIDE):
            raise ValueError(f"sides must be in 1..{MAX_SIDE}, got {spec.m} x {spec.n}")
        k = min(spec.m, spec.n)
        if not (0 <= spec.rank_a <= k and 0 <= spec.rank_b <= k):
            raise ValueError(f"ranks must be in 0..{k}, got {spec.rank_a} and {spec.rank_b}")
        if spec.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {spec.field!r}")
        if not 1.0 <= spec.condition_cap < np.inf:  # false for nan too
            raise ValueError(f"condition_cap must be at least 1 and finite: {spec.condition_cap}")
        return spec

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, bypasses __new__
        return cls(*iterable)


def gaussian(rng, shape, field):
    """Standard normal draws of ``shape``: the real parts, then, if complex, the imaginary parts."""
    g = rng.standard_normal(shape)
    if field == "complex":
        g = g + 1j * rng.standard_normal(shape)
    return g


def haar_frame(m, k, rng, field="real"):
    """m x k matrix with orthonormal columns, uniformly distributed.

    The phases of the QR diagonal are absorbed so the frame's distribution
    is exactly invariant under left multiplication by unitaries.  It is
    float64 for the ``real`` field and complex128 for ``complex``.
    """
    check_integer("m", m)
    check_integer("k", k)
    if not 0 <= k <= m:
        raise ValueError(f"orthonormal columns need 0 <= k <= m, got m={m}, k={k}")
    q, r = np.linalg.qr(gaussian(rng, (m, k), field))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (np.conj(d) / np.abs(d))


def haar_unitary(k, rng, field="complex"):
    return haar_frame(k, k, rng, field)


def _sigma_profile(rank, cap, rng):
    s = np.exp(rng.uniform(np.log(1.0 / cap), 0.0, size=rank))
    s = np.sort(s)[::-1]
    return s / s[0]


def gen_fixed_rank(spec, rank=None, rng=None):
    """One matrix of the requested rank from the ensemble ``spec`` describes."""
    rank = spec.rank_a if rank is None else rank
    check_integer("rank", rank)
    if not 0 <= rank <= min(spec.m, spec.n):
        raise ValueError(f"rank must be in 0..{min(spec.m, spec.n)}, got {rank}")
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    if rank == 0:
        return np.zeros((spec.m, spec.n), dtype=complex if spec.field == "complex" else float)
    s = _sigma_profile(rank, spec.condition_cap, rng)
    cut = default_cutoff((spec.m, spec.n), s[0])
    if s[-1] <= SEPARATION * cut:
        raise ValueError(
            f"smallest kept singular value {s[-1]:.3g} is within {SEPARATION} cutoffs"
        )
    q1 = haar_frame(spec.m, rank, rng, spec.field)
    q2 = haar_frame(spec.n, rank, rng, spec.field)
    return (q1 * s) @ q2.conj().T


def gen_pair(spec):
    """Two independent matrices with ranks ``rank_a`` and ``rank_b``, drawn from ``spec``."""
    rng = np.random.default_rng(spec.seed)
    a = gen_fixed_rank(spec, spec.rank_a, rng)
    b = gen_fixed_rank(spec, spec.rank_b, rng)
    return make_pair(a, b)
