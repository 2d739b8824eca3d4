"""Seeded random ensembles with exact numerical rank.

A matrix is assembled as q1 @ diag(s) @ q2* from Haar-distributed orthonormal
frames and a log-uniform singular value profile with largest value 1, so the
rank under the default cutoff is known by construction.  Everything is driven
by ``numpy.random.default_rng`` seeds for bitwise reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import default_cutoff
from .geometry import make_pair

MAX_SIDE = 16
# the smallest kept singular value must exceed this many default cutoffs
SEPARATION = 1e3


@dataclass(frozen=True)
class EnsembleSpec:
    """Shape, ranks and sampling parameters for a random pair."""

    m: int
    n: int
    rank_a: int
    rank_b: int
    field: str = "real"
    seed: int = 0
    condition_cap: float = 1e6

    def __post_init__(self):
        if not (1 <= self.m <= MAX_SIDE and 1 <= self.n <= MAX_SIDE):
            raise ValueError(f"sides must be in 1..{MAX_SIDE}, got {self.m} x {self.n}")
        k = min(self.m, self.n)
        if not (0 <= self.rank_a <= k and 0 <= self.rank_b <= k):
            raise ValueError(f"ranks must be in 0..{k}, got {self.rank_a} and {self.rank_b}")
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        if self.condition_cap < 1.0:
            raise ValueError("condition_cap must be at least 1")


def haar_frame(m, k, rng, field="real"):
    """m x k matrix with orthonormal columns, uniformly distributed.

    The phases of the QR diagonal are absorbed so the frame's distribution
    is exactly invariant under left multiplication by unitaries.
    """
    g = rng.standard_normal((m, k))
    if field == "complex":
        g = g + 1j * rng.standard_normal((m, k))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return (q * (np.conj(d) / np.abs(d))).astype(np.complex128)


def haar_unitary(k, rng, field="complex"):
    return haar_frame(k, k, rng, field)


def _sigma_profile(rank, cap, rng):
    if rank == 0:
        return np.zeros(0)
    s = np.exp(rng.uniform(np.log(1.0 / cap), 0.0, size=rank))
    s = np.sort(s)[::-1]
    return s / s[0]


def gen_fixed_rank(spec, rank=None, rng=None):
    """One matrix of the requested rank from the ensemble ``spec`` describes."""
    rank = spec.rank_a if rank is None else rank
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    if rank == 0:
        return np.zeros((spec.m, spec.n), dtype=np.complex128)
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
