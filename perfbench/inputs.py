"""Seeded benchmark inputs, built with numpy alone.

The library's own generator (``randmat``) is a layer under test and caps
sides at 16, so pairs are built here from Haar-like frames and a singular
value profile in [0.1, 1].  The kept singular values sit about twelve
orders of magnitude above the rank cutoff, so the constructed rank is the
program's rank and numpy's references can be taken at it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PERTURBATION = 1e-2
RHS_COLUMNS = 8

# (rows, cols) per workload; each shape gets every rank case, real and complex
SQUARE_SHAPES = [(12, 12), (16, 16), (20, 20)]
TALL_SHAPES = [(256, 16), (192, 12)]
CLI_SHAPES = [(3, 3), (4, 3), (3, 5), (5, 5), (6, 4)]
CLI_PINV_SHAPE = (4, 6)


@dataclass(frozen=True)
class Pair:
    """A seeded pair with its constructed ranks and a block of right-hand sides."""

    a: np.ndarray
    b: np.ndarray
    rank_a: int
    rank_b: int
    rhs: np.ndarray

    @property
    def label(self):
        m, n = self.a.shape
        field = "complex" if np.iscomplexobj(self.a) else "real"
        return f"{m}x{n} {field} ranks {self.rank_a},{self.rank_b}"


def _gauss(rng, shape, cplx):
    g = rng.standard_normal(shape)
    if cplx:
        g = g + 1j * rng.standard_normal(shape)
    return g


def _frame(x):
    return np.linalg.qr(x)[0]


def make_pair(rng, m, n, rank_a, rank_b, cplx):
    """``a`` of rank ``rank_a`` and a nearby ``b`` of rank ``rank_b``.

    ``b`` rotates a's singular frames and scales its singular values by about
    ``PERTURBATION``; when ``rank_b > rank_a`` the extra directions come from
    fresh frame columns.
    """
    k = max(rank_a, rank_b)
    u = _frame(_gauss(rng, (m, k), cplx))
    v = _frame(_gauss(rng, (n, k), cplx))
    s = np.sort(np.exp(rng.uniform(np.log(0.1), 0.0, size=k)))[::-1]
    ub = _frame(u + PERTURBATION * _gauss(rng, (m, k), cplx))
    vb = _frame(v + PERTURBATION * _gauss(rng, (n, k), cplx))
    sb = s * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0, size=k))
    a = (u[:, :rank_a] * s[:rank_a]) @ v[:, :rank_a].conj().T
    b = (ub[:, :rank_b] * sb[:rank_b]) @ vb[:, :rank_b].conj().T
    rhs = _gauss(rng, (m, RHS_COLUMNS), cplx)
    return Pair(a=a, b=b, rank_a=rank_a, rank_b=rank_b, rhs=rhs)


def _rank_cases(k):
    """Equal full rank, a rank drop, and a rank-deficient ``a``."""
    return [(k, k), (k, k - 1), (k // 2, k)]


def pair_set(seed, shapes):
    """Every shape with every rank case, real then complex."""
    rng = np.random.default_rng([seed, 11])
    return [
        make_pair(rng, *shape, ra, rb, cplx)
        for shape in shapes
        for ra, rb in _rank_cases(min(shape))
        for cplx in (False, True)
    ]


def cli_pairs(seed):
    """Small pairs for ``pinvperturb bounds``: one per shape, cycling rank case and field."""
    pairs = pair_set(seed, CLI_SHAPES)
    return [pairs[6 * i + 2 * (i % 3) + i % 2] for i in range(len(CLI_SHAPES))]


def cli_pinv_matrix(seed):
    """A small complex matrix of rank 3 for ``pinvperturb pinv``."""
    rng = np.random.default_rng([seed, 13])
    return make_pair(rng, *CLI_PINV_SHAPE, 3, 3, True).a


def format_matrix(a):
    """The library's text matrix format, written independently of ``matrixio``."""
    m, n = a.shape
    cplx = np.iscomplexobj(a) and bool(np.any(a.imag != 0.0))
    lines = [f"{m} {n} {'complex' if cplx else 'real'}"]
    for row in a:
        if cplx:
            lines.append(" ".join(f"{x.real:.17g} {x.imag:.17g}" for x in row))
        else:
            lines.append(" ".join(f"{x.real:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    """Inverse of ``format_matrix``; skips ``#`` comment lines."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    m, n, field = int(rows[0][0]), int(rows[0][1]), rows[0][2]
    nums = np.array([[float(t) for t in r] for r in rows[1:]])
    if nums.shape[0] != m:
        raise ValueError(f"expected {m} rows, got {nums.shape[0]}")
    if field == "complex":
        return nums[:, 0::2] + 1j * nums[:, 1::2]
    return nums.reshape(m, n)
