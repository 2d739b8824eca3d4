"""Shared test inputs and kernel names."""

from __future__ import annotations

import numpy as np

BACKENDS = ["compiled", "python"]
NO_COMPILED = "no built _jacobi library, and no cc to compile src/pinvperturb/_jacobi.c"


def lowrank(rng, m, n, r, cplx):
    """An m x n matrix of rank r drawn from ``rng``: x y* with Gaussian x (m x r) and y (n x r)."""
    if r == 0:
        return np.zeros((m, n), dtype=complex)
    x = rng.standard_normal((m, r))
    y = rng.standard_normal((n, r))
    if cplx:
        x = x + 1j * rng.standard_normal((m, r))
        y = y + 1j * rng.standard_normal((n, r))
    return x @ y.conj().T
