"""Pure numpy twin of the one-sided Jacobi column-orthogonalization kernel.

Used when the C kernel ``_jacobi.c`` is not built (or forced via
``PINVPERTURB_BACKEND=python``).  Semantics are identical: plane rotations
are applied to column pairs of ``w`` until all columns are pairwise
orthogonal, and every rotation is mirrored into ``v`` so that
``w_in @ v == w_out`` throughout.

Both kernels visit the pairs in the same round-robin order (Brent & Luk,
SIAM J. Sci. Stat. Comput. 1985), given by ``round_robin``: a sweep is
n - 1 rounds of n/2 pairs (n rounds for odd n, each leaving one column
idle), and the pairs of a round share no column.  Their rotations commute,
so this kernel tests and rotates a whole round in one numpy step, where
``_jacobi.c`` loops over the same pairs one by one.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=64)
def round_robin(n):
    """The rounds of one sweep over n columns, as read-only ``(p, q, rows)`` index arrays.

    Circle method: with ``size = n + n % 2``, round r pairs column r with
    column ``size - 1`` and ``(r + k) % (size - 1)`` with
    ``(r - k) % (size - 1)`` for ``0 < k < size / 2``; for odd n the pair
    holding the padding column n is dropped.  Each pair is ordered
    ``p[i] < q[i]``, and every pair of columns appears in exactly one round.
    ``rows`` is ``p, q, p, q, q``, so that one gather brings the pairs and
    its first three blocks against its last three give alpha, beta, gamma.
    """
    if n < 2:
        return ()
    rounds = []
    size = n + n % 2
    for r in range(size - 1):
        ends = [(r, size - 1)]
        ends += [((r + k) % (size - 1), (r - k) % (size - 1)) for k in range(1, size // 2)]
        p, q = np.array([sorted(e) for e in ends if max(e) < n], dtype=np.intp).T
        rows = np.concatenate((p, q, p, q, q))
        rows.flags.writeable = False
        rounds.append((rows[: p.size], rows[p.size : 2 * p.size], rows))
    return tuple(rounds)


def orthogonalize_columns(w, v, eps, max_sweeps):
    """Sweep over column pairs of ``w`` rotating each pair orthogonal.

    A pair counts as orthogonal once |w_p* w_q| <= eps |w_p| |w_q|, tested
    as ``eps * sqrt(alpha) * sqrt(beta)``: the product of the squared norms
    would overflow for entries near 1e77 and pass every pair.

    Returns the number of sweeps used, or -1 if the pass limit was reached
    before a sweep completed with no rotations.
    """
    m = w.shape[0]
    # the rows of wv are the columns of w alone until the first rotation,
    # then of w and v side by side, so that one gather and two scatters per
    # round rotate both; a call with nothing to rotate never copies v
    wv = w.T
    stacked = False
    sweeps = -1
    for sweep in range(max_sweeps):
        rotated = False
        for p, q, rows in round_robin(w.shape[1]):
            k = p.size
            g = wv.take(rows, axis=0)
            dots = np.add.reduce(g[: 3 * k, :m].conj() * g[2 * k :, :m], axis=1)
            root = np.sqrt(dots[: 2 * k].real)
            gamma = dots[2 * k :]
            mag = abs(gamma)
            act = mag > eps * root[:k] * root[k:]
            count = np.count_nonzero(act)
            if not count:
                continue
            rotated = True
            if not stacked:
                wv = np.concatenate((w.T, v.T), axis=1)
                stacked = True
                g = wv.take(rows, axis=0)
            alpha, beta, x, y = dots[:k].real, dots[k : 2 * k].real, g[:k], g[k : 2 * k]
            if count < k:
                p, q, x, y = p[act], q[act], x[act], y[act]
                alpha, beta, gamma, mag = alpha[act], beta[act], gamma[act], mag[act]
            # unitary 2x2 that diagonalizes each Gram block [[alpha, gamma], [conj(gamma), beta]];
            # the parts of gamma are divided by mag as in C, where numpy's
            # complex division would multiply by 1/mag, which overflows once
            # mag is subnormal
            parts = gamma.view(np.float64).reshape(-1, 2)
            phase = (parts / mag[:, None]).view(np.complex128).conj()
            tau = (beta - alpha) / (2.0 * mag)
            t = np.copysign(1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau)), tau)
            c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
            s = t[:, None] * c
            wv[p] = c * x - (s * phase) * y
            wv[q] = s * x + (c * phase) * y
        if not rotated:
            sweeps = sweep + 1
            break
    if stacked:
        w.T[...] = wv[:, :m]
        v.T[...] = wv[:, m:]
    return sweeps
