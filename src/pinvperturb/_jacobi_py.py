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
so this kernel tests and rotates a whole round in one numpy step, for
every matrix of a stack at once, where ``_jacobi.c`` loops over the same
pairs one by one, and ``backends`` calls it once per matrix.
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


def _stacked_rounds(n, count):
    """``round_robin(n)`` for ``count`` matrices whose columns are the rows of one array.

    Matrix i holds rows ``i * n`` to ``i * n + n - 1``; each round's ``p``
    and ``q`` list the pairs of every matrix, matrix by matrix, and ``rows``
    is again ``p, q, p, q, q``.
    """
    if count == 1:
        return round_robin(n)
    offsets = np.arange(0, count * n, n)[:, None]
    rounds = []
    for p, q, _ in round_robin(n):
        p, q = (offsets + p).ravel(), (offsets + q).ravel()
        rounds.append((p, q, np.concatenate((p, q, p, q, q))))
    return rounds


def orthogonalize_columns(w, v, eps, max_sweeps, counts=None):
    """Sweep over column pairs of ``w`` rotating each pair orthogonal.

    ``w`` is one m x n matrix or a stack ``(B, m, n)`` of them, and ``v`` is
    an nv x n accumulator for each; every matrix is stored column-major.
    The matrices of a stack rotate in lockstep, one gather, test and rotate
    per round for all of them, and each leaves the stack after its first
    sweep with no rotation, so it ends as it would alone.

    A pair counts as orthogonal once |w_p* w_q| <= eps |w_p| |w_q|, tested
    as ``eps * sqrt(alpha) * sqrt(beta)``: the product of the squared norms
    would overflow for entries near 1e77 and pass every pair.

    Returns the number of sweeps used, or -1 if the pass limit was reached
    before a sweep completed with no rotations; for a stack, the largest
    count, or -1 if any matrix reached the limit.  ``counts``, an int array
    of shape ``w.shape[:-2]``, receives each matrix's own count.
    """
    m, n = w.shape[-2:]
    # the rows of wv[i] are the columns of w[i], then of v[i], so that one
    # gather and two scatters per round rotate both
    wv = np.concatenate((w.swapaxes(-1, -2), v.swapaxes(-1, -2)), axis=-1)
    wv = wv.reshape(-1, n, m + v.shape[-2])
    sweeps = np.full(len(wv), -1)
    live = np.arange(len(wv))  # the matrices still sweeping
    # a matrix that cannot converge may overflow tau * tau; it reports -1, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(max_sweeps):
            cur = wv if live.size == len(wv) else wv[live]
            rows_of = cur.reshape(-1, cur.shape[-1])  # a view: each matrix's rows in turn
            acts = []  # which pairs rotated, per round that rotated any
            for p, q, rows in _stacked_rounds(n, live.size):
                k = p.size
                g = rows_of.take(rows, axis=0)
                dots = np.add.reduce(g[: 3 * k, :m].conj() * g[2 * k :, :m], axis=1)
                root = np.sqrt(dots[: 2 * k].real)
                gamma = dots[2 * k :]
                mag = abs(gamma)
                act = mag > eps * root[:k] * root[k:]
                i = act.nonzero()[0]  # the pairs to rotate
                if not i.size:
                    continue
                acts.append(act)
                alpha, beta, x, y = dots[:k].real, dots[k : 2 * k].real, g[:k], g[k : 2 * k]
                if i.size < k:
                    p, q, x, y = p.take(i), q.take(i), x.take(i, axis=0), y.take(i, axis=0)
                    alpha, beta = alpha.take(i), beta.take(i)
                    gamma, mag = gamma.take(i), mag.take(i)
                # unitary 2x2 that diagonalizes each Gram block
                # [[alpha, gamma], [conj(gamma), beta]]; the parts of gamma
                # are divided by mag as in C, where numpy's complex division
                # would multiply by 1/mag, which overflows once mag is subnormal
                parts = gamma.view(np.float64).reshape(-1, 2)
                phase = (parts / mag[:, None]).view(np.complex128).conj()
                tau = (beta - alpha) / (2.0 * mag)
                t = np.copysign(1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau)), tau)
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = t[:, None] * c
                rows_of[p] = c * x - (s * phase) * y
                rows_of[q] = s * x + (c * phase) * y
            if cur is not wv:
                wv[live] = cur
            if not acts:  # a sweep without rotations: every matrix left is done
                sweeps[live] = sweep + 1
                break
            if live.size > 1:
                rotated = np.concatenate(acts).reshape(len(acts), live.size, -1).any(axis=(0, 2))
                sweeps[live[~rotated]] = sweep + 1
                live = live[rotated]
    w.swapaxes(-1, -2)[...] = wv[..., :m].reshape(w.shape[:-2] + (n, m))
    v.swapaxes(-1, -2)[...] = wv[..., m:].reshape(v.shape[:-2] + (n, v.shape[-2]))
    return sweep_summary(sweeps, counts)


def sweep_summary(sweeps, counts):
    """A kernel's return value from its per-matrix sweep counts, which go to ``counts`` if given."""
    if counts is not None:
        counts[...] = sweeps.reshape(np.shape(counts))
    return -1 if (sweeps < 0).any() else int(sweeps.max())
