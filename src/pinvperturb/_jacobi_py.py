"""Pure numpy twin of the one-sided Jacobi column-orthogonalization kernel.

Used when the C kernel ``_jacobi.c`` is not built (or forced via
``PINVPERTURB_BACKEND=python``).  Semantics are identical: plane rotations
are applied to column pairs of ``w`` until all columns are pairwise
orthogonal, and every rotation is mirrored into ``v`` so that
``w_in @ v == w_out`` throughout.

Both kernels run the round-robin schedule (Brent & Luk, SIAM J. Sci.
Stat. Comput. 1985) that ``round_robin`` builds, the one place that orders
the pairs; ``backends.load_compiled`` hands the same array to C.  A sweep
is n - 1 rounds of n/2 pairs (n rounds for odd n, each leaving one column
idle), and the pairs of a round share no column.  Their rotations commute,
so this kernel tests and rotates a whole round in one numpy step, for
every matrix of a stack at once, where ``_jacobi.c`` loops over the same
pairs one by one.  Both take each matrix stored by columns, its columns
being the rows of a C-ordered array, and a whole stack in one call.

The dot products of this kernel are ``np.vecdot``, one BLAS ``zdotc`` per
pair of columns, so their last bits, and with them this kernel's output,
depend on the CPU kernel that numpy's BLAS picks as well as on numpy.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=64)
def round_robin(n):
    """The schedule of one sweep over n columns: a read-only ``(rounds, 2, pairs)`` intp array.

    Round r pairs column ``[r, 0, i]`` with column ``[r, 1, i]``, p < q, for
    each i; both kernels run this array, and nothing else orders the pairs.
    Circle method: with ``size = n + n % 2``, round r pairs column r with
    column ``size - 1`` and ``(r + k) % (size - 1)`` with
    ``(r - k) % (size - 1)`` for ``0 < k < size / 2``; for odd n the pair
    holding the padding column n is dropped.  Every pair of columns appears
    in exactly one round.
    """
    size = n + n % 2
    r = np.arange(size - 1 if n > 1 else 0, dtype=np.intp)[:, None]
    k = np.arange(n % 2, size // 2, dtype=np.intp)  # odd n: no pair (r, n)
    a = np.where(k > 0, (r + k) % (size - 1), r)
    b = np.where(k > 0, (r - k) % (size - 1), size - 1)
    schedule = np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1)
    schedule.flags.writeable = False
    return schedule


@functools.lru_cache(maxsize=64)
def _stacked_rounds(n, count):
    """``round_robin(n)`` for ``count`` matrices whose columns are the rows of one array, per round.

    Matrix i holds rows ``i * n`` to ``i * n + n - 1``.  Each round is
    ``(p, q, rows)``: ``p`` and ``q`` list the pairs of every matrix, matrix
    by matrix, and ``rows`` is ``p, q``, so that one gather brings both
    columns of every pair.  All three are read-only views of one table,
    built once per ``(n, count)``.
    """
    schedule = round_robin(n)
    rounds, _, pairs = schedule.shape
    # (round, p or q, matrix, pair): every round of every matrix in one sum
    table = schedule[:, :, None, :] + n * np.arange(count, dtype=np.intp)[:, None]
    table = table.reshape(rounds, 2 * count * pairs)
    table.flags.writeable = False
    half = table.shape[1] // 2
    return tuple((rows[:half], rows[half:], rows) for rows in table)


def orthogonalize_columns(w, v, eps, max_sweeps, counts=None):
    """Sweep over column pairs of ``w`` rotating each pair orthogonal.

    ``w`` holds one m x n matrix as an ``(n, m)`` array whose rows are its
    columns, or a stack ``(B, n, m)`` of them, and ``v`` an ``(…, n, nv)``
    accumulator for each, laid out the same way: rotating rows i and j of
    ``w`` rotates rows i and j of ``v``.
    The matrices of a stack rotate in lockstep, one gather, test and rotate
    per round for all of them, until each has had a sweep with no rotation;
    after that it never changes, so each ends as it would alone.

    Each round rotates the pairs of one mask, ``(mag > eps * sqrt(alpha) *
    sqrt(beta)) & (t != 0)``: the two tests of ``_jacobi.c``, in its order.
    By the first, a pair is orthogonal once |w_p* w_q| <= eps |w_p| |w_q|,
    tested with the square roots taken apart, since the product of the
    squared norms would overflow for entries near 1e77 and pass every pair.  The
    second drops a pair whose rotation has t == 0 (tau * tau overflowed, so
    the columns are parallel to within far less than eps): applied, it would
    only rescale column q by a phase, in every sweep.  Only the pairs of the
    mask rotate, and only they count as rotations.  As C computes t only for
    a pair past the first test, a round with no such pair computes no t.

    Each sweep first tests every pair of every matrix at once, with the
    ``zdotc`` bits its round computes.  A round before the first round that
    holds a failing pair reads only columns that no rotation has changed
    yet, so it would find nothing to rotate, and the sweep starts after it.
    A sweep in which no pair fails the test runs no round at all.  The test
    costs one ``(B, n, n)`` Gram matrix; gathering every pair at once would
    cost O(n^2 m).

    Returns the number of sweeps used, or -1 if the pass limit was reached
    before a sweep completed with no rotations; for a stack, the largest
    count, or -1 if any matrix reached the limit.  ``counts``, an int array
    of shape ``w.shape[:-2]``, receives each matrix's own count.
    """
    n, m = w.shape[-2:]
    # the rows of wv[i] are those of w[i] followed by those of v[i], so that
    # one gather and two scatters per round rotate both
    wv = np.concatenate((w, v), axis=-1).reshape(-1, n, m + v.shape[-1])
    sweeps = np.full(len(wv), -1)
    rows_of = wv.reshape(-1, wv.shape[-1])  # a view: each matrix's rows in turn
    cols = wv[..., :m]  # a view: the columns of each w
    schedule = round_robin(n)
    pairs = schedule.shape[2]
    # where each pair (p, q) of the schedule sits in a raveled n x n table, round by round
    entries = (schedule[:, 0] * n + schedule[:, 1]).ravel()
    rounds = _stacked_rounds(n, len(wv))
    # a matrix that cannot converge may overflow tau * tau, and a pair with
    # gamma == 0 divides by zero; both are masked out, quietly
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for sweep in range(max_sweeps):
            # entry [i, p, q] holds the bits of the test of pair (p, q) of
            # matrix i that its round computes while no rotation precedes it
            gram = np.vecdot(cols[:, :, None, :], cols[:, None, :, :])
            root = np.sqrt(np.diagonal(gram, axis1=1, axis2=2).real)
            fails = abs(gram) > eps * root[:, :, None] * root[:, None, :]
            # the first round holding a pair that fails in any matrix, else none
            hits = fails.any(axis=0).ravel().take(entries)
            first = hits.argmax() // pairs if hits.any() else len(rounds)
            acts = []  # which pairs rotated, per round that rotated any
            for p, q, rows in rounds[first:]:
                k = p.size
                g = rows_of.take(rows, axis=0)
                x, y, gw = g[:k], g[k:], g[:, :m]
                norms = np.vecdot(gw, gw).real
                root = np.sqrt(norms)
                gamma = np.vecdot(gw[:k], gw[k:])
                mag = abs(gamma)
                above = mag > eps * root[:k] * root[k:]
                if not np.count_nonzero(above):  # most rounds: no tau to compute, as in C
                    continue
                alpha, beta = norms[:k], norms[k:]
                # unitary 2x2 that diagonalizes each Gram block
                # [[alpha, gamma], [conj(gamma), beta]]
                tau = (beta - alpha) / (2.0 * mag)
                t = np.copysign(1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau)), tau)
                act = above & (t != 0.0)
                i = act.nonzero()[0]  # the pairs to rotate
                if not i.size:
                    continue
                acts.append(act)
                if i.size < k:
                    p, q, x, y = p.take(i), q.take(i), x.take(i, axis=0), y.take(i, axis=0)
                    gamma, mag, t = gamma.take(i), mag.take(i), t.take(i)
                # the parts of gamma are divided by mag as in C, where numpy's
                # complex division would multiply by 1/mag, which overflows
                # once mag is subnormal
                parts = gamma.view(np.float64).reshape(-1, 2)
                phase = (parts / mag[:, None]).view(np.complex128).conj()
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = t[:, None] * c
                rows_of[p] = c * x - (s * phase) * y
                rows_of[q] = s * x + (c * phase) * y
            if not acts:  # a sweep without rotations: every matrix is done
                sweeps[sweeps < 0] = sweep + 1
                break
            # the first sweep without rotations of each matrix
            rotated = np.concatenate(acts).reshape(len(acts), len(wv), -1).any(axis=(0, 2))
            sweeps[~rotated & (sweeps < 0)] = sweep + 1
    w[...] = wv[..., :m].reshape(w.shape)
    v[...] = wv[..., m:].reshape(v.shape)
    return sweep_summary(sweeps, counts)


def sweep_summary(sweeps, counts):
    """A kernel's return value from its per-matrix sweep counts, which go to ``counts`` if given."""
    if counts is not None:
        counts[...] = sweeps.reshape(np.shape(counts))
    return -1 if (sweeps < 0).any() else int(sweeps.max())
