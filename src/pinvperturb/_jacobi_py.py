"""Pure numpy twin of the one-sided Jacobi column-orthogonalization kernel.

Used when the C kernel ``_jacobi.c`` is not built (or forced via
``PINVPERTURB_BACKEND=python``).  Semantics are identical: plane rotations
are applied to column pairs of ``w`` until all columns are pairwise
orthogonal, and every rotation is mirrored into ``v`` so that
``w_in @ v == w_out`` throughout.
"""

from __future__ import annotations

import numpy as np


def orthogonalize_columns(w, v, eps, max_sweeps):
    """Sweep over column pairs of ``w`` rotating each pair orthogonal.

    A pair counts as orthogonal once |w_i* w_j| <= eps |w_i| |w_j|.

    Returns the number of sweeps used, or -1 if the pass limit was reached
    before a sweep completed with no rotations.
    """
    n = w.shape[1]
    for sweep in range(max_sweeps):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                wi = w[:, i]
                wj = w[:, j]
                alpha = np.real(np.vdot(wi, wi))
                beta = np.real(np.vdot(wj, wj))
                gamma = np.vdot(wi, wj)
                mag = abs(gamma)
                if mag <= eps * np.sqrt(alpha * beta):
                    continue
                rotated = True
                # unitary 2x2 that diagonalizes the Gram block [[alpha, gamma], [conj(gamma), beta]]
                phase = gamma / mag
                tau = (beta - alpha) / (2.0 * mag)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.array(
                    [[c, s], [-s * np.conj(phase), c * np.conj(phase)]],
                    dtype=np.complex128,
                )
                w[:, [i, j]] = w[:, [i, j]] @ rot
                v[:, [i, j]] = v[:, [i, j]] @ rot
        if not rotated:
            return sweep + 1
    return -1
