/* Compiled one-sided Jacobi kernel, the twin of _jacobi_py.orthogonalize_columns.
   Each matrix is stored by columns: its n columns of length m are the rows of
   a C-ordered n x m complex128 block w, and every rotation is mirrored into
   the rows of its n x nv block v.  Both kernels run the round-robin schedule
   that _jacobi_py.round_robin builds (Brent & Luk 1985), a C-ordered
   rounds x 2 x pairs index array: round r pairs column schedule[r][0][h]
   with column schedule[r][1][h].  The pairs of a round share no column, so
   this loop over them rotates exactly what the numpy kernel rotates in one
   step.  orthogonalize_rounds, opened through ctypes by
   backends.load_compiled, runs a whole stack of such blocks in one call. */

#include <complex.h>
#include <math.h>
#include <stddef.h>

static void rotate(double complex *x, double complex *y, ptrdiff_t len, double c,
                   double s, double complex gp, double complex gq)
{
    for (ptrdiff_t k = 0; k < len; k++) {
        double complex xi = x[k], yj = y[k];
        x[k] = c * xi + gp * yj;
        y[k] = s * xi + gq * yj;
    }
}

/* Sweeps one matrix; returns the sweeps used, or -1 if max_sweeps passed
   without a rotation-free sweep. */
static int orthogonalize_columns(double complex *w, double complex *v, ptrdiff_t m,
                                 ptrdiff_t nv, ptrdiff_t rounds, ptrdiff_t pairs,
                                 const ptrdiff_t *schedule, double eps, int max_sweeps)
{
    for (int sweep = 0; sweep < max_sweeps; sweep++) {
        int rotated = 0;
        for (ptrdiff_t r = 0; r < rounds; r++) {
            const ptrdiff_t *p = schedule + 2 * r * pairs, *q = p + pairs;
            for (ptrdiff_t h = 0; h < pairs; h++) {
                ptrdiff_t i = p[h], j = q[h];
                double complex *wi = w + i * m, *wj = w + j * m;
                double complex gamma = 0.0;
                double alpha = 0.0, beta = 0.0;
                for (ptrdiff_t k = 0; k < m; k++) {
                    alpha += creal(wi[k]) * creal(wi[k]) + cimag(wi[k]) * cimag(wi[k]);
                    beta += creal(wj[k]) * creal(wj[k]) + cimag(wj[k]) * cimag(wj[k]);
                    gamma += conj(wi[k]) * wj[k];
                }
                double mag = cabs(gamma);
                /* the numpy kernel's test, so a nan skips the pair in both;
                   sqrt(alpha * beta) would overflow for entries near 1e77 */
                if (!(mag > eps * sqrt(alpha) * sqrt(beta)))
                    continue;
                /* unitary 2x2 that diagonalizes the Gram block [[alpha, gamma], [conj(gamma), beta]] */
                double tau = (beta - alpha) / (2.0 * mag);
                double t = copysign(1.0 / (fabs(tau) + sqrt(1.0 + tau * tau)), tau);
                /* t == 0 once tau * tau overflows, for columns parallel far
                   below eps: the rotation would only rescale column j by a
                   phase, so it is neither applied nor counted */
                if (t == 0.0)
                    continue;
                rotated = 1;
                double complex phase = conj(gamma / mag);
                double c = 1.0 / sqrt(1.0 + t * t), s = t * c;
                double complex gp = -(s * phase), gq = c * phase;
                rotate(wi, wj, m, c, s, gp, gq);
                rotate(v + i * nv, v + j * nv, nv, c, s, gp, gq);
            }
        }
        if (!rotated)
            return sweep + 1;
    }
    return -1;
}

/* Sweeps each of the count matrices stored one after another in w and v by
   the rounds of schedule, writing its sweep count, or -1, to sweeps. */
void orthogonalize_rounds(double complex *w, double complex *v, ptrdiff_t count, ptrdiff_t m,
                          ptrdiff_t n, ptrdiff_t nv, ptrdiff_t rounds, ptrdiff_t pairs,
                          const ptrdiff_t *schedule, double eps, int max_sweeps, int *sweeps)
{
    for (ptrdiff_t i = 0; i < count; i++)
        sweeps[i] = orthogonalize_columns(w + i * n * m, v + i * n * nv, m, nv, rounds, pairs,
                                          schedule, eps, max_sweeps);
}
