/* Compiled one-sided Jacobi kernel, the twin of _jacobi_py.orthogonalize_columns
   on a column-major m x n complex128 w, every rotation mirrored into the nv x n v.
   Both visit the column pairs in the same round-robin order (Brent & Luk 1985,
   the circle method of _jacobi_py.round_robin): with size = n + n % 2, round r
   pairs column r with column size - 1 and (r + k) % (size - 1) with
   (r - k) % (size - 1), 0 < k < size / 2, skipping the padding column n of odd n.
   The pairs of a round share no column, so this loop over them rotates exactly
   what the numpy kernel rotates in one step.  Returns the sweeps used, or -1 if
   max_sweeps passed without a rotation-free sweep.  Opened through ctypes by
   backends.load_compiled, which calls it once per matrix of a stack. */

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

int orthogonalize_columns(double complex *w, double complex *v, ptrdiff_t m,
                          ptrdiff_t n, ptrdiff_t nv, double eps, int max_sweeps)
{
    ptrdiff_t size = n + n % 2;
    for (int sweep = 0; sweep < max_sweeps; sweep++) {
        int rotated = 0;
        for (ptrdiff_t r = 0; r < size - 1; r++) {
            for (ptrdiff_t h = 0; h < size / 2; h++) {
                ptrdiff_t a = h ? (r + h) % (size - 1) : r;
                ptrdiff_t b = h ? (r - h + size - 1) % (size - 1) : size - 1;
                ptrdiff_t i = a < b ? a : b, j = a < b ? b : a;
                if (j >= n)
                    continue;
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
                rotated = 1;
                /* unitary 2x2 that diagonalizes the Gram block [[alpha, gamma], [conj(gamma), beta]] */
                double complex phase = conj(gamma / mag);
                double tau = (beta - alpha) / (2.0 * mag);
                double t = copysign(1.0 / (fabs(tau) + sqrt(1.0 + tau * tau)), tau);
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
