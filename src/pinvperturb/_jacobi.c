/* Compiled one-sided Jacobi kernel, the loop of _jacobi_py.orthogonalize_columns
   on a column-major m x n complex128 w, every rotation mirrored into the nv x n v.
   Returns the sweeps used, or -1 if max_sweeps passed without a rotation-free
   sweep.  Opened through ctypes by backends.load_compiled. */

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
    for (int sweep = 0; sweep < max_sweeps; sweep++) {
        int rotated = 0;
        for (ptrdiff_t i = 0; i < n - 1; i++) {
            for (ptrdiff_t j = i + 1; j < n; j++) {
                double complex *wi = w + i * m, *wj = w + j * m;
                double complex gamma = 0.0;
                double alpha = 0.0, beta = 0.0;
                for (ptrdiff_t k = 0; k < m; k++) {
                    alpha += creal(wi[k]) * creal(wi[k]) + cimag(wi[k]) * cimag(wi[k]);
                    beta += creal(wj[k]) * creal(wj[k]) + cimag(wj[k]) * cimag(wj[k]);
                    gamma += conj(wi[k]) * wj[k];
                }
                double mag = cabs(gamma);
                if (mag <= eps * sqrt(alpha * beta))
                    continue;
                rotated = 1;
                /* unitary 2x2 that diagonalizes the Gram block [[alpha, gamma], [conj(gamma), beta]] */
                double complex phase = gamma / mag;
                double tau = (beta - alpha) / (2.0 * mag);
                double t = tau >= 0.0 ? 1.0 / (tau + sqrt(1.0 + tau * tau))
                                      : -1.0 / (-tau + sqrt(1.0 + tau * tau));
                double c = 1.0 / sqrt(1.0 + t * t), s = t * c;
                double complex gp = -s * conj(phase), gq = c * conj(phase);
                rotate(wi, wj, m, c, s, gp, gq);
                rotate(v + i * nv, v + j * nv, nv, c, s, gp, gq);
            }
        }
        if (!rotated)
            return sweep + 1;
    }
    return -1;
}
