/* Compiled one-sided Jacobi kernel, the twin of _jacobi_py.orthogonalize_columns.
   Each matrix is stored by columns: its n columns of length m are the rows of
   a C-ordered n x m block w, and every rotation is mirrored into the rows of
   its n x nv block v.  Both kernels run the round-robin schedule that
   _jacobi_py.round_robin builds (Brent & Luk 1985), a C-ordered
   rounds x 2 x pairs index array: round r pairs column schedule[r][0][h]
   with column schedule[r][1][h].  The pairs of a round share no column, so
   this loop over them rotates exactly what the numpy kernel rotates in one
   step.  One body, KERNEL below, is built twice: orthogonalize_rounds_real
   for float64 blocks and orthogonalize_rounds_complex for complex128 ones,
   so a real input is rotated in real arithmetic.  backends.load_compiled
   opens both through ctypes and picks one by dtype; each runs a whole stack
   of blocks in one call. */

#include <complex.h>
#include <math.h>
#include <stddef.h>

/* The arithmetic of each field, named by its suffix: |x|^2, conj(x) y, the
   modulus, the phase of gamma, the largest part of x, and x times 2^e part
   by part. */
#define ABS2_real(x) ((x) * (x))
#define DOT_real(x, y) ((x) * (y))
#define ABS_real(x) fabs(x)
#define PHASE_real(g, mag) ((g) / (mag))
#define PART_real(x) fabs(x)
#define LDEXP_real(x, e) ldexp((x), (e))

#define ABS2_complex(x) (creal(x) * creal(x) + cimag(x) * cimag(x))
#define DOT_complex(x, y) (conj(x) * (y))
#define ABS_complex(x) cabs(x)
#define PHASE_complex(g, mag) conj((g) / (mag))
#define PART_complex(x) fmax(fabs(creal(x)), fabs(cimag(x)))
#define LDEXP_complex(x, e) (ldexp(creal(x), (e)) + ldexp(cimag(x), (e)) * I)

/* The kernel for elements of type T with the arithmetic of field F. */
#define KERNEL(F, T)                                                                              \
    static void rotate_##F(T *x, T *y, ptrdiff_t len, double c, double s, T gp, T gq)             \
    {                                                                                             \
        for (ptrdiff_t k = 0; k < len; k++) {                                                     \
            T xi = x[k], yj = y[k];                                                               \
            x[k] = c * xi + gp * yj;                                                              \
            y[k] = s * xi + gq * yj;                                                              \
        }                                                                                         \
    }                                                                                             \
                                                                                                  \
    /* the exponent of the largest part of a column, 0 for a zero column */                      \
    static int exponent_##F(const T *x, ptrdiff_t m)                                              \
    {                                                                                             \
        double big = 0.0;                                                                         \
        int e = 0;                                                                                \
        for (ptrdiff_t k = 0; k < m; k++)                                                         \
            big = fmax(big, PART_##F(x[k]));                                                      \
        frexp(big, &e);                                                                           \
        return e;                                                                                 \
    }                                                                                             \
                                                                                                  \
    /* Sweeps one matrix; returns the sweeps used, or -1 if max_sweeps passed                     \
       without a rotation-free sweep. */                                                          \
    static int orthogonalize_columns_##F(T *w, T *v, ptrdiff_t m, ptrdiff_t nv, ptrdiff_t rounds, \
                                         ptrdiff_t pairs, const ptrdiff_t *schedule, double eps,  \
                                         int max_sweeps)                                          \
    {                                                                                             \
        for (int sweep = 0; sweep < max_sweeps; sweep++) {                                        \
            int rotated = 0;                                                                      \
            for (ptrdiff_t r = 0; r < rounds; r++) {                                              \
                const ptrdiff_t *p = schedule + 2 * r * pairs, *q = p + pairs;                    \
                for (ptrdiff_t h = 0; h < pairs; h++) {                                           \
                    ptrdiff_t i = p[h], j = q[h];                                                 \
                    T *wi = w + i * m, *wj = w + j * m;                                           \
                    T gamma = 0.0;                                                                \
                    double alpha = 0.0, beta = 0.0;                                               \
                    for (ptrdiff_t k = 0; k < m; k++) {                                           \
                        alpha += ABS2_##F(wi[k]);                                                 \
                        beta += ABS2_##F(wj[k]);                                                  \
                        gamma += DOT_##F(wi[k], wj[k]);                                           \
                    }                                                                             \
                    double mag = ABS_##F(gamma);                                                  \
                    /* the numpy kernel's test, so a nan skips the pair in both;                  \
                       sqrt(alpha * beta) would overflow for entries near 1e77 */                 \
                    if (!(mag > eps * sqrt(alpha) * sqrt(beta)))                                  \
                        continue;                                                                 \
                    /* a squared norm that underflowed to 0 leaves a threshold of 0,              \
                       which a rotation that changes no bit passes in every sweep:                \
                       test and solve again from the columns scaled by 2^-ei and                  \
                       2^-ej, which is exact, and scale alpha and beta back to a                  \
                       common 2^(ei + ej) */                                                      \
                    if (alpha == 0.0 || beta == 0.0) {                                            \
                        int ei = exponent_##F(wi, m), ej = exponent_##F(wj, m);                   \
                        alpha = beta = 0.0;                                                       \
                        gamma = 0.0;                                                              \
                        for (ptrdiff_t k = 0; k < m; k++) {                                       \
                            T xi = LDEXP_##F(wi[k], -ei), yj = LDEXP_##F(wj[k], -ej);             \
                            alpha += ABS2_##F(xi);                                                \
                            beta += ABS2_##F(yj);                                                 \
                            gamma += DOT_##F(xi, yj);                                             \
                        }                                                                         \
                        mag = ABS_##F(gamma);                                                     \
                        if (!(mag > eps * sqrt(alpha) * sqrt(beta)))                              \
                            continue;                                                             \
                        alpha = ldexp(alpha, ei - ej);                                            \
                        beta = ldexp(beta, ej - ei);                                              \
                    }                                                                             \
                    /* unitary 2x2 that diagonalizes the Gram block                               \
                       [[alpha, gamma], [conj(gamma), beta]] */                                   \
                    double tau = (beta - alpha) / (2.0 * mag);                                    \
                    double t = copysign(1.0 / (fabs(tau) + sqrt(1.0 + tau * tau)), tau);          \
                    /* t == 0 once tau * tau overflows, for columns parallel far                  \
                       below eps: the rotation would only rescale column j by a                   \
                       phase, so it is neither applied nor counted */                             \
                    if (t == 0.0)                                                                 \
                        continue;                                                                 \
                    rotated = 1;                                                                  \
                    T phase = PHASE_##F(gamma, mag);                                              \
                    double c = 1.0 / sqrt(1.0 + t * t), s = t * c;                                \
                    T gp = -(s * phase), gq = c * phase;                                          \
                    rotate_##F(wi, wj, m, c, s, gp, gq);                                          \
                    rotate_##F(v + i * nv, v + j * nv, nv, c, s, gp, gq);                         \
                }                                                                                 \
            }                                                                                     \
            if (!rotated)                                                                         \
                return sweep + 1;                                                                 \
        }                                                                                         \
        return -1;                                                                                \
    }                                                                                             \
                                                                                                  \
    /* Sweeps each of the count matrices stored one after another in w and v                     \
       by the rounds of schedule, writing its sweep count, or -1, to sweeps. */                   \
    void orthogonalize_rounds_##F(T *w, T *v, ptrdiff_t count, ptrdiff_t m, ptrdiff_t n,          \
                                  ptrdiff_t nv, ptrdiff_t rounds, ptrdiff_t pairs,                \
                                  const ptrdiff_t *schedule, double eps, int max_sweeps,          \
                                  int *sweeps)                                                    \
    {                                                                                             \
        for (ptrdiff_t i = 0; i < count; i++)                                                     \
            sweeps[i] = orthogonalize_columns_##F(w + i * n * m, v + i * n * nv, m, nv, rounds,   \
                                                  pairs, schedule, eps, max_sweeps);              \
    }

KERNEL(real, double)
KERNEL(complex, double complex)
