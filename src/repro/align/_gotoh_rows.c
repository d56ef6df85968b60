/* Row loop of repro.align.dp._forward(keep_matrices=True).
 *
 * Per cell, the same IEEE-754 double operations in the same order as
 * the numpy loop's eleven ufunc calls per row, so H, E and F come out
 * bit for bit what numpy writes.  Three things keep that true:
 *
 * - MAX is numpy's np.maximum on x86 (maxsd/maxpd with NaN in `a`
 *   patched up): NaN in either operand propagates, and on a tie --
 *   which two different bit patterns reach only as +0.0 / -0.0 -- the
 *   *second* operand wins.  dp.py checks this against np.maximum on
 *   the running host before it uses the kernel.
 * - It must be built with -ffp-contract=off: a fused multiply-add
 *   rounds once where numpy rounds twice.
 * - Each operation must round to double at once (no x87 excess
 *   precision), hence the FLT_EVAL_METHOD guard.
 *
 * Row 0 and column 0 of the three (m+1, n+1) C-contiguous tables are
 * filled by the caller.
 */
#include <float.h>
#include <stddef.h>

#if FLT_EVAL_METHOD != 0
#error "double arithmetic must round to double at every operation"
#endif

/* Written so a compiler can emit maxsd + select instead of branching on
 * which of diagonal / E / F won (data-dependent, so mispredicted). */
static inline double MAX(double a, double b)
{
    double m = a > b ? a : b;
    return a != a ? a : m;
}

void gotoh_rows(ptrdiff_t m, ptrdiff_t n, const double *S,
                const double *open_x, const double *ext_x,
                const double *open_y, const double *cum_y,
                const double *term0s, double *H, double *E, double *F)
{
    const ptrdiff_t w = n + 1;
    for (ptrdiff_t i = 1; i <= m; i++) {
        const double *hp = H + (i - 1) * w, *ep = E + (i - 1) * w;
        const double *s = S + (i - 1) * n;
        double *h = H + i * w, *e = E + i * w, *f = F + i * w;
        const double ox = open_x[i - 1], ex = ext_x[i - 1];
        double run = term0s[i]; /* prefix max of the F scan terms */
        for (ptrdiff_t j = 1; j <= n; j++) {
            double t = hp[j] - ox; /* vertical gap: previous row only */
            double ev = MAX(ep[j], t);
            ev = ev - ex;
            double dg = hp[j - 1] + s[j - 1];
            double h0 = MAX(dg, ev);
            double fv = run - cum_y[j]; /* horizontal gap: exact scan */
            e[j] = ev;
            f[j] = fv;
            h[j] = MAX(h0, fv);
            if (j < n) {
                t = h0 + cum_y[j];
                t = t - open_y[j];
                run = MAX(run, t);
            }
        }
    }
}
