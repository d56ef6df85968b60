/* One global affine alignment of repro.align.dp, end to end: what
 * _forward(keep_matrices=True), _terminal_best and _traceback do, in
 * one call.
 *
 * Every value is computed by the same IEEE-754 double operations in
 * the same order as the numpy/python path, so H, E, F, the score and
 * the path come out bit for bit what that path writes.  Four things
 * keep that true:
 *
 * - MAX is numpy's np.maximum on x86 (maxsd/maxpd with NaN in `a`
 *   patched up): NaN in either operand propagates, and on a tie --
 *   which two different bit patterns reach only as +0.0 / -0.0 -- the
 *   *second* operand wins.
 * - Running sums go left to right from the first element, as
 *   np.cumsum does, and the end cell is np.argmax's: the first of the
 *   maxima, or the first NaN.  dp.py checks all of this against numpy
 *   on the running host before it uses the kernel.
 * - It must be built with -ffp-contract=off: a fused multiply-add
 *   rounds once where numpy rounds twice.
 * - Each operation must round to double at once (no x87 excess
 *   precision), hence the FLT_EVAL_METHOD guard.
 *
 * Three entries share the body.  gotoh_align reads pair scores from a
 * dense (m, n) matrix; gotoh_align_codes reads them from a
 * substitution table through two residue-code arrays, so a sequence
 * pair never has a score matrix; gotoh_identity_codes does the same for
 * a whole tile of pairs and keeps, per pair, only the two integers the
 * full-dp distance needs -- matched and identical residues along the
 * path -- so no map leaves the call.  The caller owns every buffer and
 * has checked every code against the table; the two single-pair
 * entries also need m >= 1 and n >= 1.
 *
 * A fourth entry, agglomerate, is not alignment: it is the guide-tree
 * loop of repro.tree.builders (UPGMA / WPGMA / single linkage), held to
 * the same rule -- the numpy loop's bytes, checked on the running host
 * before use.
 *
 * A fifth entry, apply_path, is what a progressive merge does with the
 * path gotoh_align returns: it writes the merged clade -- the two code
 * matrices laid out along the path and the two sides' column counts
 * summed -- in one pass, integers only, after checking that the path is
 * a merge of the two sides.
 */
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#if FLT_EVAL_METHOD != 0
#error "double arithmetic must round to double at every operation"
#endif

#define NEG (-1.0e30) /* dp.NEG */

/* Written so a compiler can emit maxsd + select instead of branching on
 * which of diagonal / E / F won (data-dependent, so mispredicted). */
static inline double MAX(double a, double b)
{
    double m = a > b ? a : b;
    return a != a ? a : m;
}

/* cum = concatenate(([0.0], np.cumsum(ext))), len >= 1. */
static inline void cumulative(const double *ext, ptrdiff_t len, double *cum)
{
    cum[0] = 0.0;
    cum[1] = ext[0];
    for (ptrdiff_t k = 1; k < len; k++)
        cum[k + 1] = cum[k] + ext[k];
}

/* One edge of _terminal_best: np.argmax over
 * trail[k] = h[k * stride] - tf * (open[k] + cum[len] - cum[k]). */
static inline ptrdiff_t best_trailing(const double *h, ptrdiff_t stride,
                                      const double *open, const double *cum,
                                      ptrdiff_t len, double tf, double *value)
{
    ptrdiff_t arg = 0;
    double best = 0.0;
    for (ptrdiff_t k = 0; k < len; k++) {
        double t = open[k] + cum[len];
        t = t - cum[k];
        t = tf * t;
        t = h[k * stride] - t;
        if (k == 0 || !(t <= best)) {
            best = t;
            arg = k;
            if (t != t)
                break;
        }
    }
    *value = best;
    return arg;
}

/* `coded` is a literal at both call sites, so each entry compiles to
 * its own loop with the score read it needs and no test per cell. */
static inline ptrdiff_t align(const int coded, ptrdiff_t m, ptrdiff_t n,
                              const double *S, ptrdiff_t width,
                              const uint8_t *xc, const uint8_t *yc,
                              const double *open_x, const double *ext_x,
                              const double *open_y, const double *ext_y,
                              double tf, double *H, double *E, double *F,
                              double *cum_x, double *cum_y,
                              int64_t *xs, int64_t *ys, double *score)
{
    const ptrdiff_t w = n + 1;
    const double ntf = -tf;
    ptrdiff_t i, j, k = 0;

    cumulative(ext_x, m, cum_x);
    cumulative(ext_y, n, cum_y);

    /* Row 0: leading horizontal gap, scaled by tf.  Column 0 likewise. */
    H[0] = 0.0;
    E[0] = NEG;
    F[0] = NEG;
    for (j = 1; j <= n; j++) {
        double v = ntf * (open_y[0] + cum_y[j]);
        H[j] = v;
        E[j] = NEG;
        F[j] = v;
    }
    for (i = 1; i <= m; i++) {
        double v = ntf * (open_x[0] + cum_x[i]);
        H[i * w] = v;
        E[i * w] = v;
        F[i * w] = NEG;
    }

    for (i = 1; i <= m; i++) {
        const double *hp = H + (i - 1) * w, *ep = E + (i - 1) * w;
        const double *s = coded ? S + xc[i - 1] * width : S + (i - 1) * n;
        double *h = H + i * w, *e = E + i * w, *f = F + i * w;
        const double ox = open_x[i - 1], ex = ext_x[i - 1];
        /* prefix max of the F scan terms */
        double run = (h[0] + cum_y[0]) - open_y[0];
        for (j = 1; j <= n; j++) {
            double t = hp[j] - ox; /* vertical gap: previous row only */
            double ev = MAX(ep[j], t);
            ev = ev - ex;
            double dg = hp[j - 1] + (coded ? s[yc[j - 1]] : s[j - 1]);
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

    /* _terminal_best: the corner, then a trailing vertical gap, then a
     * trailing horizontal one; each replaces only a strictly lower best. */
    double best = H[m * w + n], cand;
    ptrdiff_t bi = m, bj = n, arg;
    arg = best_trailing(H + n, w, open_x, cum_x, m, tf, &cand);
    if (cand > best) {
        best = cand;
        bi = arg;
        bj = n;
    }
    arg = best_trailing(H + m * w, 1, open_y, cum_y, n, tf, &cand);
    if (cand > best) {
        best = cand;
        bi = m;
        bj = arg;
    }
    *score = best;

    /* _traceback, path reversed: the trailing gap first. */
    for (j = n; j > bj; j--, k++) {
        xs[k] = -1;
        ys[k] = j - 1;
    }
    for (i = m; i > bi; i--, k++) {
        xs[k] = i - 1;
        ys[k] = -1;
    }
    i = bi;
    j = bj;
    int state = 0; /* 0 = H, 1 = E, 2 = F */
    while (i > 0 && j > 0) {
        const double *hp = H + (i - 1) * w;
        if (state == 0) {
            double sc = coded ? S[xc[i - 1] * width + yc[j - 1]]
                              : S[(i - 1) * n + j - 1];
            double dg = hp[j - 1] + sc;
            double ev = E[i * w + j], fv = F[i * w + j];
            if (dg >= ev && dg >= fv) { /* diagonal > vertical > horizontal */
                xs[k] = i - 1;
                ys[k] = j - 1;
                k++;
                i--;
                j--;
            } else {
                state = ev >= fv ? 1 : 2;
            }
        } else if (state == 1) { /* consumed x_i: extend E, or open from H */
            int stay = E[(i - 1) * w + j] >= hp[j] - open_x[i - 1];
            xs[k] = i - 1;
            ys[k] = -1;
            k++;
            i--;
            if (!stay || i == 0)
                state = 0;
        } else {
            int stay = F[i * w + j - 1] >= H[i * w + j - 1] - open_y[j - 1];
            xs[k] = -1;
            ys[k] = j - 1;
            k++;
            j--;
            if (!stay || j == 0)
                state = 0;
        }
    }
    for (; i > 0; i--, k++) { /* leading gap along whichever axis remains */
        xs[k] = i - 1;
        ys[k] = -1;
    }
    for (; j > 0; j--, k++) {
        xs[k] = -1;
        ys[k] = j - 1;
    }
    return k;
}

/* These two return the path length (<= m + n); xs/ys hold the path
 * reversed. */
ptrdiff_t gotoh_align(ptrdiff_t m, ptrdiff_t n, const double *S,
                      const double *open_x, const double *ext_x,
                      const double *open_y, const double *ext_y, double tf,
                      double *H, double *E, double *F,
                      double *cum_x, double *cum_y,
                      int64_t *xs, int64_t *ys, double *score)
{
    return align(0, m, n, S, 0, NULL, NULL, open_x, ext_x, open_y, ext_y, tf,
                 H, E, F, cum_x, cum_y, xs, ys, score);
}

ptrdiff_t gotoh_align_codes(ptrdiff_t m, ptrdiff_t n, const double *table,
                            ptrdiff_t width, const uint8_t *xc,
                            const uint8_t *yc,
                            const double *open_x, const double *ext_x,
                            const double *open_y, const double *ext_y,
                            double tf, double *H, double *E, double *F,
                            double *cum_x, double *cum_y,
                            int64_t *xs, int64_t *ys, double *score)
{
    return align(1, m, n, table, width, xc, yc, open_x, ext_x, open_y, ext_y,
                 tf, H, E, F, cum_x, cum_y, xs, ys, score);
}

/* Pair p aligns sequence ii[p] (rows of the table) with sequence jj[p]
 * (columns); sequence s is codes[offsets[s] .. offsets[s + 1]).  Writes
 * counts[2p] = matched (columns with a residue on both sides) and
 * counts[2p + 1] = identical (those whose two codes are equal); a pair
 * with an empty side has neither.  Every pair uses the leading m / n
 * entries of the same opens / exts, and the buffers are sized for the
 * largest pair of the tile. */
void gotoh_identity_codes(ptrdiff_t n_pairs, const int64_t *ii,
                          const int64_t *jj, const uint8_t *codes,
                          const int64_t *offsets, const double *table,
                          ptrdiff_t width, const double *opens,
                          const double *exts, double tf,
                          double *H, double *E, double *F,
                          double *cum_x, double *cum_y,
                          int64_t *xs, int64_t *ys, int64_t *counts)
{
    for (ptrdiff_t p = 0; p < n_pairs; p++) {
        const uint8_t *xc = codes + offsets[ii[p]];
        const uint8_t *yc = codes + offsets[jj[p]];
        const ptrdiff_t m = offsets[ii[p] + 1] - offsets[ii[p]];
        const ptrdiff_t n = offsets[jj[p] + 1] - offsets[jj[p]];
        int64_t matched = 0, identical = 0;
        if (m > 0 && n > 0) {
            double score;
            ptrdiff_t len = align(1, m, n, table, width, xc, yc, opens, exts,
                                  opens, exts, tf, H, E, F, cum_x, cum_y,
                                  xs, ys, &score);
            for (ptrdiff_t k = 0; k < len; k++) {
                if (xs[k] >= 0 && ys[k] >= 0) {
                    matched++;
                    identical += xc[xs[k]] == yc[ys[k]];
                }
            }
        }
        counts[2 * p] = matched;
        counts[2 * p + 1] = identical;
    }
}

/* One progressive merge along a path of len columns, in path order:
 * column c takes x column xmap[c] (a gap when negative) and y column
 * ymap[c].  x is nx rows of mx codes with (mx, width) column counts, y
 * likewise; the last count column counts gaps and width - 1 is the gap
 * code.  Writes the (nx + ny, len) code matrix, x's rows first, and the
 * (len, width) counts: per column the two sides' counts summed, a gap
 * side adding its whole row count to the gap column.  Returns 0, or -1
 * with nothing written when the path is not a merge: each side's
 * non-gap entries must be 0, 1, ... in order and use up its columns,
 * and no column may be a gap on both sides. */
ptrdiff_t apply_path(ptrdiff_t len, const int64_t *xmap, const int64_t *ymap,
                     ptrdiff_t nx, ptrdiff_t mx, const uint8_t *xcodes,
                     const int64_t *xcounts, ptrdiff_t ny, ptrdiff_t my,
                     const uint8_t *ycodes, const int64_t *ycounts,
                     ptrdiff_t width, uint8_t *codes, int64_t *counts)
{
    const uint8_t gap = (uint8_t)(width - 1);
    ptrdiff_t c, k, r, ix = 0, iy = 0;

    for (c = 0; c < len; c++) {
        const int64_t x = xmap[c], y = ymap[c];
        if (x < 0 && y < 0)
            return -1;
        if (x >= 0 && x != ix++)
            return -1;
        if (y >= 0 && y != iy++)
            return -1;
    }
    if (ix != mx || iy != my)
        return -1;

    for (c = 0; c < len; c++) {
        int64_t *out = counts + c * width;
        const int64_t x = xmap[c], y = ymap[c];
        if (x >= 0) {
            const int64_t *in = xcounts + x * width;
            for (k = 0; k < width; k++)
                out[k] = in[k];
        } else {
            for (k = 0; k < width - 1; k++)
                out[k] = 0;
            out[width - 1] = nx;
        }
        if (y >= 0) {
            const int64_t *in = ycounts + y * width;
            for (k = 0; k < width; k++)
                out[k] += in[k];
        } else {
            out[width - 1] += ny;
        }
    }
    for (r = 0; r < nx; r++) {
        const uint8_t *in = xcodes + r * mx;
        uint8_t *out = codes + r * len;
        for (c = 0; c < len; c++)
            out[c] = xmap[c] >= 0 ? in[xmap[c]] : gap;
    }
    for (r = 0; r < ny; r++) {
        const uint8_t *in = ycodes + r * my;
        uint8_t *out = codes + (nx + r) * len;
        for (c = 0; c < len; c++)
            out[c] = ymap[c] >= 0 ? in[ymap[c]] : gap;
    }
    return 0;
}

/* np.minimum on x86, as MAX is np.maximum: NaN in either operand
 * propagates, and on a +0.0 / -0.0 tie the second operand wins. */
static inline double MIN(double a, double b)
{
    double m = a < b ? a : b;
    return a != a ? a : m;
}

/* np.argmin: the first of the minima, or the first NaN. */
static inline ptrdiff_t first_min(const double *v, ptrdiff_t len)
{
    ptrdiff_t arg = 0;
    double best = v[0];
    for (ptrdiff_t k = 1; k < len && best == best; k++) {
        if (!(v[k] >= best)) {
            best = v[k];
            arg = k;
        }
    }
    return arg;
}

/* Offset of pair (a, b) in the condensed vector (np.triu_indices(n, 1)
 * order), as tilestore.condensed_index computes it -- a == b included. */
static inline ptrdiff_t pair_pos(ptrdiff_t n, ptrdiff_t a, ptrdiff_t b)
{
    ptrdiff_t lo = a < b ? a : b, hi = a < b ? b : a;
    return lo * (2 * n - lo - 1) / 2 + (hi - lo - 1);
}

/* builders' gather(r): row[c] = the entry of pair (r, c), row[r] = inf. */
static void gather(ptrdiff_t n, const double *w, ptrdiff_t r, double *row)
{
    ptrdiff_t c, k = r - 1; /* pair (0, r) */
    for (c = 0; c < r; k += n - c - 2, c++)
        row[c] = w[k];
    row[r] = INFINITY;
    for (c = r + 1, k = pair_pos(n, r, c); c < n; c++, k++)
        row[c] = w[k];
}

/* The inverse: the entry of pair (r, c) = row[c] for every c != r. */
static void scatter(ptrdiff_t n, double *w, ptrdiff_t r, const double *row)
{
    ptrdiff_t c, k = r - 1;
    for (c = 0; c < r; k += n - c - 2, c++)
        w[k] = row[c];
    for (c = r + 1, k = pair_pos(n, r, c); c < n; c++, k++)
        w[k] = row[c];
}

static void nearest(ptrdiff_t n, const double *w, ptrdiff_t r, double *row,
                    int64_t *nn, double *nn_dist)
{
    gather(n, w, r, row);
    nn[r] = first_min(row, n);
    nn_dist[r] = row[nn[r]];
}

/* The nearest-neighbour-cached loop of builders._agglomerate_numpy, step
 * for step, in place on its condensed working vector w (n >= 2).
 * linkage 0 is average, (s_i*a + s_j*b) / (s_i + s_j); 1 is weighted,
 * 0.5*(a + b); 2 is single, np.minimum(a, b).  Writes the n - 1 merges
 * (node-id pairs) and heights; work holds 4n doubles, iwork 3n int64s.
 * Same steps as the numpy loop, whatever the values: the pair at the
 * first minimum of the active rows' cached distances merges at half its
 * distance, the merged row is written back and the other row set to inf,
 * and the cache is refreshed for the merged row and every active row
 * whose partner was one of the two. */
void agglomerate(ptrdiff_t n, double *w, int linkage, int64_t *merges,
                 double *heights, double *work, int64_t *iwork)
{
    double *nn_dist = work, *sizes = work + n;
    double *row_i = work + 2 * n, *row_j = work + 3 * n;
    int64_t *nn = iwork, *node_id = iwork + n, *active = iwork + 2 * n;
    const ptrdiff_t pairs = n * (n - 1) / 2;
    ptrdiff_t r, c;

    for (r = 0; r < n; r++) {
        active[r] = 1;
        node_id[r] = r;
        sizes[r] = 1.0;
        nearest(n, w, r, row_i, nn, nn_dist);
    }
    for (ptrdiff_t step = 0; step < n - 1; step++) {
        for (r = 0; r < n; r++)
            row_i[r] = active[r] ? nn_dist[r] : INFINITY;
        const ptrdiff_t i = first_min(row_i, n), j = nn[i];
        /* k < 0 only for i == j == 0 (rows overflowed to inf), where
         * numpy's w[-1] reads the last entry. */
        ptrdiff_t k = pair_pos(n, i, j);
        merges[2 * step] = node_id[i];
        merges[2 * step + 1] = node_id[j];
        heights[step] = w[k < 0 ? k + pairs : k] / 2.0;

        gather(n, w, i, row_i);
        gather(n, w, j, row_j);
        const double si = sizes[i], sj = sizes[j], s = si + sj;
        for (c = 0; c < n; c++) {
            const double a = row_i[c], b = row_j[c];
            if (linkage == 1)
                row_i[c] = 0.5 * (a + b);
            else if (linkage == 2)
                row_i[c] = MIN(a, b);
            else
                row_i[c] = (si * a + sj * b) / s;
        }
        row_i[i] = INFINITY;
        scatter(n, w, i, row_i);
        for (c = 0; c < n; c++)
            row_j[c] = INFINITY;
        scatter(n, w, j, row_j);
        active[j] = 0;
        sizes[i] += sizes[j];
        node_id[i] = n + step;

        if (step == n - 2)
            break;
        for (r = 0; r < n; r++)
            if (active[r] && (r == i || nn[r] == i || nn[r] == j))
                nearest(n, w, r, row_j, nn, nn_dist);
    }
}
