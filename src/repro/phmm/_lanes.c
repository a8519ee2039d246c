/*
 * Lane-major Pair-HMM kernels: the forward pass, and the backward pass with
 * the posterior deposit fused into it (DESIGN §5, §12).  Loaded by
 * repro/phmm/lanes.py through ctypes.
 *
 * Layouts, all C-contiguous with the pair (the lane) innermost:
 *   pl     (N, M, B)          match emissions, pl[i][j] = p*(i+1, j+1)
 *   pw     (N, 4, B)          read PWM rows
 *   bounds (N+1, 2)           in-band columns lo..hi of DP row i (lo > hi:
 *                             the band is off the matrix on that row)
 *   state  (N+1, 3, M+1, B)   forward rows, states M, GX, GY
 *   store  (d, 3, M+1, B)     backward rows, row i in slot i % d
 *   fexp, bexp (N+1, B)       row exponents: true value = stored * 2^exp
 *   z      (5, M, B)          deposit, channels A, C, G, T, gap
 *
 * Every operation rounds as the NumPy expression it replaced did, in the
 * same order: the library is built with -ffp-contract=off (no fused
 * multiply-add) and without -ffast-math.  Every step is elementwise per
 * lane, so a pair's bits never depend on which pairs share its tile.
 */
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

/* Start of state s, column j of a row of 3 * (M+1) * B doubles. */
#define AT(row, s, j) ((row) + ((long)(s) * (M + 1) + (j)) * B)

/* A row whose every lane is at most this (or zero) keeps this as its max. */
static const double TINY = 1e-300;
/* Largest power of two the deposit factor may reach (cf. exp(700)). */
static const int G_EXP_MAX = 1000;

/* Scale the row's in-band block by 2^-e, 2^e the power of two at each lane's
 * maximum over the three states, and add e to the row's exponents.  Exact:
 * only exponents change. */
static void rescale(double *row, int M, int B, int lo, int hi,
                    const int *e_from, int *e_to, double *mx)
{
    for (int b = 0; b < B; b++)
        mx[b] = TINY;
    for (int s = 0; s < 3; s++)
        for (int j = lo; j <= hi; j++) {
            const double *v = AT(row, s, j);
            for (int b = 0; b < B; b++)
                mx[b] = v[b] > mx[b] ? v[b] : mx[b];
        }
    for (int b = 0; b < B; b++) {
        int e;
        frexp(mx[b], &e);
        mx[b] = ldexp(1.0, -e);
        e_to[b] = e_from[b] + e;
    }
    for (int s = 0; s < 3; s++)
        for (int j = lo; j <= hi; j++) {
            double *v = AT(row, s, j);
            for (int b = 0; b < B; b++)
                v[b] *= mx[b];
        }
}

/* f_M(0, j) = 1 on row 0's band (free genome prefix); rows 1..N by
 *   f_M(i,j)  = p*(i,j) [T_MM f_M(i-1,j-1) + T_GM (f_GX + f_GY)(i-1,j-1)]
 *   f_GX(i,j) = q [T_MG f_M(i-1,j) + T_GG f_GX(i-1,j)]
 *   f_GY(i,j) = q T_MG f_M(i,j-1) + q T_GG f_GY(i,j-1)   (in-row, in order)
 * ``state`` must be zero outside the band: cells there are never written. */
void forward(int N, int M, int B, const double *pl, const int *bounds,
             double q, double mm, double gm, double mg, double gg,
             double *state, int *fexp)
{
    const long row_len = 3L * (M + 1) * B;
    const double qmg = q * mg, qgg = q * gg;
    double *mx = malloc(sizeof(double) * (B ? B : 1));
    for (int j = bounds[0]; j <= bounds[1]; j++) {
        double *m = AT(state, 0, j);
        for (int b = 0; b < B; b++)
            m[b] = 1.0;
    }
    memset(fexp, 0, sizeof(int) * B);
    for (int i = 1; i <= N; i++) {
        const double *prev = state + (i - 1) * row_len;
        double *row = state + i * row_len;
        const int lo = bounds[2 * i], hi = bounds[2 * i + 1], jlo = lo > 1 ? lo : 1;
        if (lo > hi) {
            memcpy(fexp + i * B, fexp + (i - 1) * B, sizeof(int) * B);
            continue;
        }
        for (int j = jlo; j <= hi; j++) {
            const double *pm = AT(prev, 0, j - 1), *px = AT(prev, 1, j - 1);
            const double *py = AT(prev, 2, j - 1);
            const double *p = pl + ((long)(i - 1) * M + j - 1) * B;
            double *m = AT(row, 0, j);
            for (int b = 0; b < B; b++) {
                double t = px[b] + py[b];
                m[b] = p[b] * (pm[b] * mm + t * gm);
            }
        }
        for (int j = lo; j <= hi; j++) {
            const double *pm = AT(prev, 0, j), *px = AT(prev, 1, j);
            double *x = AT(row, 1, j);
            for (int b = 0; b < B; b++)
                x[b] = (pm[b] * mg + px[b] * gg) * q;
        }
        /* f_GY(i, jlo-1) is out of band or column 0, hence 0. */
        for (int j = jlo; j <= hi; j++) {
            const double *m = AT(row, 0, j - 1), *yp = AT(row, 2, j - 1);
            double *y = AT(row, 2, j);
            if (j == jlo)
                for (int b = 0; b < B; b++)
                    y[b] = m[b] * qmg;
            else
                for (int b = 0; b < B; b++)
                    y[b] = m[b] * qmg + qgg * yp[b];
        }
        rescale(row, M, B, lo, hi, fexp + (i - 1) * B, fexp + i * B, mx);
    }
    free(mx);
}

/* Backward row i < N from row i+1 (``nxt``), right to left:
 *   d(j)      = p*(i+1,j+1) b_M(i+1,j+1)            (0 at j = M)
 *   b_GY(i,j) = T_GM d(j) + q T_GG b_GY(i,j+1)     (row 0: 0)
 *   b_M(i,j)  = T_MM d(j) + q T_MG [b_GX(i+1,j) + b_GY(i,j+1)]
 *   b_GX(i,j) = T_GM d(j) + q T_GG b_GX(i+1,j)
 * b_GY(i, hi+1) is out of band or past column M, hence 0.  Row 0 drops the
 * M -> G_Y term: genome bases before the first read base belong to the
 * start distribution, not to gap states. */
static void backward_row(int i, int M, int B, int lo, int hi, const double *pl,
                         double mm, double gm, double qmg, double qgg,
                         const double *nxt, double *row)
{
    for (int j = hi; j >= lo; j--) {
        const int has_d = j < M, has_r = j < hi;
        double *bm = AT(row, 0, j), *bx = AT(row, 1, j), *by = AT(row, 2, j);
        const double *nx = AT(nxt, 1, j);
        /* Operands past the edge point at a valid row, never to be read. */
        const double *p = has_d ? pl + ((long)i * M + j) * B : nx;
        const double *nm = has_d ? AT(nxt, 0, j + 1) : nx;
        const double *yr = has_r ? AT(row, 2, j + 1) : nx;
        for (int b = 0; b < B; b++) {
            double d = has_d ? p[b] * nm[b] : 0.0;
            double gd = d * gm;
            double y = i == 0 ? 0.0 : has_r ? gd + qgg * yr[b] : gd;
            double t = has_r ? nx[b] + yr[b] : nx[b];
            by[b] = y;
            bm[b] = d * mm + t * qmg;
            bx[b] = gd + nx[b] * qgg;
        }
    }
}

/* Backward rows N..0 on a store of depth d >= 2, each deposited as soon as
 * it exists: with g = 2^(fexp_i + bexp_i - fexp_N) / total the posterior
 * factor of row i (0 for a pair whose total is not positive and finite),
 *   z[4][j-1] += f_GY b_GY g                      (rows 0..N)
 *   z[k][j-1] += (f_M b_M g) pw[i-1][k]           (rows 1..N)
 * plus, when given, occ[j-1] += f_M b_M g and the match posterior on the
 * band's interior edge columns ``edges`` (N+1, 2; -1: none), summed over
 * rows in ascending order into edge (B), over N.  ``cells`` (N+1, 2, B)
 * holds the edge cells until then. */
void backward_deposit(int N, int M, int B, const double *pl, const double *pw,
                      const int *bounds, double q, double mm, double gm,
                      double mg, double gg, int depth, double *store, int *bexp,
                      const double *state, const int *fexp, const double *total,
                      double *z, double *occ, const int *edges, double *cells,
                      double *edge)
{
    const long row_len = 3L * (M + 1) * B, plane = (long)M * B;
    const double qmg = q * mg, qgg = q * gg;
    const int n = B ? B : 1;
    double *mx = malloc(sizeof(double) * n), *g = malloc(sizeof(double) * n);
    double *inv = malloc(sizeof(double) * n);
    int *ie = malloc(sizeof(int) * n);
    memset(z, 0, sizeof(double) * 5 * plane);
    if (occ)
        memset(occ, 0, sizeof(double) * plane);
    if (edges)
        memset(cells, 0, sizeof(double) * 2 * (N + 1) * B);
    for (int b = 0; b < B; b++) {
        const int alive = total[b] > 0.0 && total[b] <= DBL_MAX;
        ie[b] = 0;
        inv[b] = alive ? frexp(1.0 / total[b], &ie[b]) : 0.0;
    }
    for (int i = N; i >= 0; i--) {
        double *row = store + (i % depth) * row_len;
        const int lo = bounds[2 * i], hi = bounds[2 * i + 1];
        int *e_row = bexp + i * B;
        if (i + depth > N) {
            memset(row, 0, sizeof(double) * row_len);
        } else {
            /* The slot holds row i+depth; bands only move left as i falls,
             * so what this row will not overwrite lies right of hi. */
            const int plo = bounds[2 * (i + depth)], phi = bounds[2 * (i + depth) + 1];
            const int from = plo > hi + 1 ? plo : hi + 1;
            if (plo <= phi && from <= phi)
                for (int s = 0; s < 3; s++)
                    memset(AT(row, s, from), 0, sizeof(double) * (phi - from + 1) * B);
        }
        if (i == N) {
            /* b_GY stays 0 at i = N: once the read is consumed, paths that
             * keep eating genome through G_Y duplicate ending earlier. */
            memset(e_row, 0, sizeof(int) * B);
            for (int j = lo; j <= hi; j++)
                for (int b = 0; b < B; b++)
                    AT(row, 0, j)[b] = AT(row, 1, j)[b] = 1.0;
        } else if (lo > hi) {
            memcpy(e_row, e_row + B, sizeof(int) * B);
        } else {
            backward_row(i, M, B, lo, hi, pl, mm, gm, qmg, qgg,
                         store + ((i + 1) % depth) * row_len, row);
            rescale(row, M, B, lo, hi, e_row + B, e_row, mx);
        }

        const int jlo = lo > 1 ? lo : 1;
        if (jlo > hi)
            continue;
        const double *f = state + i * row_len;
        for (int b = 0; b < B; b++) {
            int k = fexp[i * B + b] + e_row[b] - fexp[N * B + b] + ie[b];
            g[b] = ldexp(inv[b], k < G_EXP_MAX ? k : G_EXP_MAX);
        }
        const int elo = edges ? edges[2 * i] : -1, ehi = edges ? edges[2 * i + 1] : -1;
        for (int j = jlo; j <= hi; j++) {
            const double *fy = AT(f, 2, j), *by = AT(row, 2, j);
            double *zg = z + 4 * plane + (long)(j - 1) * B;
            for (int b = 0; b < B; b++)
                zg[b] += fy[b] * by[b] * g[b];
            if (i == 0)
                continue;
            const double *fm = AT(f, 0, j), *bm = AT(row, 0, j);
            const double *w = pw + (long)(i - 1) * 4 * B;
            double *zc = z + (long)(j - 1) * B, *oc = occ ? occ + (long)(j - 1) * B : NULL;
            double *ce = j == elo ? cells + 2L * i * B : j == ehi ? cells + (2L * i + 1) * B : NULL;
            double *pm = mx; /* free until the next row's rescale */
            for (int b = 0; b < B; b++)
                pm[b] = fm[b] * bm[b] * g[b];
            for (int c = 0; c < 4; c++)
                for (int b = 0; b < B; b++)
                    zc[c * plane + b] += pm[b] * w[c * B + b];
            if (oc)
                for (int b = 0; b < B; b++)
                    oc[b] += pm[b];
            if (ce)
                memcpy(ce, pm, sizeof(double) * B);
        }
    }
    if (edges)
        for (int b = 0; b < B; b++) {
            double s = 0.0;
            for (long c = 0; c < 2L * (N + 1); c++)
                s += cells[c * B + b];
            edge[b] = s / (double)N;
        }
    free(mx);
    free(g);
    free(inv);
    free(ie);
}
