/*
 * Lane-major Pair-HMM kernels: the forward pass, and the backward pass with
 * the posterior deposit fused into it (DESIGN §5, §12); the three
 * accumulators' update loops, one cycle per row in row order (NORM's
 * scatter-add, CHARDISC's and CENTDISC's de-quantise / add / re-quantise);
 * and two seeding loops (DESIGN §15): the q-gram filter's counting and the
 * wide seed table's key search.  Loaded by repro/phmm/lanes.py through
 * ctypes.
 *
 * The Pair-HMM kernels' layouts, all C-contiguous with the pair (the lane)
 * innermost (the other loops state theirs):
 *   tab    (N, K, B)          emission table, per read row
 *   code   (M, B)             window codes: p*(i, j) = tab[i-1][code[j-1]]
 *   pw     (N, 4, B)          read PWM rows
 *   bounds (N+1, 2)           in-band columns lo..hi of DP row i (lo > hi:
 *                             the band is off the matrix on that row)
 *   base   (N+1)              first column a row of state or store holds
 *   state  (N+1, 3, W, B)     forward rows, states M, GX, GY; row i holds
 *                             columns base[i] .. base[i]+W-1 (W = M+1 and
 *                             base 0 unbanded, the band and its halo when
 *                             banded)
 *   store  (d, 3, W, B)       backward rows, row i in slot i % d
 *   fexp, bexp (N+1, B)       row exponents: true value = stored * 2^exp
 *   z      (5, M, B)          deposit, channels A, C, G, T, gap
 *
 * Every operation rounds as the NumPy expression it replaced did, in the
 * same order: the library is built with -ffp-contract=off (no fused
 * multiply-add) and without -ffast-math.  Every step is elementwise per
 * lane, so a pair's bits never depend on which pairs share its tile.
 *
 * A row's columns hold the band and its one-column halo, all that the
 * recurrences read of it.  Every row writes all of its columns, zeros outside
 * the band, so state and store may hold anything on entry: one workspace
 * serves every call.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Start of state s, column j of a row of 3 * W * B doubles from column c. */
#define AT(row, c, s, j) ((row) + ((long)(s) * W + (j) - (c)) * B)

/* p*(i+1, j+1) of lane b, from table row t = tab + i * K * B and window
 * column j+1's codes cj = code + j * B. */
#define PSTAR(t, cj, b) ((t)[(long)(cj)[b] * B + (b)])

/* The two Pair-HMM passes start on a 32-byte boundary, so where their loops
 * fall against the front end's 32-byte windows does not depend on what the
 * library holds before them.  Moved 16 bytes by two more exported symbols,
 * forward read ~10% slower per cell on a 256-lane tile (an AVX-512 Xeon). */
#define KERNEL __attribute__((aligned(32)))

/* A row whose every lane is at most this (or zero) keeps this as its max. */
static const double TINY = 1e-300;
/* Largest power of two the deposit factor may reach (cf. exp(700)). */
static const int G_EXP_MAX = 1000;

/* Zero columns from..to of a row's three states, clipped to the columns
 * c..c+W-1 it holds. */
static void clear(double *row, int c, int W, int B, int from, int to)
{
    from = from > c ? from : c;
    to = to < c + W - 1 ? to : c + W - 1;
    for (int s = 0; s < 3 && from <= to; s++)
        memset(AT(row, c, s, from), 0, sizeof(double) * (to - from + 1) * B);
}

/* Zero the columns a row holds outside its band lo..hi (all when lo > hi). */
static void clear_outside(double *row, int c, int W, int B, int lo, int hi)
{
    clear(row, c, W, B, c, lo <= hi ? lo - 1 : c + W - 1);
    clear(row, c, W, B, lo <= hi ? hi + 1 : c + W, c + W - 1);
}

/* Fold v into a lane's running maximum.  Order-free: a NaN never wins. */
#define FOLD(m, v) ((v) > (m) ? (v) : (m))

/* Turn each lane's maximum mx (at least TINY) into the row's scale 2^-e,
 * 2^e the power of two at it, and add e to the row's exponents. */
static void exponents(int B, double *mx, const int *e_from, int *e_to)
{
    for (int b = 0; b < B; b++) {
        int e;
        frexp(mx[b], &e);
        mx[b] = ldexp(1.0, -e);
        e_to[b] = e_from[b] + e;
    }
}

/* Multiply the row's in-band block by each lane's scale.  Exact: only
 * exponents change. */
static void scale(double *row, int c, int W, int B, int lo, int hi, const double *sc)
{
    for (int s = 0; s < 3; s++)
        for (int j = lo; j <= hi; j++) {
            double *restrict v = AT(row, c, s, j);
            for (int b = 0; b < B; b++)
                v[b] *= sc[b];
        }
}

/* Coefficients of the recurrences: the transitions and q times them. */
typedef struct {
    double q, mm, gm, mg, gg, qmg, qgg;
} coef;

/* Forward column j of row i, every lane, each folded into its maximum mx:
 * f_GX from column j of the row above (pm, px), f_M from its column j-1
 * (pm0, px0, py0; 0 at column 0, where ``match`` is 0), f_GY from this
 * row's column j-1 (ml, yl; 0 where ``gy`` is 0: column 0 and the first
 * in-band column past it). */
static inline void forward_column(int B, int match, int gy, const coef *k,
                                  const double *restrict t, const int *restrict cj,
                                  const double *restrict pm0, const double *restrict px0,
                                  const double *restrict py0, const double *restrict pm,
                                  const double *restrict px, const double *restrict ml,
                                  const double *restrict yl, double *restrict m,
                                  double *restrict x, double *restrict y, double *restrict mx)
{
    const double q = k->q, mm = k->mm, gm = k->gm, mg = k->mg, gg = k->gg;
    const double qmg = k->qmg, qgg = k->qgg;
    for (int b = 0; b < B; b++) {
        double xv = (pm[b] * mg + px[b] * gg) * q;
        double mv = match ? PSTAR(t, cj, b) * (pm0[b] * mm + (px0[b] + py0[b]) * gm) : 0.0;
        double yv = gy ? ml[b] * qmg + qgg * yl[b] : 0.0;
        double a = mx[b];
        m[b] = mv;
        x[b] = xv;
        y[b] = yv;
        a = FOLD(a, mv);
        a = FOLD(a, xv);
        mx[b] = FOLD(a, yv);
    }
}

/* f_M(0, j) = 1 on row 0's band (free genome prefix); rows 1..N by
 *   f_M(i,j)  = p*(i,j) [T_MM f_M(i-1,j-1) + T_GM (f_GX + f_GY)(i-1,j-1)]
 *   f_GX(i,j) = q [T_MG f_M(i-1,j) + T_GG f_GX(i-1,j)]
 *   f_GY(i,j) = q T_MG f_M(i,j-1) + q T_GG f_GY(i,j-1)   (in-row, in order)
 * Row 0's gap states and column 0's f_M, f_GY are 0.  One sweep left to
 * right computes a row and its lanes' maxima, a second scales it. */
KERNEL void forward(int N, int B, int K, int W, const double *tab, const int *code,
             const int *bounds, const int *base, double q, double mm,
             double gm, double mg, double gg, double *state, int *fexp)
{
    const long row_len = 3L * W * B;
    const coef k = {q, mm, gm, mg, gg, q * mg, q * gg};
    double *mx = malloc(sizeof(double) * (B ? B : 1));
    clear(state, base[0], W, B, base[0], base[0] + W - 1);
    for (int j = bounds[0]; j <= bounds[1]; j++) {
        double *m = AT(state, base[0], 0, j);
        for (int b = 0; b < B; b++)
            m[b] = 1.0;
    }
    memset(fexp, 0, sizeof(int) * B);
    for (int i = 1; i <= N; i++) {
        const double *prev = state + (i - 1) * row_len;
        double *row = state + i * row_len;
        const double *t = tab + (long)(i - 1) * K * B;
        const int lo = bounds[2 * i], hi = bounds[2 * i + 1], jlo = lo > 1 ? lo : 1;
        const int cp = base[i - 1], c = base[i];
        clear_outside(row, c, W, B, lo, hi);
        if (lo > hi) {
            memcpy(fexp + i * B, fexp + (i - 1) * B, sizeof(int) * B);
            continue;
        }
        for (int b = 0; b < B; b++)
            mx[b] = TINY;
        if (lo == 0) {
            const double *pm = AT(prev, cp, 0, 0), *px = AT(prev, cp, 1, 0);
            forward_column(B, 0, 0, &k, t, code, pm, px, pm, pm, px, pm, pm,
                           AT(row, c, 0, 0), AT(row, c, 1, 0), AT(row, c, 2, 0), mx);
        }
        /* Column jlo-1 is out of band or column 0, so f_GY(i, jlo) = 0. */
        for (int j = jlo; j <= hi; j++) {
            const double *pm0 = AT(prev, cp, 0, j - 1), *px0 = AT(prev, cp, 1, j - 1);
            const double *py0 = AT(prev, cp, 2, j - 1);
            const double *pm = AT(prev, cp, 0, j), *px = AT(prev, cp, 1, j);
            const double *ml = AT(row, c, 0, j - 1), *yl = AT(row, c, 2, j - 1);
            const int *cj = code + (long)(j - 1) * B;
            double *m = AT(row, c, 0, j), *x = AT(row, c, 1, j), *y = AT(row, c, 2, j);
            forward_column(B, 1, j > jlo, &k, t, cj, pm0, px0, py0, pm, px, ml, yl, m, x, y, mx);
        }
        exponents(B, mx, fexp + (i - 1) * B, fexp + i * B);
        scale(row, c, W, B, lo, hi, mx);
    }
    free(mx);
}

/* Backward column j of row i < N, every lane, each folded into its
 * maximum mx, from row i+1's b_M at column j+1 (nm) and b_GX at column j
 * (nx), and this row's b_GY at column j+1 (yr):
 *   d(j)      = p*(i+1,j+1) b_M(i+1,j+1)            (0 where ``has_d`` is 0)
 *   b_GY(i,j) = T_GM d(j) + q T_GG b_GY(i,j+1)     (0 where ``gy`` is 0)
 *   b_M(i,j)  = T_MM d(j) + q T_MG [b_GX(i+1,j) + b_GY(i,j+1)]
 *   b_GX(i,j) = T_GM d(j) + q T_GG b_GX(i+1,j)
 * b_GY(i,j+1) is taken as 0 where ``has_r`` is 0. */
static inline void backward_column(int B, int has_d, int has_r, int gy, const coef *k,
                                   const double *restrict t, const int *restrict cj,
                                   const double *restrict nm, const double *restrict nx,
                                   const double *restrict yr, double *restrict bm,
                                   double *restrict bx, double *restrict by,
                                   double *restrict mx)
{
    const double mm = k->mm, gm = k->gm, qmg = k->qmg, qgg = k->qgg;
    for (int b = 0; b < B; b++) {
        double d = has_d ? PSTAR(t, cj, b) * nm[b] : 0.0;
        double gd = d * gm;
        double y = !gy ? 0.0 : has_r ? gd + qgg * yr[b] : gd;
        double u = has_r ? nx[b] + yr[b] : nx[b];
        double mv = d * mm + u * qmg, xv = gd + nx[b] * qgg;
        double a = mx[b];
        by[b] = y;
        bm[b] = mv;
        bx[b] = xv;
        a = FOLD(a, y);
        a = FOLD(a, mv);
        mx[b] = FOLD(a, xv);
    }
}

/* Backward row i < N from row i+1 (``nxt``), right to left, with ``gy``
 * 0 on row 0, which drops the M -> G_Y term: genome bases before the first
 * read base belong to the start distribution, not to gap states.  Column hi
 * is the one whose b_GY(i, hi+1) is out of band or past column M, hence 0,
 * and the only one that can be column M, where d = 0. */
static inline void backward_sweep(int gy, int M, int B, int W, int lo, int hi, const coef *k,
                                  const double *t, const int *code, const double *nxt,
                                  int cn, double *row, int c, double *mx)
{
    const double *nx = AT(nxt, cn, 1, hi);
    double *bm = AT(row, c, 0, hi), *bx = AT(row, c, 1, hi), *by = AT(row, c, 2, hi);
    if (hi < M)
        backward_column(B, 1, 0, gy, k, t, code + (long)hi * B, AT(nxt, cn, 0, hi + 1),
                        nx, nx, bm, bx, by, mx);
    else /* Operands past the edge point at a valid row, never to be read. */
        backward_column(B, 0, 0, gy, k, t, code, nx, nx, nx, bm, bx, by, mx);
    for (int j = hi - 1; j >= lo; j--)
        backward_column(B, 1, 1, gy, k, t, code + (long)j * B, AT(nxt, cn, 0, j + 1),
                        AT(nxt, cn, 1, j), AT(row, c, 2, j + 1), AT(row, c, 0, j),
                        AT(row, c, 1, j), AT(row, c, 2, j), mx);
}

/* Column j >= 1 of backward row i: scale its three states by sc, then
 * deposit with the row's posterior factor g
 *   z[4][j-1] += f_GY b_GY g
 *   z[k][j-1] += (f_M b_M g) w[k]          (where ``match`` is 1: i >= 1) */
static inline void deposit_column(int B, int match, const double *restrict sc,
                                  const double *restrict g, const double *restrict fm,
                                  const double *restrict fy, double *restrict bm,
                                  double *restrict bx, double *restrict by,
                                  const double *restrict w, double *restrict zg,
                                  double *restrict z0, double *restrict z1,
                                  double *restrict z2, double *restrict z3)
{
    const double *restrict w0 = w, *restrict w1 = w + B, *restrict w2 = w + 2L * B;
    const double *restrict w3 = w + 3L * B;
    for (int b = 0; b < B; b++) {
        double m = bm[b] * sc[b], y = by[b] * sc[b];
        bm[b] = m;
        bx[b] = bx[b] * sc[b];
        by[b] = y;
        zg[b] += fy[b] * y * g[b];
        if (match) {
            double p = fm[b] * m * g[b];
            z0[b] += p * w0[b];
            z1[b] += p * w1[b];
            z2[b] += p * w2[b];
            z3[b] += p * w3[b];
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
 * holds the edge cells until then.  One sweep right to left computes a row
 * and its lanes' maxima, a second scales and deposits it. */
KERNEL void backward_deposit(int N, int M, int B, int K, int W, const double *tab,
                      const int *code, const double *pw, const int *bounds,
                      const int *base, double q, double mm, double gm,
                      double mg, double gg, int depth, double *store, int *bexp,
                      const double *state, const int *fexp, const double *total,
                      double *z, double *occ, const int *edges, double *cells,
                      double *edge)
{
    const long row_len = 3L * W * B, plane = (long)M * B;
    const coef k = {q, mm, gm, mg, gg, q * mg, q * gg};
    const int n = B ? B : 1;
    double *sc = malloc(sizeof(double) * n), *g = malloc(sizeof(double) * n);
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
        const int lo = bounds[2 * i], hi = bounds[2 * i + 1], c = base[i];
        int *e_row = bexp + i * B;
        clear_outside(row, c, W, B, lo, hi);
        if (i == N) {
            /* b_GY stays 0 at i = N: once the read is consumed, paths that
             * keep eating genome through G_Y duplicate ending earlier. */
            memset(e_row, 0, sizeof(int) * B);
            clear(row, c, W, B, lo, hi);
            for (int j = lo; j <= hi; j++)
                for (int b = 0; b < B; b++)
                    AT(row, c, 0, j)[b] = AT(row, c, 1, j)[b] = 1.0;
            for (int b = 0; b < B; b++)
                sc[b] = 1.0; /* row N is not rescaled: x * 1.0 is x */
        } else if (lo > hi) {
            memcpy(e_row, e_row + B, sizeof(int) * B);
            continue;
        } else {
            const double *t = tab + (long)i * K * B, *nxt = store + ((i + 1) % depth) * row_len;
            for (int b = 0; b < B; b++)
                sc[b] = TINY;
            /* Constant flags, here and for deposit_column: passed as
             * ``i != 0`` they left the backward pass ~10% (the sweep) and
             * ~25% (the deposit) slower per cell, GCC -O3 on x86-64. */
            if (i == 0)
                backward_sweep(0, M, B, W, lo, hi, &k, t, code, nxt, base[i + 1], row, c, sc);
            else
                backward_sweep(1, M, B, W, lo, hi, &k, t, code, nxt, base[i + 1], row, c, sc);
            exponents(B, sc, e_row + B, e_row);
        }
        if (lo == 0)
            scale(row, c, W, B, 0, 0, sc);

        const int jlo = lo > 1 ? lo : 1;
        if (jlo > hi)
            continue;
        const double *f = state + i * row_len;
        for (int b = 0; b < B; b++) {
            int e = fexp[i * B + b] + e_row[b] - fexp[N * B + b] + ie[b];
            g[b] = ldexp(inv[b], e < G_EXP_MAX ? e : G_EXP_MAX);
        }
        const double *w = pw + (long)(i > 0 ? i - 1 : 0) * 4 * B;
        for (int j = jlo; j <= hi; j++) {
            const double *fm = AT(f, c, 0, j), *fy = AT(f, c, 2, j);
            double *bm = AT(row, c, 0, j), *bx = AT(row, c, 1, j), *by = AT(row, c, 2, j);
            double *zc = z + (long)(j - 1) * B;
            if (i > 0)
                deposit_column(B, 1, sc, g, fm, fy, bm, bx, by, w, zc + 4 * plane, zc,
                               zc + plane, zc + 2 * plane, zc + 3 * plane);
            else
                deposit_column(B, 0, sc, g, fm, fy, bm, bx, by, w, zc + 4 * plane, zc,
                               zc + plane, zc + 2 * plane, zc + 3 * plane);
        }
        if (i == 0)
            continue;
        /* The optional outputs recompute f_M b_M g from the scaled row:
         * the same double the deposit added. */
        for (int j = occ ? jlo : hi + 1; j <= hi; j++) {
            const double *fm = AT(f, c, 0, j), *bm = AT(row, c, 0, j);
            double *oc = occ + (long)(j - 1) * B;
            for (int b = 0; b < B; b++)
                oc[b] += fm[b] * bm[b] * g[b];
        }
        for (int side = 0; edges && side < 2; side++) {
            const int j = edges[2 * i + side];
            if (j < jlo || j > hi || (side == 1 && j == edges[2 * i]))
                continue;
            const double *fm = AT(f, c, 0, j), *bm = AT(row, c, 0, j);
            double *ce = cells + (2L * i + side) * B;
            for (int b = 0; b < B; b++)
                ce[b] = fm[b] * bm[b] * g[b];
        }
    }
    if (edges)
        for (int b = 0; b < B; b++) {
            double s = 0.0;
            for (long e = 0; e < 2L * (N + 1); e++)
                s += cells[e * B + b];
            edge[b] = s / (double)N;
        }
    free(sc);
    free(g);
    free(inv);
    free(ie);
}

/* NORM's scatter-add, rows in order: acc[pos[r]][c] += (float) z[r][c]. */
void scatter_add(int64_t n, const int64_t *pos, const double *z, float *acc)
{
    for (int64_t r = 0; r < n; r++)
        for (int c = 0; c < 5; c++)
            acc[pos[r] * 5 + c] += (float)z[r * 5 + c];
}

/* CHARDISC's largest-remainder quantisation of one row to bytes summing to
 * 255 (all zero unless total > 0): floor each channel's real / total * 255,
 * then top up the `deficit` channels of largest remainder, ties to the lower
 * channel.  The key -(raw - floor) - c * 1e-12 and the rank, a stable
 * argsort's count of keys that sort before, are NumPy's. */
static void quantize(const double *real, double total, uint8_t *out)
{
    double key[5];
    int64_t fl[5], deficit = 255;
    if (!(total > 0)) {
        memset(out, 0, 5);
        return;
    }
    for (int c = 0; c < 5; c++) {
        double raw = real[c] / total * 255.0;
        fl[c] = (int64_t)raw; /* floor: raw >= 0 */
        deficit -= fl[c];
        key[c] = -(raw - (double)fl[c]) - c * 1e-12;
    }
    for (int c = 0; c < 5; c++) {
        int rank = 0;
        for (int d = 0; d < 5; d++)
            rank += (key[d] < key[c]) | ((d < c) & (key[d] == key[c]));
        out[c] = (uint8_t)(fl[c] + (rank < deficit));
    }
}

/* quantize() over n rows of real (n, 5) and total (n). */
void chardisc_quantize(int64_t n, const double *real, const double *total, uint8_t *out)
{
    for (int64_t r = 0; r < n; r++)
        quantize(real + r * 5, total[r], out + r * 5);
}

/* A row's contribution as NumPy's delta held it (0.0 + z) and its sum,
 * left to right as NumPy's sum over a row of five. */
static double contribution(const double *zr, double *d)
{
    for (int c = 0; c < 5; c++)
        d[c] = 0.0 + zr[c];
    return (((d[0] + d[1]) + d[2]) + d[3]) + d[4];
}

/* CHARDISC, one cycle per row in row order: de-quantise the position's
 * state (b / 255 * total), add the row, re-quantise at the new total.  The
 * float32 total and the bytes are the cycle's two rounding points. */
void chardisc_add(int64_t n, const int64_t *pos, const double *z, float *total, uint8_t *bytes)
{
    for (int64_t r = 0; r < n; r++) {
        uint8_t *b = bytes + pos[r] * 5;
        double d[5], real[5], t = (double)total[pos[r]];
        double next = t + contribution(z + r * 5, d);
        for (int c = 0; c < 5; c++)
            real[c] = b[c] / 255.0 * t + d[c];
        quantize(real, next, b);
        total[pos[r]] = (float)next;
    }
}

/* CENTDISC's nearest centroid to the row f among slots 1..255 (slot 0 is
 * the empty state): the first minimum of |c|^2 - 2 f.c, the dot product
 * summed in channel order.  cols (5, 256) holds the codebook channel-major,
 * so the distance loop runs across centroids. */
static uint8_t nearest(const double *f, const double *cols, const double *norms)
{
    double dist[256];
    int best = 1;
    for (int k = 1; k < 256; k++) {
        double dot = f[0] * cols[k] + f[1] * cols[256 + k];
        dot = dot + f[2] * cols[512 + k];
        dot = dot + f[3] * cols[768 + k];
        dot = dot + f[4] * cols[1024 + k];
        dist[k] = norms[k] - 2.0 * dot;
    }
    for (int k = 2; k < 256; k++)
        if (dist[k] < dist[best])
            best = k;
    return (uint8_t)best;
}

/* nearest() over n rows of f (n, 5). */
void centroid_nearest(int64_t n, const double *f, const double *cols, const double *norms,
                      uint8_t *out)
{
    for (int64_t r = 0; r < n; r++)
        out[r] = nearest(f + r * 5, cols, norms);
}

/* CENTDISC, one cycle per row in row order.  With a merge table (the
 * paper's update) a row with mass moves the state to table[state][nearest
 * (row / its sum)]; with none (the weighted update) the state is
 * de-quantised at its total, the row added, and the sum re-quantised to its
 * nearest centroid at the new total. */
void centdisc_add(int64_t n, const int64_t *pos, const double *z, float *total, uint8_t *idx,
                  const double *cols, const double *norms, const uint8_t *table)
{
    for (int64_t r = 0; r < n; r++) {
        double d[5], f[5], t = (double)total[pos[r]];
        double mass = contribution(z + r * 5, d), next = t + mass;
        uint8_t *s = idx + pos[r];
        if (table && mass > 0) {
            for (int c = 0; c < 5; c++)
                f[c] = d[c] / mass;
            *s = table[*s * 256 + nearest(f, cols, norms)];
        } else if (!table && next > 0) {
            for (int c = 0; c < 5; c++)
                f[c] = (cols[c * 256 + *s] * t + d[c]) / next;
            *s = nearest(f, cols, norms);
        }
        total[pos[r]] = (float)next;
    }
}

/* Stamp the distinct q-grams of codes[0:len] into mark as gen and return
 * how many were not stamped yet; a q-gram holding an N (code > 3) is
 * skipped.  With keep, only q-grams whose keep entry is keep_gen count. */
static int64_t stamp(const uint8_t *codes, int64_t len, int q, int64_t mask, int64_t *mark,
                     int64_t gen, const int64_t *keep, int64_t keep_gen)
{
    int64_t v = 0, fresh = 0;
    int run = 0;
    for (int64_t p = 0; p < len; p++) {
        if (codes[p] > 3) {
            run = 0;
            continue;
        }
        v = ((v << 2) | codes[p]) & mask;
        if (++run < q || mark[v] == gen || (keep && keep[v] != keep_gen))
            continue;
        mark[v] = gen;
        fresh++;
    }
    return fresh;
}

/* PEANUT's q-gram filtration by counting, over n windows: own[w] is the
 * number of distinct q-grams of window w's sequence w_seq[w] (codes
 * start[s] .. start[s] + len[s] - 1), matches[w] how many of them occur in
 * the reference window ref[lo[w]:hi[w]].  A sequence's q-grams are stamped
 * into one 4^q table when the sequence differs from the window before's, a
 * window's matches into a second, so each counts once; any window order is
 * correct, and grouped by sequence each sequence is stamped once. */
void qgram_filter(int64_t n, int q, const uint8_t *ref, const uint8_t *codes,
                  const int64_t *start, const int64_t *len, const int64_t *w_seq,
                  const int64_t *lo, const int64_t *hi, int64_t *own, int64_t *matches)
{
    const int64_t size = (int64_t)1 << (2 * q);
    int64_t *seq_mark = calloc((size_t)size, sizeof(int64_t));
    int64_t *win_mark = calloc((size_t)size, sizeof(int64_t));
    int64_t gen = 0, n_own = 0;
    for (int64_t w = 0; w < n; w++) {
        const int64_t s = w_seq[w];
        if (w == 0 || s != w_seq[w - 1]) {
            gen = w + 1;
            n_own = stamp(codes + start[s], len[s], q, size - 1, seq_mark, gen, NULL, 0);
        }
        own[w] = n_own;
        matches[w] = n_own && hi[w] > lo[w]
                         ? stamp(ref + lo[w], hi[w] - lo[w], q, size - 1, win_mark, w + 1,
                                 seq_mark, gen)
                         : 0;
    }
    free(seq_mark);
    free(win_mark);
}

/* A key of the ascending table keys, int64 when wide and int32 otherwise. */
static inline int64_t key_at(const void *keys, int wide, int64_t i)
{
    return wide ? ((const int64_t *)keys)[i] : ((const int32_t *)keys)[i];
}

/* The lower bound of each of n int64 queries in keys[0:size]: the first
 * index whose key is not below the query, size when none is.  Branchless:
 * every query takes the same log2(size) steps, and the comparison is exact
 * whatever the table's width. */
void lower_bound(int64_t n, const int64_t *query, const void *keys, int64_t size, int wide,
                 int64_t *out)
{
    for (int64_t r = 0; r < n; r++) {
        const int64_t x = query[r];
        int64_t base = 0, left = size;
        while (left > 1) {
            const int64_t half = left / 2;
            base += key_at(keys, wide, base + half - 1) < x ? half : 0;
            left -= half;
        }
        out[r] = base + (left == 1 && key_at(keys, wide, base) < x);
    }
}
