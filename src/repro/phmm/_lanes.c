/*
 * Lane-major Pair-HMM kernels: the forward pass, and the backward pass with
 * the posterior deposit fused into it (DESIGN §5, §12); and the three
 * accumulators' update loops, one cycle per row in row order (NORM's
 * scatter-add, CHARDISC's and CENTDISC's de-quantise / add / re-quantise).
 * Loaded by repro/phmm/lanes.py through ctypes.
 *
 * Layouts, all C-contiguous with the pair (the lane) innermost:
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

/* Scale the row's in-band block by 2^-e, 2^e the power of two at each lane's
 * maximum over the three states, and add e to the row's exponents.  Exact:
 * only exponents change. */
static void rescale(double *row, int c, int W, int B, int lo, int hi,
                    const int *e_from, int *e_to, double *mx)
{
    for (int b = 0; b < B; b++)
        mx[b] = TINY;
    for (int s = 0; s < 3; s++)
        for (int j = lo; j <= hi; j++) {
            const double *v = AT(row, c, s, j);
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
            double *v = AT(row, c, s, j);
            for (int b = 0; b < B; b++)
                v[b] *= mx[b];
        }
}

/* f_M(0, j) = 1 on row 0's band (free genome prefix); rows 1..N by
 *   f_M(i,j)  = p*(i,j) [T_MM f_M(i-1,j-1) + T_GM (f_GX + f_GY)(i-1,j-1)]
 *   f_GX(i,j) = q [T_MG f_M(i-1,j) + T_GG f_GX(i-1,j)]
 *   f_GY(i,j) = q T_MG f_M(i,j-1) + q T_GG f_GY(i,j-1)   (in-row, in order)
 * Row 0's gap states and column 0's f_M, f_GY are 0. */
void forward(int N, int B, int K, int W, const double *tab, const int *code,
             const int *bounds, const int *base, double q, double mm,
             double gm, double mg, double gg, double *state, int *fexp)
{
    const long row_len = 3L * W * B;
    const double qmg = q * mg, qgg = q * gg;
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
        if (lo == 0) {
            memset(AT(row, c, 0, 0), 0, sizeof(double) * B);
            memset(AT(row, c, 2, 0), 0, sizeof(double) * B);
        }
        for (int j = jlo; j <= hi; j++) {
            const double *pm = AT(prev, cp, 0, j - 1), *px = AT(prev, cp, 1, j - 1);
            const double *py = AT(prev, cp, 2, j - 1);
            const int *cj = code + (long)(j - 1) * B;
            double *m = AT(row, c, 0, j);
            for (int b = 0; b < B; b++) {
                double u = px[b] + py[b];
                m[b] = PSTAR(t, cj, b) * (pm[b] * mm + u * gm);
            }
        }
        for (int j = lo; j <= hi; j++) {
            const double *pm = AT(prev, cp, 0, j), *px = AT(prev, cp, 1, j);
            double *x = AT(row, c, 1, j);
            for (int b = 0; b < B; b++)
                x[b] = (pm[b] * mg + px[b] * gg) * q;
        }
        /* Column jlo-1 is out of band or column 0, so f_GY(i, jlo) = 0. */
        if (jlo <= hi)
            memset(AT(row, c, 2, jlo), 0, sizeof(double) * B);
        for (int j = jlo + 1; j <= hi; j++) {
            const double *m = AT(row, c, 0, j - 1), *yp = AT(row, c, 2, j - 1);
            double *y = AT(row, c, 2, j);
            for (int b = 0; b < B; b++)
                y[b] = m[b] * qmg + qgg * yp[b];
        }
        rescale(row, c, W, B, lo, hi, fexp + (i - 1) * B, fexp + i * B, mx);
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
static void backward_row(int i, int M, int B, int K, int W, int lo, int hi,
                         const double *tab, const int *code, double mm,
                         double gm, double qmg, double qgg, const double *nxt,
                         int cn, double *row, int c)
{
    const double *t = tab + (long)i * K * B;
    for (int j = hi; j >= lo; j--) {
        const int has_d = j < M, has_r = j < hi;
        double *bm = AT(row, c, 0, j), *bx = AT(row, c, 1, j), *by = AT(row, c, 2, j);
        const double *nx = AT(nxt, cn, 1, j);
        /* Operands past the edge point at a valid row, never to be read. */
        const int *cj = code + (long)(has_d ? j : 0) * B;
        const double *nm = has_d ? AT(nxt, cn, 0, j + 1) : nx;
        const double *yr = has_r ? AT(row, c, 2, j + 1) : nx;
        for (int b = 0; b < B; b++) {
            double d = has_d ? PSTAR(t, cj, b) * nm[b] : 0.0;
            double gd = d * gm;
            double y = i == 0 ? 0.0 : has_r ? gd + qgg * yr[b] : gd;
            double u = has_r ? nx[b] + yr[b] : nx[b];
            by[b] = y;
            bm[b] = d * mm + u * qmg;
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
void backward_deposit(int N, int M, int B, int K, int W, const double *tab,
                      const int *code, const double *pw, const int *bounds,
                      const int *base, double q, double mm, double gm,
                      double mg, double gg, int depth, double *store, int *bexp,
                      const double *state, const int *fexp, const double *total,
                      double *z, double *occ, const int *edges, double *cells,
                      double *edge)
{
    const long row_len = 3L * W * B, plane = (long)M * B;
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
        } else if (lo > hi) {
            memcpy(e_row, e_row + B, sizeof(int) * B);
        } else {
            backward_row(i, M, B, K, W, lo, hi, tab, code, mm, gm, qmg, qgg,
                         store + ((i + 1) % depth) * row_len, base[i + 1], row, c);
            rescale(row, c, W, B, lo, hi, e_row + B, e_row, mx);
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
            const double *fy = AT(f, c, 2, j), *by = AT(row, c, 2, j);
            double *zg = z + 4 * plane + (long)(j - 1) * B;
            for (int b = 0; b < B; b++)
                zg[b] += fy[b] * by[b] * g[b];
            if (i == 0)
                continue;
            const double *fm = AT(f, c, 0, j), *bm = AT(row, c, 0, j);
            const double *w = pw + (long)(i - 1) * 4 * B;
            double *zc = z + (long)(j - 1) * B, *oc = occ ? occ + (long)(j - 1) * B : NULL;
            double *ce = j == elo ? cells + 2L * i * B : j == ehi ? cells + (2L * i + 1) * B : NULL;
            double *pm = mx; /* free until the next row's rescale */
            for (int b = 0; b < B; b++)
                pm[b] = fm[b] * bm[b] * g[b];
            for (int k = 0; k < 4; k++)
                for (int b = 0; b < B; b++)
                    zc[k * plane + b] += pm[b] * w[k * B + b];
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
            for (long e = 0; e < 2L * (N + 1); e++)
                s += cells[e * B + b];
            edge[b] = s / (double)N;
        }
    free(mx);
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
