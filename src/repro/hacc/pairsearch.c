/* The pair search of repro.hacc.neighbors: every unordered pair (i, j),
 * i != j, of a periodic box whose minimum-image separation is below a
 * cutoff, as a canonical half that the caller mirrors.
 *
 * The order of the half is part of the result: every segment sum
 * downstream adds in it, so it is fixed here and nowhere else.
 *
 * - Dense (n_cells == 0): row-major over the upper triangle, i < j.
 * - Cells (n_cells >= 4): particles are binned by
 *   floor((x % box) / (box / n_cells)), clipped to the grid, and stably
 *   counting-sorted by flat cell (x outermost).  The self cell and the
 *   13 lexicographically positive offsets of the 27-cell stencil are
 *   scanned offset by offset; within one offset, particles in index
 *   order, each against the members of its neighbour cell in sorted
 *   order, and in the self cell only members with a larger index.
 *
 * `%` is numpy's float remainder (fmod, moved to the divisor's sign).
 * The cutoff test is r2 < cutoff^2 on the minimum image
 * ((x_i - x_j + box/2) % box) - box/2, with r2 summed in the order the
 * numpy search summed it: ((dx^2 + dy^2) + dz^2) on the dense path
 * (per-axis in-place accumulation) and ((dx^2 + dz^2) + dy^2) on the
 * cell path, which is how numpy 2.4's einsum "ij,ij->i" (the
 * xp.rowwise_dot of pair_separations) reduces a row of three.  Built
 * with -ffp-contract=off so that no product is fused into an add. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int64_t *i, *j;
    int64_t n, cap;
} pairs_t;

static const int HALF_STENCIL[14][3] = {
    {0, 0, 0},   {0, 0, 1},  {0, 1, -1}, {0, 1, 0},  {0, 1, 1},
    {1, -1, -1}, {1, -1, 0}, {1, -1, 1}, {1, 0, -1}, {1, 0, 0},
    {1, 0, 1},   {1, 1, -1}, {1, 1, 0},  {1, 1, 1},
};

/* numpy's float remainder: the result takes the sign of b */
static double py_mod(double a, double b)
{
    double mod = fmod(a, b);
    if (mod != 0.0) {
        if ((b < 0) != (mod < 0))
            mod += b;
    } else {
        mod = copysign(0.0, b);
    }
    return mod;
}

static int push(pairs_t *out, int64_t a, int64_t b)
{
    if (out->n == out->cap) {
        int64_t cap = out->cap ? 2 * out->cap : 4096;
        int64_t *i = realloc(out->i, (size_t)cap * sizeof *i);
        if (!i)
            return -1;
        out->i = i;
        int64_t *j = realloc(out->j, (size_t)cap * sizeof *j);
        if (!j)
            return -1;
        out->j = j;
        out->cap = cap;
    }
    out->i[out->n] = a;
    out->j[out->n] = b;
    out->n++;
    return 0;
}

/* (a - b + half) % box - half.  Where the remainder is one exact
 * operation it skips fmod: fmod(t, box) is t for |t| < box, the sign
 * fix adds box once, and t - box is exact for box <= t < 2 box
 * (Sterbenz); a zero's sign is lost to the - half either way. */
static double image(double a, double b, double box, double half)
{
    double t = a - b + half;
    if (t >= 0.0) {
        if (t < box)
            return t - half;
        if (t < 2.0 * box)
            return (t - box) - half;
    } else if (t >= -box) {
        return (t + box) - half;
    }
    return py_mod(t, box) - half;
}

static int dense(const double *pos, int64_t n, double box, double cut2, pairs_t *out)
{
    double half = 0.5 * box;
    for (int64_t p = 0; p < n; p++) {
        const double *xp = pos + 3 * p;
        for (int64_t q = p + 1; q < n; q++) {
            const double *xq = pos + 3 * q;
            double dx = image(xp[0], xq[0], box, half);
            double dy = image(xp[1], xq[1], box, half);
            double dz = image(xp[2], xq[2], box, half);
            double r2 = dx * dx + dy * dy;
            r2 += dz * dz;
            if (r2 < cut2 && push(out, p, q))
                return -1;
        }
    }
    return 0;
}

static int cells(const double *pos, int64_t n, double box, int64_t nc, double cut2,
                 pairs_t *out)
{
    double half = 0.5 * box, size = box / (double)nc;
    int64_t ncell = nc * nc * nc;
    int64_t *cell = malloc((size_t)(3 * n) * sizeof *cell);
    int64_t *flat = malloc((size_t)n * sizeof *flat);
    int64_t *order = malloc((size_t)n * sizeof *order);
    int64_t *start = calloc((size_t)ncell + 1, sizeof *start);
    /* the positions in sorted order: a neighbour cell is read contiguously */
    double *sorted = malloc((size_t)(3 * n) * sizeof *sorted);
    int status = -1;
    if (!cell || !flat || !order || !start || !sorted)
        goto done;

    for (int64_t p = 0; p < n; p++) {
        for (int a = 0; a < 3; a++) {
            double c = floor(py_mod(pos[3 * p + a], box) / size);
            /* numpy's astype + clip, with NaN at 0 */
            cell[3 * p + a] = !(c >= 0.0) ? 0 : c >= (double)(nc - 1) ? nc - 1 : (int64_t)c;
        }
        flat[p] = (cell[3 * p] * nc + cell[3 * p + 1]) * nc + cell[3 * p + 2];
        start[flat[p] + 1]++;
    }
    for (int64_t f = 0; f < ncell; f++)
        start[f + 1] += start[f];
    /* stable counting sort: each placement advances its cell's start to
     * the next cell's, so the starts shift back by one afterwards */
    for (int64_t p = 0; p < n; p++)
        order[start[flat[p]]++] = p;
    memmove(start + 1, start, (size_t)ncell * sizeof *start);
    start[0] = 0;
    for (int64_t s = 0; s < n; s++)
        memcpy(sorted + 3 * s, pos + 3 * order[s], 3 * sizeof *sorted);

    for (int k = 0; k < 14; k++) {
        const int *o = HALF_STENCIL[k];
        for (int64_t p = 0; p < n; p++) {
            int64_t c[3];
            for (int a = 0; a < 3; a++) {
                c[a] = cell[3 * p + a] + o[a];
                c[a] = c[a] < 0 ? nc - 1 : c[a] == nc ? 0 : c[a];
            }
            int64_t f = (c[0] * nc + c[1]) * nc + c[2];
            const double *xp = pos + 3 * p;
            for (int64_t s = start[f]; s < start[f + 1]; s++) {
                int64_t q = order[s];
                if (k == 0 && q <= p)
                    continue;
                const double *xq = sorted + 3 * s;
                double dx = image(xp[0], xq[0], box, half);
                double dy = image(xp[1], xq[1], box, half);
                double dz = image(xp[2], xq[2], box, half);
                double r2 = dx * dx + dz * dz;
                r2 += dy * dy;
                if (r2 < cut2 && push(out, p, q))
                    goto done;
            }
        }
    }
    status = 0;
done:
    free(cell);
    free(flat);
    free(order);
    free(start);
    free(sorted);
    return status;
}

/* The canonical half of the pairs of `pos` ((n, 3), C order) within
 * `cutoff`: its length, or -1 when memory ran out.  `n_cells` is the
 * grid per side, 0 for the dense search.  `*found` receives the pairs,
 * which repro_take_pairs hands over and frees. */
int64_t repro_find_pairs(const double *pos, int64_t n, double box, int64_t n_cells,
                         double cutoff, void **found)
{
    pairs_t *out = calloc(1, sizeof *out);
    double cut2 = cutoff * cutoff;
    *found = NULL;
    if (!out)
        return -1;
    int status = n_cells > 0 ? cells(pos, n, box, n_cells, cut2, out)
                             : dense(pos, n, box, cut2, out);
    if (status) {
        free(out->i);
        free(out->j);
        free(out);
        return -1;
    }
    *found = out;
    return out->n;
}

/* Write the half found by repro_find_pairs and its mirror into i and j
 * (2 * half each: i = [i_h, j_h], j = [j_h, i_h]), then free it.  Null
 * outputs only free. */
void repro_take_pairs(void *found, int64_t *i, int64_t *j)
{
    pairs_t *pairs = found;
    if (!pairs)
        return;
    size_t bytes = (size_t)pairs->n * sizeof(int64_t);
    if (i && j && bytes) {
        memcpy(i, pairs->i, bytes);
        memcpy(i + pairs->n, pairs->j, bytes);
        memcpy(j, pairs->j, bytes);
        memcpy(j + pairs->n, pairs->i, bytes);
    }
    free(pairs->i);
    free(pairs->j);
    free(pairs);
}
