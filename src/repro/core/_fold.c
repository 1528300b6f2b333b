/* The lazy-softmax tile fold of repro.core.column.TileState, in C.
 *
 * One call folds one (nq, n) score tile into the running state
 * (log_max, denom, acc) of a memory scan.  Per question row, in one
 * pass over the row for the arithmetic and one for the decision:
 *
 *   tile max -> rescale (denom, acc) by exp(old - new) if the running
 *   max grew -> floored exponentials written in place and summed in
 *   float64 -> cut = nextafter(dtype(min(th * S, 1)), 0) -> the output
 *   rows of the exponentials >= cut added into the float64 acc.
 *
 * The score GEMM before it stays in BLAS, and with zero-skipping off
 * the weighted sum after it too (the caller's np.matmul over the
 * exponentials left in the block).  The NumPy fold in column.py is the
 * reference this file is tested against (tests/test_compiled_fold.py).
 *
 * Determinism: each reduction runs in LANES fixed lanes combined in a
 * fixed order, and the build turns FP contraction off (only the MADD
 * below fuses), so a tile folds to the same bits whatever its
 * alignment, stride or vector width -- column, sharded, fused and
 * process arrangements of one scan stay bitwise equal.
 *
 * Both dtypes come from the body at the end of this file, included
 * twice: once with FOLD_T float, once with FOLD_T double.
 *
 * Built and loaded by repro/core/compiled_fold.py.
 */
#ifndef FOLD_T

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The running state of one scan, owned by a TileState (its ctypes
 * twin is compiled_fold.FoldState). */
typedef struct {
    int64_t nq, ed;
    double *denom;    /* (nq,) */
    double *acc;      /* (nq, ed), C order */
    void *log_max;    /* (nq,), in the tile dtype */
    double threshold; /* zero-skipping threshold, 0 = keep every row */
    double floor;     /* exp_floor(dtype): shifted scores are floored here */
    int64_t folded;   /* tiles folded so far */
} fold_state;

/* numpy's PyArrayInterface: what an ndarray's __array_struct__
 * capsule points at (the array interface protocol, version 3). */
typedef struct {
    int two, nd;
    char typekind;
    int itemsize, flags;
    intptr_t *shape, *strides;
    void *data;
    void *descr;
} array_interface;

#define ARRAY_C_CONTIGUOUS 0x1
#define ARRAY_ALIGNED 0x100 /* data and strides: multiples of the item size */
#define ARRAY_NOTSWAPPED 0x200
#define ARRAY_WRITEABLE 0x400

/* Whether `a` describes an aligned, native-endian array of `nd`
 * dimensions of `kind`/`itemsize` elements carrying `flags`. */
static inline int is_array(
    const array_interface *a, int nd, char kind, int itemsize, int flags)
{
    flags |= ARRAY_ALIGNED | ARRAY_NOTSWAPPED;
    return a != NULL && a->two == 2 && a->nd == nd && a->typekind == kind
        && a->itemsize == itemsize && (a->flags & flags) == flags;
}

/* repro_fold's errors (compiled_fold.FOLD_ERRORS). */
#define FOLD_BAD_SCORES (-1)
#define FOLD_BAD_ROWS (-2)
#define FOLD_BAD_RUNS (-3)

#define LANES 16

#ifdef __FMA__
#define MADDF(a, b, c) fmaf(a, b, c)
#else
#define MADDF(a, b, c) ((a) * (b) + (c))
#endif

/* exp(x) for float32 x in [exp_floor, 0] (and NaN -> NaN), within one
 * ulp of the correctly rounded value at every float32 there (99.2 %
 * correctly rounded; tests/test_compiled_fold.py asserts <= 2 ulp).
 * Cody-Waite: x = n ln2 + r with |r| <= ln2/2, exp(r) by a degree-6
 * polynomial (1 + r + r^2 q(r), q a degree-4 minimax fit, relative
 * error 4e-9 before rounding), times 2^n built in the exponent bits.
 * Branch-free, so the loops calling it vectorize.  Every x the fold
 * passes is >= the floor, so n >= -123 and the result is a normal
 * float: no subnormal is made. */
static inline float exp_poly(float x)
{
    const float shifter = 0x1.8p23f; /* adding it rounds to an integer */
    float t = MADDF(x, 0x1.715476p+0f, shifter);
    int32_t bits;
    memcpy(&bits, &t, sizeof bits);
    float n = t - shifter;
    float r = MADDF(n, -0x1.62e4p-1f, x); /* ln2, high part: n * it is exact */
    r = MADDF(n, -0x1.7f7d1cp-20f, r);    /* ln2, low part */
    float q = 0x1.6a244cp-10f;
    q = MADDF(q, r, 0x1.1239d4p-7f);
    q = MADDF(q, r, 0x1.5558f2p-5f);
    q = MADDF(q, r, 0x1.555492p-3f);
    q = MADDF(q, r, 0x1.fffffcp-2f);
    float p = MADDF(q, r * r, r) + 1.0f;
    uint32_t scale_bits = (uint32_t)(bits - 0x4B400000 + 127) << 23;
    float scale;
    memcpy(&scale, &scale_bits, sizeof scale);
    return p * scale;
}

/* float64 tiles are the reference precision, not a timed path: libm. */
static inline double exp_libm(double x) { return exp(x); }

#define FOLD_T float
#define FOLD_NAME(name) name##_f32
#define FOLD_EXP exp_poly
#define FOLD_NEXTAFTER nextafterf
#include __FILE__
#undef FOLD_T
#undef FOLD_NAME
#undef FOLD_EXP
#undef FOLD_NEXTAFTER

#define FOLD_T double
#define FOLD_NAME(name) name##_f64
#define FOLD_EXP exp_libm
#define FOLD_NEXTAFTER nextafter
#include __FILE__

#else /* FOLD_T: the body, once per dtype */

/* One question row.  cs, ocol: column strides in elements.  Inlined
 * into fold() twice, once with cs = 1, so the common case vectorizes. */
static inline __attribute__((always_inline)) int64_t FOLD_NAME(row)(
    fold_state *st, int64_t q, int first, int64_t n,
    FOLD_T *s, ptrdiff_t cs,
    const FOLD_T *out, ptrdiff_t orow, ptrdiff_t ocol,
    const int64_t *bounds, const int64_t *shifts)
{
    FOLD_T *log_max = (FOLD_T *)st->log_max;
    double *acc = st->acc + q * st->ed;
    const int64_t ed = st->ed, blocked = n - n % LANES;
    int64_t j, k;

    /* The tile max. */
    FOLD_T lane_max[LANES];
    for (k = 0; k < LANES; k++)
        lane_max[k] = -INFINITY;
    for (j = 0; j < blocked; j += LANES)
        for (k = 0; k < LANES; k++)
            lane_max[k] = s[(j + k) * cs] > lane_max[k] ? s[(j + k) * cs] : lane_max[k];
    FOLD_T tile_max = -INFINITY;
    for (k = 0; k < LANES; k++)
        tile_max = lane_max[k] > tile_max ? lane_max[k] : tile_max;
    for (j = blocked; j < n; j++)
        tile_max = s[j * cs] > tile_max ? s[j * cs] : tile_max;

    /* The running max, and the rescale when it grew.  (The max skips
     * NaN; a NaN score turns the row's sum NaN below.) */
    FOLD_T running = tile_max;
    if (first) {
        st->denom[q] = 0.0;
    } else {
        running = log_max[q];
        if (tile_max > running) {
            const double scale = exp((double)running - (double)tile_max);
            st->denom[q] *= scale;
            for (k = 0; k < ed; k++)
                acc[k] *= scale;
            running = tile_max;
        }
    }
    log_max[q] = running;

    /* Floored exponentials, in place, summed in float64. */
    const FOLD_T floor_ = (FOLD_T)st->floor;
    double lane_sum[LANES];
    FOLD_T lane_top[LANES];
    for (k = 0; k < LANES; k++) {
        lane_sum[k] = 0.0;
        lane_top[k] = 0;
    }
    for (j = 0; j < blocked; j += LANES)
        for (k = 0; k < LANES; k++) {
            FOLD_T x = s[(j + k) * cs] - running;
            FOLD_T e = FOLD_EXP(x < floor_ ? floor_ : x);
            s[(j + k) * cs] = e;
            lane_sum[k] += e;
            lane_top[k] = e > lane_top[k] ? e : lane_top[k];
        }
    double sum = 0.0;
    FOLD_T top = 0;
    for (k = 0; k < LANES; k++) {
        sum += lane_sum[k];
        top = lane_top[k] > top ? lane_top[k] : top;
    }
    for (j = blocked; j < n; j++) {
        FOLD_T x = s[j * cs] - running;
        FOLD_T e = FOLD_EXP(x < floor_ ? floor_ : x);
        s[j * cs] = e;
        sum += e;
        top = e > top ? e : top;
    }
    st->denom[q] += sum;
    /* A NaN score (or +inf's inf - inf) made the sum NaN: the row's
     * state goes NaN for good, as np.max's NaN takes the NumPy fold's. */
    if (sum != sum)
        log_max[q] = NAN;
    if (st->threshold == 0.0)
        return n;

    /* The cut, in float64, clamped to 1, then into the tile dtype one
     * step toward zero.  `c > 1` (not fmin) keeps a NaN a NaN. */
    double c = st->threshold * st->denom[q];
    if (c > 1.0)
        c = 1.0;
    const FOLD_T cut = FOLD_NEXTAFTER((FOLD_T)c, (FOLD_T)0);
    /* No exponential of the row reaches the cut: nothing to compare. */
    if (!(top >= cut))
        return 0;

    /* Keep e >= cut, adding the kept rows' outputs.  A RunRows tile
     * maps column j to row j + shifts[p], bounds[p] <= j < bounds[p+1]. */
    int64_t kept = 0, piece = 0, shift = 0;
    for (j = 0; j < n; j += LANES) {
        const int64_t end = j + LANES < n ? j + LANES : n;
        if (end - j == LANES) {
            FOLD_T block_top = 0;
            for (k = 0; k < LANES; k++)
                block_top = s[(j + k) * cs] > block_top ? s[(j + k) * cs] : block_top;
            if (!(block_top >= cut))
                continue;
        }
        for (k = j; k < end; k++) {
            const double e = s[k * cs];
            if (!(e >= cut))
                continue;
            if (bounds) {
                while (k >= bounds[piece + 1])
                    piece++;
                shift = shifts[piece];
            }
            const FOLD_T *row = out + (k + shift) * orow;
            int64_t d;
            if (ocol == 1)
                for (d = 0; d < ed; d++)
                    acc[d] += e * (double)row[d];
            else
                for (d = 0; d < ed; d++)
                    acc[d] += e * (double)row[d * ocol];
            kept++;
        }
    }
    return kept;
}

/* Fold one tile: `scores` the writable (nq, n) score block (overwritten
 * with its exponentials), `rows` the tile's (n, ed) output rows -- or,
 * with `bounds`/`shifts`, the (ns, ed) memory a RunRows view indexes --
 * unread when the threshold is 0.  Every array is checked against the
 * state before a pointer is followed.  Returns the question-rows kept,
 * or FOLD_BAD_SCORES / FOLD_BAD_ROWS / FOLD_BAD_RUNS. */
int64_t FOLD_NAME(repro_fold)(
    fold_state *st, const array_interface *scores, const array_interface *rows,
    const array_interface *bounds, const array_interface *shifts)
{
    const int size = (int)sizeof(FOLD_T);
    if (!is_array(scores, 2, 'f', size, ARRAY_WRITEABLE)
        || scores->shape[0] != st->nq)
        return FOLD_BAD_SCORES;
    const int64_t n = scores->shape[1];
    const int64_t *bound = NULL, *shift = NULL;
    const FOLD_T *out = NULL;
    ptrdiff_t orow = 0, ocol = 0;
    if (st->threshold != 0.0) {
        if (!is_array(rows, 2, 'f', size, 0) || rows->shape[1] != st->ed)
            return FOLD_BAD_ROWS;
        if (bounds == NULL) {
            if (rows->shape[0] != n)
                return FOLD_BAD_ROWS;
        } else {
            if (!is_array(bounds, 1, 'i', 8, ARRAY_C_CONTIGUOUS)
                || !is_array(shifts, 1, 'i', 8, ARRAY_C_CONTIGUOUS)
                || bounds->shape[0] != shifts->shape[0] + 1)
                return FOLD_BAD_RUNS;
            bound = bounds->data;
            shift = shifts->data;
            const int64_t pieces = shifts->shape[0];
            if (bound[0] != 0 || bound[pieces] != n)
                return FOLD_BAD_RUNS;
            for (int64_t p = 0; p < pieces; p++)
                if (bound[p] > bound[p + 1] || bound[p] + shift[p] < 0
                    || bound[p + 1] + shift[p] > rows->shape[0])
                    return FOLD_BAD_RUNS;
        }
        out = rows->data;
        orow = rows->strides[0] / size;
        ocol = rows->strides[1] / size;
    }
    FOLD_T *s = scores->data;
    const ptrdiff_t rs = scores->strides[0] / size, cs = scores->strides[1] / size;
    const int first = st->folded == 0;
    int64_t kept = 0, q;
    for (q = 0; q < st->nq; q++)
        kept += cs == 1
            ? FOLD_NAME(row)(st, q, first, n, s + q * rs, 1,
                             out, orow, ocol, bound, shift)
            : FOLD_NAME(row)(st, q, first, n, s + q * rs, cs,
                             out, orow, ocol, bound, shift);
    st->folded++;
    return kept;
}

/* The fold's exponential over an array, for the tests. */
void FOLD_NAME(repro_exp)(const FOLD_T *x, FOLD_T *y, int64_t n)
{
    for (int64_t j = 0; j < n; j++)
        y[j] = FOLD_EXP(x[j]);
}

#endif /* FOLD_T */
