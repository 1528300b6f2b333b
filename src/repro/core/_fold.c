/* The lazy-softmax tile fold of repro.core.column.TileState, in C.
 *
 * One call folds one (nq, n) score tile into the running state
 * (log_max, denom, acc) of a memory scan.  Per question row, in one
 * pass over the row for the arithmetic and one for the decision:
 *
 *   tile max -> rescale (denom, acc) by exp(old - new) if the running
 *   max grew -> exponentials written in place and summed in float64,
 *   exactly 0 where the shifted score is below the floor (so neither
 *   the sum nor the weighted sum ever meets a subnormal) -> cut =
 *   nextafterf(float(min(th * S, 1)), 0) -> the output rows of the
 *   exponentials >= cut added into the float64 acc.
 *
 * The score GEMM before it stays in BLAS, and with zero-skipping off
 * the weighted sum after it too (the exponentials left in the block times
 * the tile's output rows, added into acc by the next call).  The NumPy
 * fold in column.py is the reference this file is tested against
 * (tests/test_compiled_fold.py).
 *
 * repro_scan walks a whole resident memory in one call: per tile the
 * score product, the fold (and at threshold 0 the weighted-sum product),
 * the products made by NumPy's own BLAS as np.matmul makes them (matmul).
 * repro_hop and a hop's repro_scan end with the divide and the hop
 * recurrence u += acc / denom, then u narrowed to float32 for the next
 * GEMM -- NumPy's IEEE operations in NumPy's order, so no bit moves.
 * repro_pass is a whole float32 answer: the question's embedding, every
 * hop's scan and the answer layer.
 *
 * repro_answer is the answer layer after the last hop (and the early-exit
 * gate's check): logits u W^T against a copy of W packed once in
 * 16-answer panels, each logit one MADD chain over k from 0 -- the same
 * bits alone or in any batch, and for many shapes sgemm's own (OpenBLAS
 * 0.3.31: docqa's 5975 x 64 W at nq >= 3, table1's and story's W at every
 * nq; a few ulps off where NumPy reaches gemv, another kernel or a K
 * split) -- and in the same call each row's argmax, or the gate's
 * softmax margin.
 *
 * The bag-of-words embedding in front of the scan (repro_bow) lives
 * here too, so a stored sentence costs one call: its sums equal the
 * NumPy embedding's (numerics.bow_embed_each) to the bit
 * (tests/test_compiled_bow.py).
 *
 * Determinism: each reduction runs in LANES fixed lanes combined in a
 * fixed order, and the build turns FP contraction off (only the MADD
 * below fuses), so a tile folds to the same bits whatever its
 * alignment, stride or vector width -- column, sharded, fused and
 * process arrangements of one scan stay bitwise equal.
 *
 * The fold takes float32 tiles only: the paper's CPU kernel is single
 * precision (float64 tiles, the reference precision, take the NumPy
 * fold).  The embedding writes float32 or float64 outputs.
 *
 * Built and loaded by repro/core/compiled_fold.py.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The running state of one scan, owned by a TileState (its ctypes
 * twin is compiled_fold.FoldState). */
typedef struct {
    int64_t nq, ed;
    double *denom;    /* (nq,) */
    double *acc;      /* (nq, ed), C order */
    float *log_max;   /* (nq,) */
    double threshold; /* zero-skipping threshold, 0 = keep every row */
    double floor;     /* exp_floor(float32): shifted scores are floored here */
    int64_t folded;   /* tiles folded so far; 0 starts a new scan */
    float *contrib;       /* (nq, ed), C order: threshold 0's weighted sum */
    int64_t pending;      /* contrib is still to be added into acc */
    const struct blas_entries *blas; /* repro_scan's products */
} fold_state;

/* The BLAS entries np.matmul calls (compiled_fold resolves them in the
 * library NumPy loaded): CBLAS, with integers of `width` bits. */
typedef struct blas_entries {
    void *sdot, *sgemv, *sgemm;
    int64_t width;
} blas_entries;

#define BLAS_TYPES(I, w)                                                        \
    typedef float sdot##w(I, const float *, I, const float *, I);               \
    typedef void sgemv##w(int, int, I, I, float, const float *, I,              \
                          const float *, I, float, float *, I);                 \
    typedef void sgemm##w(int, int, int, I, I, I, float, const float *, I,      \
                          const float *, I, float, float *, I);
BLAS_TYPES(int64_t, 64)
BLAS_TYPES(int32_t, 32)
#define BLAS(b, f, ...) ((b)->width == 64 ? ((f##64 *)(b)->f)(__VA_ARGS__) \
                                          : ((f##32 *)(b)->f)(__VA_ARGS__))
#define ROW_MAJOR 101
#define NO_TRANS 111
#define TRANS 112

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
#define FOLD_BAD_U (-4)
#define FOLD_BAD_U_TILE (-5)
#define FOLD_EMPTY (-6)
#define FOLD_BAD_MEMORY (-7)

/* repro_bow's returns besides 0 (compiled_fold.BOW_BAD_WORD /
 * BOW_REFUSED). */
#define BOW_BAD_WORD (-1)
#define BOW_REFUSED (-2)

/* numerics.PAD_ID: the word ID whose vector is masked to zero. */
#define PAD_ID 0

/* Embedding columns a bag sum accumulates at a time. */
#define BOW_BLOCK 256

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
 * passes is clamped to >= the floor (a clamped cell's result is then
 * multiplied by 0), so n >= -123 and the result is a normal float: no
 * subnormal is made. */
static inline __attribute__((always_inline)) float exp_poly(float x)
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

/* Whether an exponential of the LANES from `s` (column stride cs)
 * reaches the cut: a compare per lane, or-reduced. */
static inline __attribute__((always_inline)) int block_reaches(
    const float *s, ptrdiff_t cs, float cut)
{
    int reached = 0;
#pragma omp simd reduction(| : reached)
    for (int k = 0; k < LANES; k++)
        reached |= s[k * cs] >= cut;
    return reached;
}

/* One question row.  cs, ocol: column strides in elements.  Inlined
 * into fold() twice, once with cs = 1, so the common case vectorizes. */
static inline __attribute__((always_inline)) int64_t fold_row(
    fold_state *st, int64_t q, int first, int64_t n,
    float *s, ptrdiff_t cs,
    const float *out, ptrdiff_t orow, ptrdiff_t ocol,
    const int64_t *bounds, const int64_t *shifts)
{
    float *log_max = st->log_max;
    double *acc = st->acc + q * st->ed;
    const int64_t ed = st->ed, blocked = n - n % LANES;
    int64_t j, k;

    /* The tile max.  (A max is exact in any order: `omp simd` only
     * lets the 16-lane scans vectorize, here and in the block tops.) */
    float lane_max[LANES];
    for (k = 0; k < LANES; k++)
        lane_max[k] = -INFINITY;
    for (j = 0; j < blocked; j += LANES)
#pragma omp simd
        for (k = 0; k < LANES; k++)
            lane_max[k] = s[(j + k) * cs] > lane_max[k] ? s[(j + k) * cs] : lane_max[k];
    float tile_max = -INFINITY;
    for (k = 0; k < LANES; k++)
        tile_max = lane_max[k] > tile_max ? lane_max[k] : tile_max;
    for (j = blocked; j < n; j++)
        tile_max = s[j * cs] > tile_max ? s[j * cs] : tile_max;

    /* The running max, and the rescale when it grew.  (The max skips
     * NaN; a NaN score turns the row's sum NaN below.) */
    float running = tile_max;
    if (first) {
        /* A scan's first fold initialises the whole state: the buffer
         * may hold a previous scan's (compiled_fold.FoldState). */
        st->denom[q] = 0.0;
        for (k = 0; k < ed; k++)
            acc[k] = 0.0;
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

    /* Exponentials, in place, summed in float64.  A shifted score below
     * the floor is written as 0: exp of it would be subnormal, and even
     * exp(floor) ~ 8.7e-38 times an M_OUT entry below 0.135 is, in the
     * weighted-sum GEMM.  The argument stays clamped, so no lane leaves
     * exp_poly's range, and the zero is a multiply, not a branch, so
     * the loop stays vectorized. */
    const float floor_ = (float)st->floor;
    double lane_sum[LANES];
    float lane_top[LANES];
    for (k = 0; k < LANES; k++) {
        lane_sum[k] = 0.0;
        lane_top[k] = 0;
    }
    for (j = 0; j < blocked; j += LANES)
        for (k = 0; k < LANES; k++) {
            float x = s[(j + k) * cs] - running;
            float e = exp_poly(x < floor_ ? floor_ : x) * (x < floor_ ? 0.0f : 1.0f);
            s[(j + k) * cs] = e;
            lane_sum[k] += e;
            lane_top[k] = e > lane_top[k] ? e : lane_top[k];
        }
    double sum = 0.0;
    float top = 0;
    for (k = 0; k < LANES; k++) {
        sum += lane_sum[k];
        top = lane_top[k] > top ? lane_top[k] : top;
    }
    for (j = blocked; j < n; j++) {
        float x = s[j * cs] - running;
        float e = exp_poly(x < floor_ ? floor_ : x) * (x < floor_ ? 0.0f : 1.0f);
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

    /* The cut, in float64, clamped to 1, then into float32 one
     * step toward zero.  `c > 1` (not fmin) keeps a NaN a NaN. */
    double c = st->threshold * st->denom[q];
    if (c > 1.0)
        c = 1.0;
    const float cut = nextafterf((float)c, 0.0f);
    /* No exponential of the row reaches the cut: nothing to compare. */
    if (!(top >= cut))
        return 0;

    /* Keep e >= cut, adding the kept rows' outputs.  A RunRows tile
     * maps column j to row j + shifts[p], bounds[p] <= j < bounds[p+1]. */
    int64_t kept = 0, piece = 0, shift = 0;
    for (j = 0; j < n; j += LANES) {
        const int64_t end = j + LANES < n ? j + LANES : n;
        if (end - j == LANES && !block_reaches(s + j * cs, cs, cut))
            continue;
        for (k = j; k < end; k++) {
            const double e = s[k * cs];
            if (!(e >= cut))
                continue;
            if (bounds) {
                while (k >= bounds[piece + 1])
                    piece++;
                shift = shifts[piece];
            }
            const float *row = out + (k + shift) * orow;
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

/* acc += contrib (NumPy's adds): a threshold-0 tile's weighted sum. */
static void add_pending(fold_state *st)
{
    for (int64_t k = 0; st->pending && k < st->nq * st->ed; k++)
        st->acc[k] += (double)st->contrib[k];
    st->pending = 0;
}

/* c = a b as np.matmul computes it (NumPy 2's matmul.c.src): a (m, k)
 * and c (m, n) with row strides lda, ldc, b (k, n) with row stride ldb,
 * all with unit column stride.  NumPy's choice, copied: dot for a 1 x 1
 * product, its own loop for k = 1, gemv for one row or one column, gemm
 * else -- any other call rounds differently (tests/test_scan_blas.py). */
static void matmul(const blas_entries *b, int64_t m, int64_t n, int64_t k,
                   const float *x, int64_t lda, const float *y, int64_t ldb,
                   float *c, int64_t ldc)
{
    if (m == 0 || n == 0) /* (NumPy calls no BLAS either) */
        return;
    if (m == 1 && n == 1)
        c[0] = BLAS(b, sdot, k, x, 1, y, ldb);
    else if (k == 1)
        for (int64_t i = 0; i < m; i++)
            for (int64_t j = 0; j < n; j++)
                c[i * ldc + j] = 0.0f + x[i * lda] * y[j];
    else if (m == 1)
        BLAS(b, sgemv, ROW_MAJOR, TRANS, k, n, 1.0f, y, ldb, x, 1, 0.0f, c, 1);
    else if (n == 1)
        BLAS(b, sgemv, ROW_MAJOR, NO_TRANS, m, k, 1.0f, x, lda, y, ldb, 0.0f, c, ldc);
    else
        BLAS(b, sgemm, ROW_MAJOR, NO_TRANS, NO_TRANS, m, n, k, 1.0f, x, lda, y, ldb,
             0.0f, c, ldc);
}

/* Fold the (nq, n) block s (row and column strides rs, cs) against its
 * output rows; repro_fold's arithmetic, its arguments checked. */
static int64_t fold_tile(
    fold_state *st, float *s, ptrdiff_t rs, ptrdiff_t cs, int64_t n,
    const float *out, ptrdiff_t orow, ptrdiff_t ocol,
    const int64_t *bound, const int64_t *shift)
{
    /* Before any rescale (a scan's first fold then zeroes acc). */
    add_pending(st);
    const int first = st->folded == 0;
    int64_t kept = 0, q;
    for (q = 0; q < st->nq; q++)
        kept += cs == 1
            ? fold_row(st, q, first, n, s + q * rs, 1, out, orow, ocol, bound, shift)
            : fold_row(st, q, first, n, s + q * rs, cs, out, orow, ocol, bound, shift);
    st->folded++;
    return kept;
}

/* Fold one tile: `scores` the writable (nq, n) score block (overwritten
 * with its exponentials), `rows` the tile's (n, ed) output rows -- or,
 * with `bounds`/`shifts`, the (ns, ed) memory a RunRows view indexes --
 * unread when the threshold is 0 (the caller's GEMM then leaves the
 * tile's weighted sum pending in contrib, added by the next call).
 * Every array is checked against the state before a pointer is
 * followed.  Returns the question-rows kept, or FOLD_BAD_SCORES /
 * FOLD_BAD_ROWS / FOLD_BAD_RUNS. */
int64_t repro_fold(
    fold_state *st, const array_interface *scores, const array_interface *rows,
    const array_interface *bounds, const array_interface *shifts)
{
    const int size = (int)sizeof(float);
    if (!is_array(scores, 2, 'f', size, ARRAY_WRITEABLE)
        || scores->shape[0] != st->nq)
        return FOLD_BAD_SCORES;
    const int64_t n = scores->shape[1];
    const int64_t *bound = NULL, *shift = NULL;
    const float *out = NULL;
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
    return fold_tile(st, scores->data, scores->strides[0] / size,
                     scores->strides[1] / size, n, out, orow, ocol, bound, shift);
}

/* Whether `u` is the C-ordered, writable (nq, ed) float64 hop state and
 * `u_tile` its float32 twin: 0, or FOLD_BAD_U / FOLD_BAD_U_TILE. */
static int64_t hop_arrays(
    const fold_state *st, const array_interface *u, const array_interface *u_tile)
{
    const int flags = ARRAY_C_CONTIGUOUS | ARRAY_WRITEABLE;
    if (!is_array(u, 2, 'f', 8, flags) || u->shape[0] != st->nq || u->shape[1] != st->ed)
        return FOLD_BAD_U;
    if (!is_array(u_tile, 2, 'f', 4, flags) || u_tile->shape[0] != st->nq
        || u_tile->shape[1] != st->ed)
        return FOLD_BAD_U_TILE;
    return 0;
}

/* Add a pending weighted sum, then o = acc / denom left in acc, u += o
 * and u_tile = (float)u. */
static void recurrence(fold_state *st, double *u, float *u_tile)
{
    add_pending(st);
    for (int64_t q = 0; q < st->nq; q++)
        for (int64_t k = q * st->ed; k < (q + 1) * st->ed; k++) {
            st->acc[k] = st->acc[k] / st->denom[q];
            u[k] = u[k] + st->acc[k];
            u_tile[k] = (float)u[k];
        }
}

/* End a hop whose tiles are folded: the recurrence, with `u` the hop
 * state, checked before any write as `u_tile` is.  Returns 0 or error. */
int64_t repro_hop(fold_state *st, const array_interface *u, const array_interface *u_tile)
{
    const int64_t status = hop_arrays(st, u, u_tile);
    if (status < 0)
        return status;
    if (st->folded == 0)
        return FOLD_EMPTY;
    recurrence(st, u->data, u_tile->data);
    return 0;
}

/* A memory's tiles (compiled_fold.ScanPlan): `pieces` (M_IN, M_OUT)
 * pairs of (n, ed) float32 arrays, M_IN feature-major, cut into tiles of
 * at most `chunk` rows, each scored into the workspace `scores`. */
typedef struct {
    int64_t pieces, chunk;
    const array_interface *const *memory; /* M_IN, M_OUT of each piece */
    const array_interface *scores;
} scan_plan;

/* A new scan of `st` over `plan` with the C-ordered (nq, ed) float32
 * questions `u_tile`; with the hop state `u` (u_tile its narrowing) the
 * hop ends in the same call, as repro_hop's.  Arrays are checked before
 * they are read; u and u_tile are written after the last fold.  Returns
 * the question-rows kept, or a FOLD_* error. */
int64_t repro_scan(
    fold_state *st, const scan_plan *plan, const array_interface *u_tile,
    const array_interface *u)
{
    const int64_t nq = st->nq, ed = st->ed, size = (int64_t)sizeof(float);
    const array_interface *ws = plan->scores;
    const int64_t bad = u != NULL ? hop_arrays(st, u, u_tile)
        : !is_array(u_tile, 2, 'f', size, ARRAY_C_CONTIGUOUS) || u_tile->shape[0] != nq
                || u_tile->shape[1] != ed ? FOLD_BAD_U_TILE : 0;
    if (bad < 0)
        return bad;
    if (!is_array(ws, 2, 'f', size, ARRAY_WRITEABLE) || ws->shape[0] < nq
        || ws->strides[1] != size)
        return FOLD_BAD_SCORES;
    float *scores = ws->data;
    const int64_t ld = ws->strides[0] / size;
    int64_t kept = 0;
    st->folded = 0;
    for (int64_t p = 0; p < plan->pieces; p++) {
        const array_interface *in = plan->memory[2 * p], *out = plan->memory[2 * p + 1];
        if (!is_array(in, 2, 'f', size, 0) || in->shape[1] != ed
            || !is_array(out, 2, 'f', size, 0) || out->shape[0] != in->shape[0]
            || out->shape[1] != ed)
            return FOLD_BAD_MEMORY;
        if (in->shape[0] == 0) /* (an empty array's strides may be anything) */
            continue;
        if (in->strides[0] != size || out->strides[1] != size)
            return FOLD_BAD_MEMORY;
        const int64_t rows = in->shape[0], ldi = in->strides[1] / size;
        const int64_t ldo = out->strides[0] / size;
        for (int64_t lo = 0; lo < rows; lo += plan->chunk) {
            const int64_t n = rows - lo < plan->chunk ? rows - lo : plan->chunk;
            const float *tile_out = (const float *)out->data + lo * ldo;
            if (n > ws->shape[1])
                return FOLD_BAD_SCORES;
            matmul(st->blas, nq, n, ed, u_tile->data, ed, (const float *)in->data + lo,
                   ldi, scores, ld);
            kept += fold_tile(st, scores, ld, 1, n, tile_out, ldo, 1, NULL, NULL);
            if (st->threshold == 0.0) {
                matmul(st->blas, nq, ed, n, scores, ld, tile_out, ldo, st->contrib, ed);
                st->pending = 1;
            }
        }
    }
    if (u == NULL)
        return kept;
    if (st->folded == 0)
        return FOLD_EMPTY;
    recurrence(st, u->data, u_tile->data);
    return kept;
}

/* The answer layer W, packed once by its owner
 * (early_exit.AnswerLayer; ctypes twin compiled_fold.AnswerState):
 * answer j's weight k at packed[((j / LANES) * ed + k) * LANES + j % LANES],
 * zero past na, with `panels` a multiple of 4. */
typedef struct {
    int64_t na, ed, panels;
    const float *packed;
    double floor; /* exp_floor(float32), as the fold's */
} answer_layer;

/* repro_answer's errors (compiled_fold.ANSWER_ERRORS). */
#define ANSWER_BAD_U (-1)
#define ANSWER_BAD_LOGITS (-2)
#define ANSWER_BAD_TOP (-3)
#define ANSWER_BAD_CONFIDENCE (-4)
#define ANSWER_NO_MEMORY (-5)

/* LANES floats; a load through it needs no alignment. */
typedef float lanes_t __attribute__((vector_size(LANES * sizeof(float)), aligned(4), may_alias));

/* Logits of `rows` question rows from row q (narrowed, C order, ed
 * apart) against `panels` panels from panel p, each one MADDF chain over
 * k from 0, so that a logit's bits depend on its row and answer alone;
 * the first `stored` rows are written into the (nq, na) logits, float32
 * or (wide) float64. */
static inline __attribute__((always_inline)) void answer_block(
    const answer_layer *w, const float *u, int rows, int panels, int64_t q,
    int stored, int64_t p, void *logits, int wide, ptrdiff_t stride)
{
    const int64_t ed = w->ed;
    const float *packed = w->packed + p * ed * LANES;
    lanes_t acc[16]; /* rows * panels <= 16 */
    int i, l;
    for (i = 0; i < rows * panels; i++)
        acc[i] = (lanes_t){0};
    for (int64_t k = 0; k < ed; k++)
        for (int b = 0; b < panels; b++) {
            const lanes_t v = *(const lanes_t *)(packed + (b * ed + k) * LANES);
            for (int r = 0; r < rows; r++) {
                const float x = u[(q + r) * ed + k];
                lanes_t *a = &acc[r * panels + b];
#pragma omp simd
                for (l = 0; l < LANES; l++)
                    (*a)[l] = MADDF(x, v[l], (*a)[l]);
            }
        }
    for (int r = 0; r < stored; r++)
        for (int b = 0; b < panels; b++) {
            const int64_t j = (p + b) * LANES;
            const int n = w->na - j < LANES ? (int)(w->na - j) : LANES;
            const ptrdiff_t at = (q + r) * stride + j;
            const lanes_t a = acc[r * panels + b];
            if (wide)
                for (l = 0; l < n; l++)
                    ((double *)logits)[at + l] = a[l];
            else if (n == LANES)
                *(lanes_t *)((float *)logits + at) = a;
            else
                for (l = 0; l < n; l++)
                    ((float *)logits)[at + l] = a[l];
        }
}

/* The two block shapes, out of line so that each unrolls with its
 * accumulators in registers: 4 rows x 4 panels, and a lone row with 8
 * panels' chains in flight. */
static __attribute__((noinline)) void answer_4x4(
    const answer_layer *w, const float *u, int64_t q, int stored, int64_t p,
    void *logits, int wide, ptrdiff_t stride)
{
    answer_block(w, u, 4, 4, q, stored, p, logits, wide, stride);
}

static __attribute__((noinline)) void answer_1x8(
    const answer_layer *w, const float *u, int64_t p, void *logits, int wide)
{
    answer_block(w, u, 1, 8, 0, 1, p, logits, wide, 0);
}

/* Every row's logits, the packed panels walked once: a group of 8
 * panels stays in L1 while each block of 4 rows (`u` holds zero rows up
 * to a multiple of 4) reads it. */
static void answer_logits(
    const answer_layer *w, const float *u, int64_t nq, void *logits, int wide,
    ptrdiff_t stride)
{
    for (int64_t p = 0; p < w->panels; p += 8) {
        const int64_t end = w->panels - p >= 8 ? p + 8 : p + 4;
        if (nq == 1 && end == p + 8) {
            answer_1x8(w, u, p, logits, wide);
            continue;
        }
        for (int64_t q = 0; q < nq; q += 4)
            for (int64_t b = p; b < end; b += 4)
                answer_4x4(w, u, q, nq - q < 4 ? (int)(nq - q) : 4, b, logits, wide, stride);
    }
}

/* One row of na logits, float32 or (wide) float64: its argmax into
 * *top -- the first maximum, and the first NaN if there is one, as
 * np.argmax -- and, with `confidence`, the softmax margin
 * (1 - e^(l2 - l1)) / sum_j e^(l_j - l1) of its top two l1 >= l2. */
static inline __attribute__((always_inline)) void answer_row(
    const void *row, int wide, int64_t na, double floor_, int64_t *top,
    double *confidence)
{
#define LOGIT(j) (wide ? (float)((const double *)row)[j] : ((const float *)row)[j])
    float best[LANES], second[LANES], finite[LANES];
    int32_t where[LANES];
    int64_t j;
    int l;
    for (l = 0; l < LANES; l++) {
        best[l] = second[l] = -INFINITY;
        where[l] = INT32_MAX;
        finite[l] = 0;
    }
    /* Per lane: the first maximum, and the largest of the rest. */
    for (j = 0; j < na; j += LANES) {
        const int n = na - j < LANES ? (int)(na - j) : LANES;
#pragma omp simd
        for (l = 0; l < n; l++) {
            const float x = LOGIT(j + l);
            const int above = x > best[l];
            second[l] = above ? best[l] : (x > second[l] ? x : second[l]);
            best[l] = above ? x : best[l];
            where[l] = above ? (int32_t)(j + l) : where[l];
            finite[l] += x * 0.0f; /* NaN from then on at a NaN or an inf */
        }
    }
    int win = 0, clean = 1;
    for (l = 0; l < LANES; l++) {
        clean &= finite[l] == 0;
        if (best[l] > best[win] || (best[l] == best[win] && where[l] < where[win]))
            win = l;
    }
    float l1 = best[win], l2 = second[win];
    int64_t at = where[win];
    for (l = 0; l < LANES; l++)
        if (l != win && best[l] > l2)
            l2 = best[l];
    if (!clean) {
        /* A NaN or an inf: np.argmax's scan (its NaN turns the sum
         * below NaN, so l2 then no longer matters). */
        at = 0;
        for (j = 1; j < na && LOGIT(at) == LOGIT(at); j++)
            if (LOGIT(j) > LOGIT(at) || LOGIT(j) != LOGIT(j))
                at = j;
        l1 = LOGIT(at);
        l2 = -INFINITY;
        for (j = 0; j < na; j++)
            if (j != at && LOGIT(j) > l2)
                l2 = LOGIT(j);
    }
    if (top != NULL)
        *top = at;
    if (confidence == NULL)
        return;
    /* The sum, as the fold's: shifted logits below the floor add 0. */
    const float floor_f = (float)floor_;
    double lane_sum[LANES], sum = 0.0;
    for (l = 0; l < LANES; l++)
        lane_sum[l] = 0.0;
    for (j = 0; j < na; j += LANES) {
        const int n = na - j < LANES ? (int)(na - j) : LANES;
#pragma omp simd
        for (l = 0; l < n; l++) {
            const float x = LOGIT(j + l) - l1;
            lane_sum[l] += exp_poly(x < floor_f ? floor_f : x) * (x < floor_f ? 0.0f : 1.0f);
        }
    }
    for (l = 0; l < LANES; l++)
        sum += lane_sum[l];
    /* With one answer there is nothing to flip. */
    *confidence = na < 2 ? 1.0 : (1.0 - exp((double)l2 - (double)l1)) / sum;
#undef LOGIT
}

/* The answer layer on (nq, ed) float32 or float64 question rows `u`
 * (narrowed to float32 first): their logits into the (nq, na) float32
 * or float64 `logits` (unit column stride); with `top`, each row's
 * argmax ((nq,) int64); with `confidence`, its softmax margin ((nq,)
 * float64).  Every array is checked before a write.  Returns 0 or an
 * ANSWER_* error. */
int64_t repro_answer(
    const answer_layer *w, const array_interface *u, const array_interface *logits,
    const array_interface *top, const array_interface *confidence)
{
    const int flags = ARRAY_C_CONTIGUOUS | ARRAY_WRITEABLE;
    if (!(is_array(u, 2, 'f', 4, 0) || is_array(u, 2, 'f', 8, 0))
        || u->shape[1] != w->ed)
        return ANSWER_BAD_U;
    const int64_t nq = u->shape[0];
    if (!(is_array(logits, 2, 'f', 4, ARRAY_WRITEABLE)
          || is_array(logits, 2, 'f', 8, ARRAY_WRITEABLE))
        || logits->shape[0] != nq || logits->shape[1] != w->na
        || (nq > 0 && w->na > 1 && logits->strides[1] != logits->itemsize))
        return ANSWER_BAD_LOGITS;
    if (top != NULL && (!is_array(top, 1, 'i', 8, flags) || top->shape[0] != nq))
        return ANSWER_BAD_TOP;
    if (confidence != NULL
        && (!is_array(confidence, 1, 'f', 8, flags) || confidence->shape[0] != nq))
        return ANSWER_BAD_CONFIDENCE;
    if (nq == 0)
        return 0;
    const int64_t padded = (nq + 3) / 4 * 4;
    float *narrow = calloc((size_t)(padded * w->ed), sizeof(float));
    if (narrow == NULL)
        return ANSWER_NO_MEMORY;
    const ptrdiff_t rs = u->strides[0] / u->itemsize, cs = u->strides[1] / u->itemsize;
    for (int64_t q = 0; q < nq; q++)
        for (int64_t k = 0; k < w->ed; k++)
            narrow[q * w->ed + k] = u->itemsize == 4
                ? ((const float *)u->data)[q * rs + k * cs]
                : (float)((const double *)u->data)[q * rs + k * cs];
    const int wide = logits->itemsize == 8;
    const ptrdiff_t stride = logits->strides[0] / logits->itemsize;
    answer_logits(w, narrow, nq, logits->data, wide, stride);
    free(narrow);
    if (top == NULL && confidence == NULL)
        return 0;
    for (int64_t q = 0; q < nq; q++) {
        const char *row = (const char *)logits->data + q * logits->strides[0];
        int64_t *at = top != NULL ? (int64_t *)top->data + q : NULL;
        double *margin = confidence != NULL ? (double *)confidence->data + q : NULL;
        if (wide)
            answer_row(row, 1, w->na, w->floor, at, margin);
        else
            answer_row(row, 0, w->na, w->floor, at, margin);
    }
    return 0;
}

/* Whether `out` can take an (n, ed) block of bag sums from row
 * `start` on: float32 (a memory buffer) or float64 (a question's u). */
static inline int bow_out(
    const array_interface *out, int64_t start, int64_t n, int64_t ed)
{
    return (is_array(out, 2, 'f', 4, ARRAY_WRITEABLE)
            || is_array(out, 2, 'f', 8, ARRAY_WRITEABLE))
        && start >= 0 && out->shape[0] >= start + n && out->shape[1] == ed;
}

/* The bag sums of n sentences under one (V, ed) float64 table, each
 * rounded once into its row of `out`: float32 when `single`, else
 * float64 (strides in elements: a feature-major M_IN slice and a
 * row-major M_OUT slice alike).  Kept out of line, and handed the
 * data pointer rather than the array_interface: with gcc 12 an inlined
 * copy embedded a stored story 3x slower, one reading the
 * array_interface 10 % slower. */
static __attribute__((noinline)) void bow_table(
    const int64_t *ids, ptrdiff_t srow, ptrdiff_t scol, int64_t n, int64_t nw,
    const double *table, int64_t ed, const double *encoding,
    void *out, int single, ptrdiff_t orow, ptrdiff_t ocol)
{
    float *out32 = out;
    double *out64 = out;
    double sum[BOW_BLOCK];
    for (int64_t lo = 0; lo < ed; lo += BOW_BLOCK) {
        const int64_t width = ed - lo < BOW_BLOCK ? ed - lo : BOW_BLOCK;
        for (int64_t i = 0; i < n; i++) {
            int64_t d;
            for (d = 0; d < width; d++)
                sum[d] = 0.0;
            for (int64_t j = 0; j < nw; j++) {
                const int64_t id = ids[i * srow + j * scol];
                const double mask = id != PAD_ID ? 1.0 : 0.0;
                const double *vector = table + id * ed + lo;
                if (encoding != NULL) {
                    const double *weight = encoding + j * ed + lo;
                    for (d = 0; d < width; d++)
                        sum[d] += vector[d] * mask * weight[d];
                } else {
                    for (d = 0; d < width; d++)
                        sum[d] += vector[d] * mask;
                }
            }
            const ptrdiff_t at = i * orow + lo * ocol;
            if (single)
                for (d = 0; d < width; d++)
                    out32[at + d * ocol] = (float)sum[d];
            else
                for (d = 0; d < width; d++)
                    out64[at + d * ocol] = sum[d];
        }
    }
}

/* Bag-of-words embedding (numerics.bow_embed_each): the (n, nw) int64
 * word IDs of `sentences` under the float64 (V, ed) table `table_a`
 * into rows [start, start + n) of `out_a`, and under `table_c` into
 * those of `out_c` (both NULL: one table).  A word's vector is
 * multiplied by its pad mask (0 for PAD_ID, else 1), then by its
 * (nw, ed) `encoding` row when there is one, and a sentence's vectors
 * are added to +0.0 in float64 position by position -- the NumPy
 * embedding's arithmetic, to the bit.
 * Every word ID is checked before any row is written.  Returns 0,
 * BOW_BAD_WORD (an ID outside [0, V)), or BOW_REFUSED: an array this
 * loop does not take (the caller embeds with NumPy instead). */
int64_t repro_bow(
    const array_interface *sentences, const array_interface *encoding,
    const array_interface *table_a, const array_interface *out_a,
    const array_interface *table_c, const array_interface *out_c, int64_t start)
{
    if (!is_array(sentences, 2, 'i', 8, 0)
        || !is_array(table_a, 2, 'f', 8, ARRAY_C_CONTIGUOUS))
        return BOW_REFUSED;
    const int64_t n = sentences->shape[0], nw = sentences->shape[1];
    const int64_t vocab = table_a->shape[0], ed = table_a->shape[1];
    if (!bow_out(out_a, start, n, ed))
        return BOW_REFUSED;
    if ((table_c == NULL) != (out_c == NULL))
        return BOW_REFUSED;
    if (table_c != NULL
        && (!is_array(table_c, 2, 'f', 8, ARRAY_C_CONTIGUOUS)
            || table_c->shape[0] != vocab || table_c->shape[1] != ed
            || !bow_out(out_c, start, n, ed)))
        return BOW_REFUSED;
    if (encoding != NULL
        && (!is_array(encoding, 2, 'f', 8, ARRAY_C_CONTIGUOUS)
            || encoding->shape[0] != nw || encoding->shape[1] != ed))
        return BOW_REFUSED;
    const int64_t *ids = sentences->data;
    const ptrdiff_t srow = sentences->strides[0] / 8, scol = sentences->strides[1] / 8;
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < nw; j++) {
            const int64_t id = ids[i * srow + j * scol];
            if (id < 0 || id >= vocab)
                return BOW_BAD_WORD;
        }
    const double *weights = encoding != NULL ? encoding->data : NULL;
    const array_interface *outs[2] = {out_a, out_c};
    const array_interface *tables[2] = {table_a, table_c};
    for (int t = 0; t < 2 && tables[t] != NULL; t++) {
        const int size = outs[t]->itemsize;
        char *rows = (char *)outs[t]->data + start * outs[t]->strides[0];
        bow_table(ids, srow, scol, n, nw, tables[t]->data, ed, weights, rows,
                  size == 4, outs[t]->strides[0] / size, outs[t]->strides[1] / size);
    }
    return 0;
}

/* One resident float32 answer (compiled_fold.AnswerPass, held by the
 * engine per batch size): the questions' bag sums under `table` (and
 * `encoding`) into the (nq, ed) float64 hop state u, u_tile = (float)u,
 * each hop's scan of its plan with its state, then the answer layer's
 * logits and argmax of u_tile; `kept` takes each hop's kept count. */
typedef struct {
    int64_t hops;
    fold_state *const *states;
    const scan_plan *const *plans;
    const answer_layer *layer;
    const array_interface *encoding, *table, *u, *u_tile, *logits, *top;
    int64_t *kept;
} answer_pass;

/* Returns 0; repro_bow's error (nothing written); a repro_scan error
 * less 16; a repro_answer error less 32. */
int64_t repro_pass(const answer_pass *pass, const array_interface *questions)
{
    int64_t status = hop_arrays(pass->states[0], pass->u, pass->u_tile);
    if (status < 0)
        return status - 16;
    status = repro_bow(questions, pass->encoding, pass->table, pass->u, NULL, NULL, 0);
    if (status < 0)
        return status;
    const double *u = pass->u->data;
    float *u_tile = pass->u_tile->data;
    for (int64_t k = 0; k < pass->states[0]->nq * pass->states[0]->ed; k++)
        u_tile[k] = (float)u[k];
    for (int64_t hop = 0; hop < pass->hops; hop++) {
        status = repro_scan(pass->states[hop], pass->plans[hop], pass->u_tile, pass->u);
        if (status < 0)
            return status - 16;
        pass->kept[hop] = status;
    }
    status = repro_answer(pass->layer, pass->u_tile, pass->logits, pass->top, NULL);
    return status < 0 ? status - 32 : 0;
}

/* matmul, for the tests: c = a b, C-ordered blocks but b, whose rows
 * are ldb floats apart. */
void repro_matmul(const blas_entries *b, int64_t m, int64_t n, int64_t k,
                  const float *x, const float *y, int64_t ldb, float *c)
{
    matmul(b, m, n, k, x, k, y, ldb, c, n);
}

/* The fold's exponential over an array, for the tests. */
void repro_exp(const float *x, float *y, int64_t n)
{
    for (int64_t j = 0; j < n; j++)
        y[j] = exp_poly(x[j]);
}
