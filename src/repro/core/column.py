"""Column-based algorithm with lazy softmax — the dataflow of Fig. 5(b).

The key idea (§3.1) is to pull the softmax denominator out of the
weighted sum:

    o = (1 / sum_j e^{u.m_j^IN}) * sum_i e^{u.m_i^IN} m_i^OUT      (Eq. 4)

which lets the engine stream ``M_IN``/``M_OUT`` chunk by chunk,
accumulating a partial weighted sum and a partial denominator, and
divide exactly once at the end ("lazy softmax").  Intermediates shrink
from ``nq x ns`` to ``nq x chunk`` and the division count drops from
``O(ns)`` to ``O(ed)`` per question.

Two numerical modes:

* ``stable=False`` — the paper-faithful Eq. (4): raw exponentials.
  Overflows for large scores.
* ``stable=True`` (default) — an *online softmax*: a running maximum is
  maintained per question and previously accumulated partials are
  rescaled when it grows.  Bit-for-bit this is the same rescaling trick
  flash-attention later popularized; it preserves Eq. (4)'s single-pass
  structure while matching the stable baseline.

Because partial results combine associatively, the same machinery
implements the paper's scale-out story (§3.1, last paragraph):
:class:`PartialOutput` values produced by different workers (threads,
CUDA streams, GPUs, FPGA lanes) merge with negligible synchronization
cost — the merged state is ``O(nq x ed)`` regardless of ``ns``.

That accumulation is written once, in :class:`TileState`: every
arrangement — :class:`ColumnMemNN` over one memory, the per-shard
kernels and the fused tile sweep of :mod:`repro.core.sharded`, the
worker processes of :mod:`repro.core.execution` — scores a tile and
folds it into a state (DESIGN.md §10).  The first fold *initialises*
the state (the tile's score maximum, exponential sum and weighted sum
are the state) and later folds rescale into it allocation-free.  The
tile's score block is the only ``(nq, n)`` float array of a fold: it is
turned in place into shifted scores, then exponentials, and the
zero-skip decision (§3.2) is taken on those exponentials — the ones the
denominator just summed — as ``e >= th * S``; the no-skip path never
materializes a keep-mask, ``(nq, ed)`` intermediates go through
``np.matmul(..., out=)``, and the running-max rescale short-circuits
when no question's maximum grew.  A memory of at most one chunk
therefore pays for one tile's arithmetic and nothing else.
Shifted scores are floored at ``log(tiny)`` before exponentiation so
deeply improbable rows cost a normal-range multiply instead of a
subnormal one (x86 handles subnormals in microcode, ~100x slower — on
float32 this turned the whole pass over).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# The canonical dtype validation lives with the store tier (the two
# must agree on what a memory may contain); re-exported here because
# this module has always been its home.
from ..store.base import SUPPORTED_DTYPES, MemoryStore, StoreStats, check_dtype
from ..store.prefetch import ChunkPrefetcher
from ..store.resident import ResidentStore
from .config import FLOAT_BYTES, ChunkConfig, ZeroSkipConfig
from .results import InferenceResult
from .stats import OpStats
from .zero_skip import exp_mode_mask

__all__ = [
    "ColumnMemNN",
    "PartialOutput",
    "RunRows",
    "TileState",
    "column_op_stats",
    "exp_floor",
    "partition_memory",
    "SUPPORTED_DTYPES",
    "check_dtype",
]


#: Zero-skip readout rule (§3.2): a tile at least this wide whose kept
#: columns — the rows any question kept — are at most one in
#: ``SPARSE_MAX_KEPT_INVERSE`` has its weighted sum taken over those
#: columns only, so skipped ``M_OUT`` rows are never read.  Narrower or
#: denser tiles multiply by the keep-mask and run the dense GEMM: on a
#: bAbI story (tiles of <= 13 columns) finding and gathering the kept
#: columns costs more than the ~2 us GEMM it would replace.
SPARSE_MIN_COLUMNS = 128
SPARSE_MAX_KEPT_INVERSE = 8


@functools.lru_cache(maxsize=None)
def exp_floor(dtype: np.dtype):
    """Floor for shifted scores before ``exp``, a few ulps above
    ``log(smallest normal)`` so ``exp(floor)`` is safely *normal*: exp
    at the exact boundary rounds into subnormal range, and subnormal
    operands stall x86 pipelines ~100x per element (on float32 this
    single effect dominated the whole pass).  Cached per dtype: a
    :class:`TileState` is built on every scan."""
    return dtype.type(np.log(np.finfo(dtype).tiny) + 2.0)


def column_op_stats(
    nq: int, ns: int, ed: int, rows_kept: int, chunk_size: int, dtype: np.dtype
) -> OpStats:
    """The column dataflow's operation ledger for one memory scan —
    the single accounting formula every kernel arrangement (per-shard
    chunk loop, fused tile kernel, worker-process shard) reports
    through, so stats are comparable across execution backends.
    ``bytes_read`` counts the memory's own item size — ``FLOAT_BYTES``
    under the default float32, the footprint ``InferencePlan`` models;
    the write/intermediate terms are modeled at ``FLOAT_BYTES`` always."""
    rows = nq * ns
    # Matrix size from store metadata, not .nbytes — a row-subset
    # view would have to gather every row just to be measured.
    matrix_bytes = ns * ed * dtype.itemsize
    # Skipped rows leave their M_OUT rows unread: the per-row bound the
    # FPGA's skip achieves, and what the sparse readout of a wide,
    # mostly-skipped tile reads here too (a narrow or dense tile still
    # streams its whole M_OUT slice through the GEMM).
    kept_bytes = int(matrix_bytes * (rows_kept / rows)) if rows else 0
    return OpStats(
        flops=2 * rows * ed + 2 * rows + 2 * rows_kept * ed + nq * ed,
        divisions=nq * ed,
        exp_calls=rows,
        bytes_read=matrix_bytes + kept_bytes,
        bytes_written=nq * ed * FLOAT_BYTES,
        intermediate_bytes=2 * nq * min(chunk_size, ns) * FLOAT_BYTES,
        rows_computed=rows_kept,
        rows_skipped=rows - rows_kept,
    )


@dataclass
class PartialOutput:
    """Mergeable partial state of the column-based algorithm.

    Stores the weighted-sum numerator and the softmax denominator in a
    max-normalized form: the true quantities are
    ``weighted * e^{log_max}`` and ``denom * e^{log_max}``.  :meth:`merge`
    and :meth:`finalize` compute in float64 whatever dtype they are handed.

    Attributes:
        weighted: ``(nq, ed)`` partial numerator.
        denom: ``(nq,)`` partial denominator.
        log_max: ``(nq,)`` normalization exponent (``0`` in the
            paper-faithful unstable mode, the running score maximum in
            stable mode).
    """

    weighted: np.ndarray
    denom: np.ndarray
    log_max: np.ndarray

    @classmethod
    def empty(cls, num_questions: int, embedding_dim: int) -> "PartialOutput":
        """Identity element for :meth:`merge`."""
        return cls(
            weighted=np.zeros((num_questions, embedding_dim)),
            denom=np.zeros(num_questions),
            log_max=np.full(num_questions, -np.inf),
        )

    def merge(self, other: "PartialOutput") -> "PartialOutput":
        """Combine two partials; associative and commutative."""
        if self.weighted.shape != other.weighted.shape:
            raise ValueError(
                "cannot merge partials of different shapes: "
                f"{self.weighted.shape} vs {other.weighted.shape}"
            )
        if np.array_equal(self.log_max, other.log_max):
            # Equal running maxima: both scale vectors are exactly 1.0
            # (a partial with log_max = -inf carries zero weighted/denom,
            # so skipping its 0-scale is also exact) — skip the no-op
            # rescale multiplies.
            return PartialOutput(
                weighted=np.add(self.weighted, other.weighted, dtype=np.float64),
                denom=np.add(self.denom, other.denom, dtype=np.float64),
                log_max=self.log_max.copy(),
            )
        # float64 from here on (the maxima widen exactly), so everything
        # the scales multiply is too.
        new_max = np.maximum(self.log_max, other.log_max, dtype=np.float64)
        # exp(-inf - -inf) would be NaN; an empty partial contributes 0.
        with np.errstate(invalid="ignore"):
            scale_self = np.where(
                np.isneginf(self.log_max), 0.0, np.exp(self.log_max - new_max)
            )
            scale_other = np.where(
                np.isneginf(other.log_max), 0.0, np.exp(other.log_max - new_max)
            )
        return PartialOutput(
            weighted=self.weighted * scale_self[:, None]
            + other.weighted * scale_other[:, None],
            denom=self.denom * scale_self + other.denom * scale_other,
            log_max=new_max,
        )

    def finalize(self) -> np.ndarray:
        """The lazy softmax's one division (step 4 of Fig. 5b), in float64."""
        if self.denom.min(initial=np.inf) <= 0.0:
            raise ValueError("cannot finalize a partial with an empty denominator")
        return np.divide(self.weighted, self.denom[:, None], dtype=np.float64)


class TileState:
    """The lazy-softmax running state ``(log_max, denom, acc)`` of one
    memory scan — the one place that knows the fold arithmetic (Eq. 4
    with the online running max).  Every arrangement drives it the same
    way: score a tile, :meth:`fold` it, take :meth:`partial` at the end.

    The first fold *initialises* the state from its tile (nothing has
    been accumulated, so there is nothing to rescale); later folds
    rescale into it through ``(nq, ed)`` ``out=`` workspaces that exist
    only once a second tile does, so a one-tile scan pays for one
    tile's arithmetic and nothing else.  No fold holds an ``(nq, n)``
    float array of its own: the tile's score block is overwritten.

    Two precisions (DESIGN.md §10): a tile's arithmetic runs in the
    memory's dtype (``log_max`` is a score and keeps it); ``(denom,
    acc)``, carried across tiles, are float64.  A float32 tile's sums
    are exact float64 values, so the widening waits for a second tile:
    a one-tile scan never casts, a 100 M-row scan adds its 10^5 tile
    partials in float64.

    Args:
        nq, ed: question count and embedding width (the shape of the
            merge identity a zero-tile scan returns).
        zero_skip: §3.2 zero-skipping applied to every folded tile.
        stable: online running-max softmax vs raw exponentials.
    """

    __slots__ = (
        "_shape", "_zero_skip", "_skipping", "_stable", "rows_kept",
        "_log_max", "_denom", "_acc", "_fold_ws",
    )  # fmt: skip

    def __init__(
        self,
        nq: int,
        ed: int,
        zero_skip: ZeroSkipConfig | None,
        stable: bool,
    ) -> None:
        self._shape = (nq, ed)
        self._zero_skip = zero_skip
        self._skipping = zero_skip is not None and zero_skip.enabled
        self._stable = stable
        #: Question-row pairs whose exponential survived zero-skipping.
        self.rows_kept = 0
        self._log_max = self._denom = self._acc = None
        # From the second tile on, the ``(contrib, tile_max, new_max)``
        # out= buffers of a rescaling fold.
        self._fold_ws = None

    def fold(self, scores: np.ndarray, tile_out: np.ndarray) -> None:
        """Fold one tile: ``scores`` is its ``(nq, n)`` raw score block,
        **overwritten** — it is the fold's only ``(nq, n)`` float array,
        turned in place into shifted scores, then exponentials, then
        (narrow or dense tiles under zero-skipping) masked exponentials;
        ``tile_out`` its ``(n, ed)`` output-memory rows — an array, or
        a lazy view (:class:`RunRows`) that is indexed by the kept
        columns when the readout goes sparse and converted to an array
        otherwise.

        Zero-skipping in probability mode decides on the exponentials
        it sums: a row is kept iff ``e >= th * S``, with ``S`` the
        running denominator including this tile (under the running
        max, like ``e``).  ``S`` never exceeds the final denominator,
        so this skips a subset of what the exact rule
        (:func:`~repro.core.zero_skip.probability_mode_mask`) would."""
        first = self._acc is None
        if not first:
            if self._fold_ws is None:
                # A second tile: the workspaces keep the tile dtype, the
                # state it is about to be added into goes to float64.
                self._fold_ws = (
                    np.empty_like(self._acc),
                    np.empty_like(self._log_max),
                    np.empty_like(self._log_max),
                )
                self._denom = self._denom.astype(np.float64, copy=False)
                self._acc = self._acc.astype(np.float64, copy=False)
            contrib, tile_max, new_max = self._fold_ws
        keep = None
        if self._skipping and self._zero_skip.mode == "exp":
            # A raw-score rule, exact regardless of stabilization: taken
            # before the block stops holding raw scores.
            keep = exp_mode_mask(scores, self._zero_skip.threshold)

        if not self._stable:
            if first:
                self._log_max = np.zeros(scores.shape[0], dtype=scores.dtype)
        elif first:
            self._log_max = scores.max(axis=1)
            scores -= self._log_max[:, None]
        else:
            log_max = self._log_max
            scores.max(axis=1, out=tile_max)
            if (tile_max > log_max).any():
                # Some question's running max grew: rescale the
                # accumulated partials (the max is a finite score from
                # the first fold on, so the scale is too).  When no max
                # moved, every scale is exactly 1.0 — skip the no-op
                # multiplies.
                np.maximum(log_max, tile_max, out=new_max)
                scale = np.exp(np.subtract(log_max, new_max, dtype=np.float64))
                self._denom *= scale
                self._acc *= scale[:, None]
                log_max[:] = new_max
            scores -= log_max[:, None]
        np.maximum(scores, exp_floor(scores.dtype), out=scores)
        exp_scores = np.exp(scores, out=scores)
        if first:
            self._denom = exp_scores.sum(axis=1)
        else:
            self._denom += exp_scores.sum(axis=1)

        if not self._skipping:
            # No mask to build, and no full ``(nq, n)`` product against
            # an all-ones one.
            self.rows_kept += exp_scores.size
        else:
            if keep is None:
                # ``th * S`` in float64, then into the tile dtype one
                # step toward zero: rounding the cut can keep a row the
                # exact product would drop, never the reverse.
                cut = np.multiply(
                    self._denom, self._zero_skip.threshold, dtype=np.float64
                ).astype(scores.dtype, copy=False)
                keep = exp_scores >= np.nextafter(cut, 0)[:, None]
            n = scores.shape[1]
            cols = (
                np.flatnonzero(keep.any(axis=0))
                if n >= SPARSE_MIN_COLUMNS
                else None
            )
            if cols is not None and len(cols) * SPARSE_MAX_KEPT_INVERSE <= n:
                # Sparse readout: only the output rows some question
                # kept are read, and only their columns counted and
                # multiplied.
                keep = keep[:, cols]
                exp_scores = exp_scores[:, cols]
                tile_out = tile_out[cols]
            self.rows_kept += int(np.count_nonzero(keep))
            exp_scores *= keep

        # A lazy ``tile_out`` the sparse readout did not index is
        # densified here, by ``np.matmul`` calling its ``__array__``.
        if first:
            self._acc = np.matmul(exp_scores, tile_out)
        else:
            np.matmul(exp_scores, tile_out, out=contrib)
            self._acc += contrib

    def partial(self) -> PartialOutput:
        """The folded state as a mergeable partial — the identity of
        :meth:`PartialOutput.merge` when no tile was folded."""
        if self._acc is None:
            partial = PartialOutput.empty(*self._shape)
            if not self._stable:
                partial.log_max = np.zeros(self._shape[0])
            return partial
        return PartialOutput(
            weighted=self._acc, denom=self._denom, log_max=self._log_max
        )


class RunRows:
    """The output-memory rows under one tile of a run scan
    (:meth:`ColumnMemNN.scored_tiles` with ``runs``), unread until
    asked for: tile column ``j`` is row ``j + shift`` of ``rows``, with
    one shift per run piece in the tile.  Indexing by tile columns
    gathers just those rows (the sparse zero-skip readout); converting
    to an array gathers the whole tile.

    Args:
        rows: the ``(ns, ed)`` memory the runs index.
        bounds: ``(k + 1,)`` tile-column bounds of the ``k`` pieces.
        shifts: ``(k,)`` row-minus-column offset of each piece.
    """

    __slots__ = ("_rows", "_bounds", "_shifts")

    def __init__(
        self, rows: np.ndarray, bounds: Sequence[int], shifts: Sequence[int]
    ) -> None:
        self._rows = rows
        self._bounds = np.asarray(bounds, dtype=np.intp)
        self._shifts = np.asarray(shifts, dtype=np.intp)

    def __getitem__(self, cols: np.ndarray) -> np.ndarray:
        piece = np.searchsorted(self._bounds, cols, side="right") - 1
        return self._rows[cols + self._shifts[piece]]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        bounds = self._bounds
        return np.concatenate(
            [
                self._rows[lo + shift : hi + shift]
                for lo, hi, shift in zip(bounds[:-1], bounds[1:], self._shifts)
            ]
        )


class ColumnMemNN:
    """Column-based inference over fixed input/output memories.

    The memories reach the kernel through a
    :class:`~repro.store.MemoryStore` tier: plain arrays are wrapped
    in a :class:`~repro.store.ResidentStore` (zero-copy chunk views —
    the historical behaviour, bit for bit), while a disk-backed store
    streams chunks through an optional budgeted LRU and double-buffered
    prefetch thread.  The numbers are identical either way; only where
    the bytes live differs.

    Args:
        m_in: ``(ns, ed)`` input memory ``M_IN`` (omit when ``store``
            is given).
        m_out: ``(ns, ed)`` output memory ``M_OUT``.
        chunk: chunking configuration (paper: 1000 sentences on CPU).
        dtype: precision of the memory and of each tile's arithmetic
            (other arrays are converted once, here; the running state
            is float64 either way).  A ``store`` dictates its own.
        store: a :class:`~repro.store.MemoryStore` to stream the
            memories from instead of resident arrays.
        resident_bytes: byte budget of the resident-chunk LRU fronting
            the store (``None`` disables caching).
        prefetch_depth: chunks the background thread fetches ahead of
            the kernel (``0`` disables lookahead).
    """

    def __init__(
        self,
        m_in: np.ndarray | None = None,
        m_out: np.ndarray | None = None,
        chunk: ChunkConfig | None = None,
        dtype=np.float64,
        store: MemoryStore | None = None,
        resident_bytes: int | None = None,
        prefetch_depth: int = 0,
    ) -> None:
        self.chunk = chunk if chunk is not None else ChunkConfig()
        if store is not None:
            if m_in is not None or m_out is not None:
                raise ValueError("pass either (m_in, m_out) or store=, not both")
            dtype = check_dtype(store.dtype)
            self._store: MemoryStore = store
        else:
            if m_in is None or m_out is None:
                raise ValueError("memories required: pass (m_in, m_out) or store=")
            dtype = check_dtype(dtype)
            self._store = ResidentStore(m_in, m_out, dtype=dtype)
        self.dtype = dtype
        # Explicit stores and any caching/lookahead knobs go through
        # the prefetch pipeline (which also keeps the StoreStats
        # ledger); the plain-array path stays pipeline-free so the hot
        # resident loop reads zero-copy slices with no indirection.
        self._pipeline: ChunkPrefetcher | None = None
        if store is not None or resident_bytes is not None or prefetch_depth > 0:
            self._pipeline = ChunkPrefetcher(
                self._store,
                chunk_size=self.chunk.chunk_size,
                resident_bytes=resident_bytes,
                prefetch_depth=prefetch_depth,
            )

    @property
    def store(self) -> MemoryStore:
        """The tier serving this kernel's memory rows."""
        return self._store

    @property
    def store_stats(self) -> StoreStats | None:
        """Cumulative chunk-pipeline ledger (None on the plain path)."""
        return self._pipeline.stats if self._pipeline is not None else None

    @property
    def m_in(self) -> np.ndarray:
        """``M_IN`` as an array-like (a memmap for disk-backed stores)."""
        return self._store.m_in  # type: ignore[attr-defined]

    @property
    def m_out(self) -> np.ndarray:
        return self._store.m_out  # type: ignore[attr-defined]

    @property
    def num_sentences(self) -> int:
        return self._store.num_rows

    @property
    def embedding_dim(self) -> int:
        return self._store.embedding_dim

    def close(self) -> None:
        """Join the chunk pipeline's fetch thread, if it started one.
        The store belongs to whoever passed it in.  Idempotent."""
        if self._pipeline is not None:
            self._pipeline.close()

    def output(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
        stable: bool = True,
        runs: np.ndarray | None = None,
    ) -> InferenceResult:
        """Response vectors via the chunked lazy-softmax dataflow —
        over the whole memory, or over the ``(r, 2)`` row runs ``runs``
        (see :meth:`scored_tiles`)."""
        start = time.perf_counter()
        partial, stats = self.partial_output(
            u, zero_skip=zero_skip, stable=stable, runs=runs
        )
        output = partial.finalize()
        return InferenceResult(
            output=output,
            stats=stats,
            elapsed_seconds=time.perf_counter() - start,
            store_stats=(
                self._pipeline.stats.snapshot()
                if self._pipeline is not None
                else None
            ),
        )

    def partial_output(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
        stable: bool = True,
        runs: np.ndarray | None = None,
    ) -> tuple[PartialOutput, OpStats]:
        """Run all chunks and return the mergeable partial state.

        This is the unit of work a scale-out deployment distributes:
        each worker calls :meth:`partial_output` on its shard and the
        coordinator merges and finalizes.
        """
        u = self.check_questions(u)
        nq, ed = u.shape
        state = TileState(nq, ed, zero_skip, stable)
        for scores, chunk_out in self.scored_tiles(u, runs):
            state.fold(scores, chunk_out)
        return state.partial(), column_op_stats(
            nq,
            self.num_sentences if runs is None else int(np.diff(runs).sum()),
            ed,
            state.rows_kept,
            self.chunk.chunk_size,
            self.dtype,
        )

    def scored_tiles(
        self, u: np.ndarray, runs: np.ndarray | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray | RunRows]]:
        """Tile source -> score GEMM: ``(u @ chunk_in.T, chunk_out)``
        for every chunk of the memory, in row order.

        ``u`` must already be checked (:meth:`check_questions`).  The
        first tile's score array is the later tiles' ``out=`` workspace
        (a chunk source never yields a tile wider than its first), so a
        yielded ``scores`` is only valid until the next tile is drawn —
        and is always the consumer's to overwrite
        (:meth:`TileState.fold` exponentiates it in place).

        With ``runs`` — ``(r, 2)`` disjoint ``[start, stop)`` row spans
        of a resident memory, in scan order — only those rows are
        scored: each run's GEMM writes straight from its ``M_IN`` slice
        into the tile's score columns, runs are packed (and split) into
        tiles of ``chunk_size`` columns, and the tile's output rows are
        a :class:`RunRows` view, so nothing is copied to scan a subset.
        """
        if runs is not None:
            yield from self._scored_runs(u, runs)
            return
        if self._pipeline is not None:
            chunks = self._pipeline.chunks()
        else:
            # Resident arrays: zero-copy slices (the last stop may
            # overshoot; slicing clamps it).
            ns, c = self._store.num_rows, self.chunk.chunk_size
            chunks = map(
                self._store.read_chunk, range(0, ns, c), range(c, ns + c, c)
            )
        workspace = None
        for chunk_in, chunk_out in chunks:
            if workspace is None:
                workspace = scores = np.matmul(u, chunk_in.T)  # (nq, c)
            else:
                scores = workspace[:, : chunk_in.shape[0]]
                np.matmul(u, chunk_in.T, out=scores)
            yield scores, chunk_out

    def _scored_runs(
        self, u: np.ndarray, runs: np.ndarray
    ) -> Iterator[tuple[np.ndarray, RunRows]]:
        m_in, m_out = self.m_in, self.m_out
        width = min(self.chunk.chunk_size, int(np.diff(runs).sum()))
        workspace = np.empty((len(u), width), dtype=self.dtype)
        n, bounds, shifts = 0, [0], []
        for start, stop in runs.tolist():
            while start < stop:
                end = min(stop, start + width - n)
                np.matmul(
                    u, m_in[start:end].T, out=workspace[:, n : n + end - start]
                )
                shifts.append(start - n)
                n += end - start
                bounds.append(n)
                start = end
                if n == width:
                    yield workspace, RunRows(m_out, bounds, shifts)
                    n, bounds, shifts = 0, [0], []
        if n:
            yield workspace[:, :n], RunRows(m_out, bounds, shifts)

    def check_questions(self, u: np.ndarray) -> np.ndarray:
        """``u`` as an ``(nq, ed)`` array of the memory's dtype."""
        u = np.asarray(u, dtype=self.dtype)
        if u.ndim == 1:
            u = u[None, :]
        if u.ndim != 2 or u.shape[1] != self.embedding_dim:
            raise ValueError(
                f"questions must be (nq, {self.embedding_dim}), got {u.shape}"
            )
        return u


def partition_memory(
    m_in: np.ndarray,
    m_out: np.ndarray,
    parts: int,
    chunk: ChunkConfig | None = None,
    dtype=np.float64,
) -> Iterator[ColumnMemNN]:
    """Shard the memories across ``parts`` column-based workers.

    Used by the multi-GPU model (§5.3): each worker computes a
    :class:`PartialOutput` on its shard; partials merge associatively.
    Shards are contiguous and cover every sentence exactly once.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    ns = np.asarray(m_in).shape[0]
    if parts > ns:
        raise ValueError(f"cannot split {ns} sentences into {parts} parts")
    bounds = np.linspace(0, ns, parts + 1, dtype=int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield ColumnMemNN(m_in[lo:hi], m_out[lo:hi], chunk=chunk, dtype=dtype)


def merge_partials(partials: Sequence[PartialOutput]) -> PartialOutput:
    """Merge worker partials into one (the coordinator's reduce step)."""
    if not partials:
        raise ValueError("need at least one partial to merge")
    merged = partials[0]
    for partial in partials[1:]:
        merged = merged.merge(partial)
    return merged


__all__.append("merge_partials")
