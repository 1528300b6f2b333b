"""Column-based algorithm with lazy softmax — the dataflow of Fig. 5(b).

The key idea (§3.1) is to pull the softmax denominator out of the
weighted sum:

    o = (1 / sum_j e^{u.m_j^IN}) * sum_i e^{u.m_i^IN} m_i^OUT      (Eq. 4)

which lets the engine stream ``M_IN``/``M_OUT`` chunk by chunk,
accumulating a partial weighted sum and a partial denominator, and
divide exactly once at the end ("lazy softmax").  Intermediates shrink
from ``nq x ns`` to ``nq x chunk`` and the division count drops from
``O(ns)`` to ``O(ed)`` per question.

Eq. (4) is evaluated as an *online softmax*: a running maximum is
maintained per question and previously accumulated partials are
rescaled when it grows (the rescaling trick flash-attention later
popularized), so the single-pass structure survives scores whose raw
exponentials would overflow — past ~88 in float32.  The raw form stays
as :func:`~repro.core.numerics.unstable_softmax`, for the ablation.

Because partial results combine associatively, the same machinery
implements the paper's scale-out story (§3.1, last paragraph):
:class:`PartialOutput` values produced by different workers (threads,
CUDA streams, GPUs, FPGA lanes) merge with negligible synchronization
cost — the merged state is ``O(nq x ed)`` regardless of ``ns``.

That accumulation is written once, in :class:`TileState`: every
arrangement — :class:`ColumnMemNN` over one memory, the per-shard
kernels and the fused tile sweep of :mod:`repro.core.sharded`, the
worker processes of :mod:`repro.core.execution` — scores a tile and
folds it into a state (DESIGN.md §10).  A float32 tile's fold is a C
loop per question row (``_fold.c``, built on first use by
:mod:`repro.core.compiled_fold`); a float64 tile's, and every tile's
where no C compiler is available, is NumPy passes.  The first fold
*initialises* the state (the tile's score maximum, exponential sum and
weighted sum are the state) and later
folds rescale into it allocation-free.  The tile's score block is the
only ``(nq, n)`` float array of a fold: it is turned in place into
exponentials under the running max, and the zero-skip decision (§3.2)
is taken on those exponentials — the ones the denominator just summed
— as ``e >= th * S``, with only the kept rows' ``M_OUT`` read; the
running-max rescale short-circuits when no question's maximum grew.
A scan runs over a tile plan: ``(M_IN, M_OUT)`` pieces with ``[start,
stop)`` row spans (the resident memory whole, a chunk pipeline's
chunks, or the top-k tier's probed runs of its cluster-major copy),
packed into tiles of ``chunk_size`` columns.  A float32 plan held in RAM
is scanned in one C call (:meth:`TileState.scan`): per tile the score
GEMMs, made through the BLAS NumPy loaded, and the fold; an engine
hop's scan also takes the divide and advances ``u += o``.
Shifted scores are floored at ``log(tiny)`` before exponentiation, and
the compiled fold writes a floored cell as exactly 0, so deeply
improbable rows cost a normal-range multiply instead of a subnormal one
— in ``exp`` and in the weighted sum after it (x86 handles subnormals
in microcode, ~100x slower — on float32 this turned the whole pass
over).  The NumPy fold keeps ``exp(floor)`` in those cells: it runs
float64 tiles, whose floor lies ~706 below the row maximum, and float32
tiles only where no compiler is.
"""

from __future__ import annotations

import ctypes
import functools
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..store.base import MemoryStore, StoreStats, check_questions
from ..store.prefetch import ChunkPrefetcher
from ..store.resident import memory_store
from . import compiled_fold
from .config import FLOAT_BYTES, ChunkConfig, ZeroSkipConfig
from .results import InferenceResult
from .stats import OpStats

__all__ = [
    "ColumnMemNN",
    "PartialOutput",
    "ScanRecord",
    "TileState",
    "column_op_stats",
    "exp_floor",
    "merge_partials",
]


#: The NumPy fold's zero-skip readout rule (§3.2; the compiled fold reads
#: the kept rows only, on every tile): a tile at least this wide whose
#: kept columns — the rows any question kept — are at most one in
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
    under the default float32, the footprint the serving disk model
    charges; the write/intermediate terms are modeled at ``FLOAT_BYTES``
    always."""
    rows = nq * ns
    # Matrix size from store metadata, not .nbytes — a row-subset
    # view would have to gather every row just to be measured.
    matrix_bytes = ns * ed * dtype.itemsize
    # Skipped rows leave their M_OUT rows unread: the per-row bound the
    # FPGA's skip achieves, and what the sparse readout of a wide,
    # mostly-skipped tile reads here too (a narrow or dense tile still
    # streams its whole M_OUT slice through the GEMM).
    kept_bytes = int(matrix_bytes * (rows_kept / rows)) if rows else 0
    # Positional, in field order (keywords cost a bAbI hop ~0.7 us).
    return OpStats(
        2 * rows * ed + 2 * rows + 2 * rows_kept * ed + nq * ed,  # flops
        nq * ed,  # divisions
        rows,  # exp_calls
        matrix_bytes + kept_bytes,  # bytes_read
        nq * ed * FLOAT_BYTES,  # bytes_written
        2 * nq * min(chunk_size, ns) * FLOAT_BYTES,  # intermediate_bytes
        rows_kept,  # rows_computed
        rows - rows_kept,  # rows_skipped
    )


def end_hop(u: np.ndarray, u_tile: np.ndarray, output: np.ndarray) -> None:
    """``u_{k+1} = u_k + o_k`` in NumPy, in place: add ``o`` into ``u``,
    the float64 hop state, and write ``u`` narrowed into ``u_tile``, the
    next score GEMM's operand (``u`` itself under float64).  The same
    IEEE operations, in the same order, as the compiled recurrence
    (:meth:`TileState.recur`); every pass that finalizes a partial ends
    an engine hop here."""
    np.add(u, output, out=u)
    if u_tile is not u:
        u_tile[...] = u


class ScanRecord:
    """One column scan's record, kept raw: ``output`` (``o``; on the
    compiled fold the state's buffer, valid until the solver's next
    scan), the scan's ``(nq, rows scanned, rows kept)``, the solver's
    ``(ed, chunk_size, dtype)`` and its chunk pipeline's ledger
    snapshot.  ``stats`` and :meth:`tier_stats` — what an
    :class:`InferenceResult` of the same pass carries — are built when
    read."""

    __slots__ = ("output", "nq", "rows", "kept", "column", "store")

    def __init__(
        self, output: np.ndarray | None, nq: int, rows: int, kept: int,
        column: tuple, store: StoreStats | None = None,
    ) -> None:  # fmt: skip
        self.output, self.nq, self.rows, self.kept = output, nq, rows, kept
        self.column, self.store = column, store

    @property
    def stats(self) -> OpStats:
        ed, chunk_size, dtype = self.column
        return column_op_stats(self.nq, self.rows, ed, self.kept, chunk_size, dtype)

    def tier_stats(self) -> dict:
        return {"shards": None, "store": self.store, "index": None}


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
        log_max: ``(nq,)`` normalization exponent, the running score
            maximum.
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

    Two folds implement it, and the tile's dtype picks one.  The
    compiled fold (``_fold.c``, loaded by
    :mod:`~repro.core.compiled_fold`) folds float32 tiles wherever the
    system C compiler could build it: one C loop per question row, the
    state in one float64 buffer allocated, and its pointers taken, at
    the first fold.  The NumPy fold folds float64 tiles — the reference
    precision — always, and float32 tiles where there is no library; it
    referees the compiled one in the tests.  The first fold
    *initialises* the state from its tile (nothing has been
    accumulated, so there is nothing to rescale); the
    NumPy fold's later folds rescale into it through ``(nq, ed)``
    ``out=`` workspaces that exist only once a second tile does.  No
    fold holds an ``(nq, n)`` float array of its own: the tile's score
    block is overwritten.

    Two precisions (DESIGN.md §10): a tile's arithmetic runs in the
    memory's dtype (``log_max`` is a score and keeps it); ``(denom,
    acc)``, carried across tiles, are float64.  The compiled fold sums
    each tile's exponentials in float64; the NumPy fold sums a float32
    tile in float32 — exact float64 values — and widens its state when
    a second tile arrives.

    Args:
        nq, ed: question count and embedding width (the shape of the
            merge identity a zero-tile scan returns).
        threshold: §3.2 zero-skipping threshold applied to every folded
            tile (0 keeps every row).
    """

    __slots__ = (
        "_shape", "_threshold", "rows_kept",
        "_log_max", "_denom", "_acc", "_fold_ws", "_kernel", "_compiled",
    )  # fmt: skip

    def __init__(self, nq: int, ed: int, threshold: float = 0.0) -> None:
        self._shape = (nq, ed)
        self._threshold = threshold
        #: Question-row pairs whose exponential survived zero-skipping.
        self.rows_kept = 0
        self._log_max = self._denom = self._acc = None
        # NumPy fold: from the second tile on, the ``(contrib, tile_max,
        # new_max)`` out= buffers of a rescaling fold.  Compiled fold:
        # a no-skip tile's ``(nq, ed)`` product, added by the next call.
        self._fold_ws = None
        # The compiled float32 fold's library (None: the NumPy fold), and
        # from a compiled first fold on ``(repro_fold, repro_hop,
        # repro_scan, FoldState, its address)``.
        self._kernel = compiled_fold.kernels()
        self._compiled = None

    def fold(self, scores: np.ndarray, tile_out: np.ndarray) -> None:
        """Fold one tile: ``scores`` is its ``(nq, n)`` raw score block,
        **overwritten** — it is the fold's only ``(nq, n)`` float array;
        ``tile_out`` its ``(n, ed)`` output-memory rows.

        On return every cell of ``scores`` holds its floored exponential
        under the running max, ``exp(max(s - log_max, exp_floor))`` in
        the tile dtype — or 0: where the compiled fold floored the
        shifted score (so no cell the weighted sum multiplies is below
        ``exp(exp_floor)``), and where zero-skipping dropped the cell
        and the NumPy fold took the dense readout (a narrow or dense
        tile).
        The compiled fold (:mod:`~repro.core.compiled_fold`) runs a
        float32 tile when it is available, the NumPy fold
        (``_fold_numpy``) a float64 tile and any tile otherwise; they
        agree to the tile dtype's rounding of ``exp`` and of the
        sums (float32: ``FLOAT32_LOGIT_TOLERANCE`` on logits).

        Zero-skipping decides on the exponentials it sums: a row is
        kept iff ``e >= min(th * S, 1)``, with ``S`` the running
        denominator including this tile (under the running max, like
        ``e``).  ``S`` never exceeds the final denominator, and the
        clamp only lowers the cut, so this skips a subset of what the
        exact rule (:func:`~repro.core.zero_skip.probability_mode_mask`)
        would."""
        if self._acc is None and self._kernel is not None:
            self._start_compiled(scores.dtype)
        if self._compiled is None:
            self._fold_numpy(scores, tile_out)
            return
        kernel, _, _, fold_state, address = self._compiled
        # The capsules stay referenced until the call returns: each owns
        # the struct its pointer addresses.  The kernel checks every array
        # against the state before it reads or writes one.
        capsules, at = compiled_fold.pair_structs(scores, tile_out)
        kept = kernel(address, *at)
        if kept < 0:
            raise ValueError(compiled_fold.FOLD_ERRORS[kept])
        if not self._threshold:
            # Max, exp and sum were C's; the dense weighted sum is BLAS's,
            # added into acc by the next compiled call.
            np.matmul(scores, tile_out, out=self._fold_ws)
            fold_state.pending = 1
        self.rows_kept += kept

    def _start_compiled(self, dtype: np.dtype) -> None:
        """Allocate the running state for the compiled fold (a float32
        tile's) and take its pointers, once."""
        if dtype != np.float32:
            return
        nq, ed = self._shape
        # One buffer, one pointer: denom, acc, then log_max (float32,
        # one float64 slot per question).  (A ctypes
        # buffer has a cheaper address but bypasses NumPy's small-block
        # cache: it left out_of_core_stream's peak RSS 3 MB higher.)
        state = np.zeros(nq * (ed + 2))
        self._denom = state[:nq]
        self._acc = state[nq : nq * (ed + 1)].reshape(nq, ed)
        self._log_max = state[nq * (ed + 1) :].view(dtype)[:nq]
        base = state.ctypes.data
        self._fold_ws = np.empty(self._shape, dtype)
        library = self._kernel
        fold_state = compiled_fold.FoldState(
            nq, ed, base, base + 8 * nq, base + 8 * nq * (ed + 1), self._threshold,
            float(exp_floor(dtype)), 0, self._fold_ws.ctypes.data, 0,
            ctypes.addressof(library.blas),
        )  # fmt: skip
        self._compiled = (
            library.repro_fold, library.repro_hop, library.repro_scan, fold_state,
            ctypes.addressof(fold_state),
        )  # fmt: skip

    def _fold_numpy(self, scores: np.ndarray, tile_out: np.ndarray) -> None:
        """The fold in NumPy passes (:meth:`fold`'s arguments): the
        reference the compiled fold is tested against, and the fold
        wherever it cannot be built.  A
        float32 tile's sums are float32 here, so its state widens to
        float64 when a second tile arrives; a narrow or dense tile
        under zero-skipping is masked in place and read out by a dense
        GEMM, a wide sparse one gathers its kept columns."""
        first = self._acc is None
        if first:
            self._log_max = scores.max(axis=1)
            scores -= self._log_max[:, None]
        else:
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

        if not self._threshold:
            # No mask to build, and no full ``(nq, n)`` product against
            # an all-ones one.
            self.rows_kept += exp_scores.size
        else:
            # ``min(th * S, 1)`` in float64, then into the tile dtype one
            # step toward zero: rounding the cut can keep a row the exact
            # product would drop, never the reverse.  The clamp keeps a
            # running-max row (``e = 1``) even when attention is too flat
            # for any row to reach ``th``, so no question's scan keeps
            # nothing.
            cut = np.minimum(
                np.multiply(self._denom, self._threshold, dtype=np.float64), 1.0
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

        if first:
            self._acc = np.matmul(exp_scores, tile_out)
        else:
            np.matmul(exp_scores, tile_out, out=contrib)
            self._acc += contrib

    def restart(self) -> "TileState":
        """This state, emptied for a new scan of the same shape.  The
        compiled fold keeps its buffer and ``FoldState``: its next fold
        is a first fold again, which initialises ``denom`` and ``acc``
        and sets ``log_max``.  A partial taken before stops being valid:
        it is a view of the buffer (DESIGN.md §10, "One fold state per
        solver")."""
        self.rows_kept = 0
        if self._compiled is None:
            self._log_max = self._denom = self._acc = self._fold_ws = None
        else:
            self._compiled[3].folded = 0
        return self

    def address(self) -> int:
        """The address of the compiled fold's ``FoldState``, the state
        started for float32 tiles if need be (see :meth:`scans`)."""
        if self._compiled is None:
            self._start_compiled(np.dtype(np.float32))
        return self._compiled[4]

    def scans(self, dtype: np.dtype) -> bool:
        """Whether :meth:`scan` runs here: the compiled fold, on
        ``dtype`` tiles."""
        return self._kernel is not None and dtype == np.float32

    def scan(self, plan: int, u_tile: np.ndarray, u=None, at=None) -> np.ndarray | None:
        """A new scan of this state over a tile plan, in one C call
        (``repro_scan``; see :meth:`scans`): ``plan`` the address of its
        :class:`~repro.core.compiled_fold.ScanPlan`, ``u_tile`` the
        C-ordered float32 questions.  With ``u``, their float64 hop state,
        the scan ends the hop as :meth:`recur` does and returns ``o``;
        ``at``: ``compiled_fold.pair_structs(u, u_tile)``'s pointers, taken
        by a caller once for all its hops."""
        address = self.address()
        if u is None:
            held = u_tile.__array_struct__
            at = (None, compiled_fold.struct_pointer(held, None))
        elif at is None:  # (the capsules outlive the call)
            held, at = compiled_fold.pair_structs(u, u_tile)
        kept = self._compiled[2](address, plan, at[1], at[0])
        if kept < 0:
            raise ValueError(compiled_fold.FOLD_ERRORS[kept])
        self.rows_kept = kept
        return None if u is None else self._acc

    def recur(self, u: np.ndarray, u_tile: np.ndarray, at=None) -> np.ndarray:
        """End a hop of ``u_{k+1} = u_k + o_k`` whose tiles are folded, in
        place: take the divide ``o = acc / denom``, add ``o`` into ``u``
        (the float64 hop state) and write ``u`` narrowed into ``u_tile``,
        the next GEMM's operand (``u`` itself under float64).  Returns
        ``o`` — on the compiled fold the state's ``acc``, valid until the
        next scan.  The compiled fold is one C call, refusing a bad ``u``
        or ``u_tile`` before any write; the NumPy fold runs
        :func:`end_hop`, the same IEEE operations.  ``at``: as
        :meth:`scan`'s."""
        if self._compiled is None:
            output = self.finalize()
            end_hop(u, u_tile, output)
            return output
        if at is None:  # (the capsules outlive the call)
            held, at = compiled_fold.pair_structs(u, u_tile)
        status = self._compiled[1](self._compiled[4], at[0], at[1])
        if status < 0:
            raise ValueError(compiled_fold.FOLD_ERRORS[status])
        return self._acc

    def partial(self) -> PartialOutput:
        """The folded state as a mergeable partial — the identity of
        :meth:`PartialOutput.merge` when no tile was folded.  Its arrays
        are the state's own, not copies."""
        if not self._folded():
            return PartialOutput.empty(*self._shape)
        self._add_pending()
        return PartialOutput(
            weighted=self._acc, denom=self._denom, log_max=self._log_max
        )

    def finalize(self) -> np.ndarray:
        """``partial().finalize()`` without the partial: one float64
        division into a new array, for an :class:`InferenceResult` (an
        engine hop ends with :meth:`recur`, which takes the same divide).
        A folded tile leaves every denominator positive (the running-max
        row adds ``exp(0)``), so only a scan that folded nothing meets
        the empty-denominator error."""
        if not self._folded():
            return self.partial().finalize()
        self._add_pending()
        return np.divide(self._acc, self._denom[:, None], dtype=np.float64)

    def _add_pending(self) -> None:
        """Add a pending threshold-0 weighted sum into ``acc``."""
        if self._compiled is not None and self._compiled[3].pending:
            self._acc += self._fold_ws
            self._compiled[3].pending = 0

    def _folded(self) -> bool:
        """Whether a tile was folded since the state was built or
        restarted."""
        if self._compiled is not None:
            return self._compiled[3].folded > 0
        return self._acc is not None


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
        self._store = memory_store(m_in, m_out, store, dtype)
        self.dtype = self._store.dtype
        self._single = self.dtype == np.float32
        #: What a :class:`ScanRecord` builds its counters from.
        self._column = (self._store.embedding_dim, self.chunk.chunk_size, self.dtype)
        #: :meth:`output`'s fold state per ``(nq, threshold)`` it has
        #: scanned with: as many as the distinct batch sizes it served.
        self._scans: dict[tuple[int, float], TileState] = {}
        #: The resident memory's tile plan (:meth:`_plan`; a chunk
        #: pipeline keeps its plans with the chunks they are cut from)
        #: and a bound memory's ``[[0, stop]]`` span (:meth:`repoint`).
        self._resident_plan: tuple | None = None
        self._rows: np.ndarray | None = None
        #: The one score workspace of every plan scan, with its capsule
        #: and pointer: as many rows as the largest batch scanned, as
        #: many columns as the widest tile.
        self._workspace: tuple | None = None
        #: Likewise the rows a tile over two row spans or more gathers
        #: its ``M_OUT`` rows into (:meth:`_span_plan`).
        self._gather: tuple | None = None
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
        m_in = self._store.m_in  # type: ignore[attr-defined]
        return m_in if self._rows is None else m_in[: self._rows[0, 1]]

    @property
    def m_out(self) -> np.ndarray:
        m_out = self._store.m_out  # type: ignore[attr-defined]
        return m_out if self._rows is None else m_out[: self._rows[0, 1]]

    @property
    def num_sentences(self) -> int:
        return self._store.num_rows if self._rows is None else int(self._rows[0, 1])

    @property
    def embedding_dim(self) -> int:
        return self._store.embedding_dim

    def repoint(
        self, m_in: np.ndarray, m_out: np.ndarray, rows: np.ndarray | None = None
    ) -> None:
        """Scan ``(m_in, m_out)`` from now on, keeping the fold states
        (DESIGN.md §10, "Solvers across writes"), and plan once for them.
        With ``rows`` — a C-ordered ``(1, 2)`` int64 ``[[0, stop]]`` its
        caller owns — the memory is *bound*: scans, records and
        :attr:`num_sentences` read rows ``[0, stop)`` of the whole arrays
        (an engine's append buffers), whatever ``stop`` is when they run,
        so a write that moves ``stop`` costs this kernel nothing.  Only a
        kernel without a chunk pipeline can: a pipeline's LRU and
        lookahead hold chunks of the old rows.  The arrays are taken as
        they are, unconverted and unchecked: an engine buffer's dtype and
        layout (feature-major ``M_IN``) are the solver's, fixed when the
        buffer was allocated."""
        if self._pipeline is not None:
            raise ValueError("a chunk pipeline cannot be re-pointed")
        store = self._store
        store.m_in, store.m_out = m_in, m_out
        self._rows, self._resident_plan = rows, None

    def close(self) -> None:
        """Join the chunk pipeline's fetch thread, if it started one.
        The store belongs to whoever passed it in.  Idempotent."""
        if self._pipeline is not None:
            self._pipeline.close()

    def output(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
        runs: np.ndarray | None = None,
        u_tile: np.ndarray | None = None,
        at: tuple | None = None,
    ) -> InferenceResult | ScanRecord:
        """Response vectors via the chunked lazy-softmax dataflow —
        over the whole memory, or over ``runs``: ``(r, 2)`` disjoint
        ``[start, stop)`` row spans of it, in scan order
        (:meth:`_span_plan`).

        With ``u_tile`` this is one hop of the engine's recurrence (the
        hop form every solver the engine holds takes): ``u`` is the
        ``(nq, ed)`` float64 hop state and ``u_tile`` its narrowing to
        the memory dtype, the score GEMM's operand; the scan ends in
        :meth:`TileState.recur`, advancing both in place (``at``: their
        pointers, as :meth:`TileState.scan` takes them), and the hop's
        :class:`ScanRecord` comes back.  Over a resident float32 memory,
        or its row spans, the hop is one C call (:meth:`_plan`)."""
        if u_tile is None:
            start = time.perf_counter()
            u = self.check_questions(u)
        key = (len(u), zero_skip.threshold if zero_skip else 0.0)
        # A state of this shape, restarted: it is divided out below,
        # before anything can see it.
        state = self._scans.get(key)
        if state is None:
            state = self._scans[key] = TileState(*u.shape, key[1])
        else:
            state.restart()
        if u_tile is not None:
            ns, output = self._scan(u_tile, state, runs, (u, at))
        else:
            ns, _ = self._scan(u, state, runs)
            output = state.finalize()
        pipeline = self._pipeline
        record = ScanRecord(
            output, len(u), ns, state.rows_kept, self._column,
            pipeline.stats.snapshot() if pipeline is not None else None,
        )  # fmt: skip
        if u_tile is not None:
            return record
        return InferenceResult(
            output, record.stats, elapsed_seconds=time.perf_counter() - start,
            store_stats=record.store,
        )  # fmt: skip

    def partial_output(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
        runs: np.ndarray | None = None,
    ) -> tuple[PartialOutput, OpStats]:
        """Run all chunks and return the mergeable partial state.

        This is the unit of work a scale-out deployment distributes:
        each worker calls :meth:`partial_output` on its shard and the
        coordinator merges and finalizes.  The partial is the caller's:
        no later scan writes into it.
        """
        u = self.check_questions(u)
        state = TileState(*u.shape, zero_skip.threshold if zero_skip else 0.0)
        ns, _ = self._scan(u, state, runs)
        record = ScanRecord(None, len(u), ns, state.rows_kept, self._column)
        return state.partial(), record.stats

    def compiled_hop(self, nq: int, threshold: float) -> tuple[int, int] | None:
        """``(FoldState, ScanPlan)`` addresses of a compiled
        ``nq``-question hop, the workspace ready: over the resident
        memory, or over the chunks a pipeline's resident tier holds (read
        without charging the ledger: the caller charges each pass it
        runs, ``ChunkPrefetcher.charge_pass``).  An engine's one-call
        answer (``repro_pass``) takes them once and scans with them until
        a :meth:`repoint` cuts a new plan or an eviction drops the chunks
        (a grown workspace is written into the plan, :meth:`_scores`).
        ``None`` where a hop is not one C call (a pipeline whose tier does
        not hold every chunk, the NumPy fold)."""
        plan = self._plan(charge=False)
        state = self._scans.get((nq, threshold))
        if state is None:
            state = TileState(nq, self.embedding_dim, threshold)
            self._scans[nq, threshold] = state
        if plan[3] is None or not state.scans(self.dtype):
            return None
        return state.address(), self._scan_plan(plan, nq)

    def _scan(
        self, u: np.ndarray, state: TileState, runs: np.ndarray | None,
        hop: tuple | None = None,
    ) -> tuple[int, np.ndarray | None]:
        """Fold ``u``'s scan into ``state``; the rows scanned and, for
        a ``hop`` — ``(float64 hop state, its pointers or None)``, ``u``
        its narrowing — the hop's ``o``, the hop ended."""
        plan = self._plan() if runs is None else self._span_plan(runs)
        ns = self.num_sentences if runs is None else plan[1]
        if plan[3] is not None and state.scans(u.dtype) and u.flags.c_contiguous:
            return ns, state.scan(self._scan_plan(plan, len(u)), u, *hop or ())
        for scores, tile_out in self._tiles(plan, u):
            state.fold(scores, tile_out)
        return ns, None if hop is None else state.recur(hop[0], u, at=hop[1])

    def _plan(self, charge: bool = True) -> tuple:
        """The tile plan of this memory's scans (DESIGN.md §10, "Tile
        plan"), ``(pieces, rows, widest tile, ScanPlan, capsules)``: its
        ``(M_IN, M_OUT, spans)`` pieces, whose spans (``None``: the whole
        piece) are packed into tiles of ``chunk_size`` columns as they
        are scanned, and for the compiled fold their
        :class:`~repro.core.compiled_fold.ScanPlan`.  The resident memory
        is one piece, planned until :meth:`repoint` (a bound one's span is
        the caller's ``[[0, stop]]``, read when scanned); behind a pipeline
        the pieces are the chunks its resident tier holds, planned until
        an eviction (``resident_pass`` charges the pass, if ``charge``),
        else the chunks it streams, read as they are scanned (no
        ``ScanPlan``)."""
        if self._pipeline is None:
            if self._resident_plan is None:
                store = self._store
                pieces = ((store.m_in, store.m_out, self._rows),)
                self._resident_plan = self._cut(pieces, resident=True)
            return self._resident_plan
        held = self._pipeline.resident_pass(charge)
        if held is None:
            pieces = ((*chunk, None) for chunk in self._pipeline.chunks())
            ns = self.num_sentences
            return pieces, ns, max(1, min(self.chunk.chunk_size, ns)), None, None
        pieces, plans = held
        plan = plans.get("plan")
        if plan is None:
            plan = plans["plan"] = self._cut([(*piece, None) for piece in pieces])
        return plan

    def _span_plan(self, runs: np.ndarray) -> tuple:
        """The plan of a scan over ``runs`` (see :meth:`output`): the
        memory as one piece with those spans, checked before any tile is
        scored; a tile over two spans or more has its ``M_OUT`` rows
        gathered into the solver's gather rows."""
        store, ns = self._store, self.num_sentences
        spans = np.ascontiguousarray(runs, dtype=np.int64)  # (C reads int64)
        if spans.shape[1:] != (2,) or not (
            (0 <= spans[:, 0]) & (spans[:, 0] <= spans[:, 1]) & (spans[:, 1] <= ns)
        ).all():
            raise ValueError(f"runs must be (r, 2) [start, stop) spans of {ns} rows")
        plan = self._cut(((store.m_in, store.m_out, spans),))
        if len(spans) > 1:
            if self._gather is None or len(self._gather[0]) < plan[2]:
                rows = np.empty((plan[2], self.embedding_dim), self.dtype)
                self._gather = (rows, *compiled_fold.structs([rows]))
            if plan[3] is not None:
                plan[3].gather = self._gather[2][0]
        return plan

    def _cut(self, pieces, resident: bool = False) -> tuple:
        """:meth:`_plan`'s plan of ``pieces``; the resident memory's one
        piece (``resident``) is cut once per :meth:`repoint`, its tiles
        as wide as its whole arrays allow, whatever its span's stop."""
        rows = [
            len(m_in) if spans is None or resident
            else int((spans[:, 1] - spans[:, 0]).sum())
            for m_in, _, spans in pieces
        ]
        width = max(1, min(self.chunk.chunk_size, max(rows, default=0)))
        if not self._single or compiled_fold.kernels() is None:
            return pieces, sum(rows), width, None, None
        held, at = compiled_fold.structs([a for piece in pieces for a in piece])
        memory = (ctypes.c_void_p * len(at))(*at)
        address = ctypes.addressof(memory)
        plan = compiled_fold.ScanPlan(len(pieces), self.chunk.chunk_size, address)
        return pieces, sum(rows), width, plan, (held, memory)

    def _scores(self, nq: int, width: int) -> tuple:
        """The score workspace, grown to at least ``(nq, width)``:
        ``(array, capsule, pointer)``.  A grown one is written at once,
        whichever scan grew it, into the ``ScanPlan`` an engine's one-call
        answer may hold the address of (:meth:`compiled_hop`): the
        resident plan, or the one cut from the chunks a pipeline's tier
        holds."""
        held, nq = self._workspace, max(nq, 1)  # (no zero-size array: zero strides)
        if held is None or nq > held[0].shape[0] or width > held[0].shape[1]:
            if held is not None:
                nq, width = max(nq, held[0].shape[0]), max(width, held[0].shape[1])
            workspace = np.empty((nq, width), self.dtype)
            capsule = workspace.__array_struct__
            held = self._workspace = (
                workspace, capsule, compiled_fold.struct_pointer(capsule, None)
            )
            plan = self._resident_plan
            if self._pipeline is not None:
                chunks = self._pipeline.resident_pass(charge=False)
                plan = chunks and chunks[1].get("plan")
            if plan is not None and plan[3] is not None:
                plan[3].scores = held[2]
        return held

    def _scan_plan(self, plan: tuple, nq: int) -> int:
        """The address of ``plan``'s ``ScanPlan``, its workspace ready
        for ``nq`` questions."""
        plan[3].scores = self._scores(nq, plan[2])[2]
        return ctypes.addressof(plan[3])

    def _tiles(self, plan: tuple, u: np.ndarray):
        """``plan``'s tiles ``(u @ M_IN.T, M_OUT)`` in scan order, as
        ``repro_scan`` walks them: each span's product written into its
        columns of the one workspace, and the ``M_OUT`` rows of a tile
        over two spans or more gathered."""
        nq, c = len(u), self.chunk.chunk_size
        workspace = self._scores(nq, plan[2])[0][:nq]

        def tile(n, taken):
            if len(taken) > 1:
                taken = [np.concatenate(taken, out=self._gather[0][:n])]
            return workspace[:, :n], taken[0]

        for m_in, m_out, spans in plan[0]:
            n, taken = 0, []
            for start, stop in ((0, len(m_in)),) if spans is None else spans.tolist():
                while start < stop:
                    end = min(stop, start + c - n)
                    scores = workspace[:, n : n + end - start]
                    np.matmul(u, m_in[start:end].T, out=scores)
                    taken.append(m_out[start:end])
                    n, start = n + end - start, end
                    if n == c:
                        yield tile(n, taken)
                        n, taken = 0, []
            if n:
                yield tile(n, taken)

    def scored_tiles(self, u: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Tile source -> score GEMM: ``(u @ chunk_in.T, chunk_out)``
        for every chunk of the memory, in row order.

        ``u`` must already be checked (:meth:`check_questions`).  The
        tiles are the tile plan's (:meth:`_plan`), and every tile's score
        array is a view of the solver's one workspace, so a yielded
        ``scores`` is only valid until the next tile is drawn — and is
        always the consumer's to overwrite (:meth:`TileState.fold`
        exponentiates it in place).
        """
        yield from self._tiles(self._plan(), u)

    def check_questions(self, u: np.ndarray) -> np.ndarray:
        """``u`` as an ``(nq, ed)`` array of the memory's dtype."""
        return check_questions(u, self.dtype, self.embedding_dim)


def merge_partials(partials: Sequence[PartialOutput]) -> PartialOutput:
    """Merge worker partials into one (the coordinator's reduce step)."""
    if not partials:
        raise ValueError("need at least one partial to merge")
    merged = partials[0]
    for partial in partials[1:]:
        merged = merged.merge(partial)
    return merged
