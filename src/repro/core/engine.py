"""MnnFastEngine — the public end-to-end inference facade.

Ties the pieces of Fig. 2 together: BoW embedding of stories and
questions, the input/output memory representations (via either the
baseline or the column-based algorithm), multi-hop iteration, and the
final fully-connected answer layer.

The engine is deliberately *deployment-shaped*: stories are appended
incrementally (as in the FPGA design of Fig. 8), questions arrive in
batches, and an optional embedding cache can be attached to the
question-embedding path to model (and measure) §3.3's dedicated cache.
"""

from __future__ import annotations

import ctypes
import functools
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict

import numpy as np

from ..store.base import feature_major
from ..store.mmap_store import MmapStore
from .baseline import BaselineMemNN
from .cache import VectorCache
from . import compiled_fold
from .column import ColumnMemNN, ScanRecord
from .config import EngineConfig, MemNNConfig
from .early_exit import (
    EXIT_CONFIDENCE,
    EXIT_FULL_DEPTH,
    AnswerLayer,
    HopTrace,
    logit_margin_confidence,
)
from .sharded import ShardedMemNN

if TYPE_CHECKING:
    from ..index.topk import TopKMemNN
from .numerics import BAD_WORD, PAD_ID, BowEmbedder, position_encoding, softmax
from .stats import OpStats

__all__ = [
    "MnnFastEngine",
    "EngineWeights",
    "AnswerResult",
    "BatchAnswer",
    "HopTrace",
    "VectorCache",
]


#: First capacity of an append buffer: a bAbI story (<= 50 sentences)
#: told sentence by sentence reallocates once, not at 1, 2, 4, ... rows.
_MIN_BUFFER_ROWS = 64

#: Spare rows at the end of each feature column of an ``M_IN`` buffer
#: whose column stride would be a multiple of 4 KiB: at 8 192 float32
#: rows (32 KiB) OpenBLAS's sgemm over the tiles runs ~20 % slower
#: (DESIGN.md §10).
_M_IN_PAD_ROWS = 16


def _feature_major_buffer(rows: int, width: int, dtype: np.dtype) -> np.ndarray:
    """An uninitialised ``(rows, width)`` feature-major buffer, its
    column stride padded off a multiple of 4 KiB.  A padded buffer is
    the ``base`` of the views cut from it, as an unpadded one is, so
    ``len(view.base)`` is the capacity either way."""
    if rows * dtype.itemsize % 4096:
        return np.empty((rows, width), dtype, order="F")
    column = rows + _M_IN_PAD_ROWS
    storage = np.empty(column * width, dtype)
    return np.lib.stride_tricks.as_strided(
        storage, (rows, width), (dtype.itemsize, column * dtype.itemsize)
    )


def _readonly(view: np.ndarray) -> np.ndarray:
    """Clear the writeable flag of a view the caller just made."""
    view.setflags(write=False)
    return view


@functools.lru_cache(maxsize=None)
def _empty_pair(width: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """A read-only ``(0, width)`` ``(M_IN, M_OUT)`` pair — ``M_IN``
    feature-major — for :meth:`MnnFastEngine.clear_memories` to install."""
    m_in = _readonly(np.empty((0, width), dtype, order="F"))
    return m_in, _readonly(np.empty((0, width), dtype))


@dataclass
class EngineWeights:
    """Model parameters used by the engine.

    Two tying schemes are supported (matching Sukhbaatar et al.):

    * **layer-wise** (default): one ``(A, C)`` embedding pair reused by
      every hop — construct directly with ``embedding_a`` /
      ``embedding_c`` / ``answer_weight``.
    * **adjacent**: per-hop tables ``E_0 .. E_K`` with ``A_k = E_{k-1}``,
      ``C_k = E_k``, question embedding ``B = E_0`` and answer matrix
      ``W^T = E_K`` — construct with :meth:`adjacent`.

    Attributes:
        embedding_a: ``(V, ed)`` question/input embedding matrix (A/B).
        embedding_c: ``(V, ed)`` output embedding matrix (C).
        answer_weight: ``(num_answers, ed)`` final FC layer ``W``.
        hop_tables: adjacent-tying tables ``E_0 .. E_K`` (None for
            layer-wise tying).
    """

    embedding_a: np.ndarray
    embedding_c: np.ndarray
    answer_weight: np.ndarray
    hop_tables: list[np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.embedding_a.shape != self.embedding_c.shape:
            raise ValueError("A and C embedding matrices must share a shape")
        if self.answer_weight.shape[1] != self.embedding_a.shape[1]:
            raise ValueError("answer weight width must equal the embedding dim")
        # The pad row must embed to zero for BoW masking to be exact.
        self.embedding_a = np.array(self.embedding_a, dtype=np.float64)
        self.embedding_c = np.array(self.embedding_c, dtype=np.float64)
        # Column-major, so the answer layer's ``u @ W.T`` reads a
        # row-contiguous ``(ed, num_answers)`` operand: a batch of a few
        # questions is bound by streaming W, and BLAS streams the
        # contiguous form ~1.5x faster than the transposed one.
        self.answer_weight = np.array(
            self.answer_weight, dtype=np.float64, order="F"
        )
        self.embedding_a[PAD_ID] = 0.0
        self.embedding_c[PAD_ID] = 0.0
        if self.hop_tables is not None:
            if len(self.hop_tables) < 2:
                raise ValueError("adjacent tying needs at least E_0 and E_1")
            tables = []
            for table in self.hop_tables:
                if table.shape != self.embedding_a.shape:
                    raise ValueError("all hop tables must share the A/C shape")
                table = np.array(table, dtype=np.float64)
                table[PAD_ID] = 0.0
                tables.append(table)
            self.hop_tables = tables

    @classmethod
    def adjacent(cls, tables: list[np.ndarray]) -> "EngineWeights":
        """Adjacent-tied weights from the tables ``E_0 .. E_K``."""
        if len(tables) < 2:
            raise ValueError("adjacent tying needs at least E_0 and E_1")
        return cls(
            embedding_a=tables[0],
            embedding_c=tables[1],
            answer_weight=tables[-1],
            hop_tables=list(tables),
        )

    @property
    def num_hops(self) -> int:
        """Hops this weight set serves exactly (adjacent tying), or 0
        for layer-wise weights (any hop count)."""
        return len(self.hop_tables) - 1 if self.hop_tables is not None else 0

    def hop_pair(self, hop: int, total_hops: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(A_k, C_k)`` embedding pair for hop ``hop`` (0-based)."""
        if self.hop_tables is None:
            return self.embedding_a, self.embedding_c
        if total_hops != self.num_hops:
            raise ValueError(
                f"adjacent weights serve exactly {self.num_hops} hops, "
                f"engine configured for {total_hops}"
            )
        return self.hop_tables[hop], self.hop_tables[hop + 1]

    @classmethod
    def random(
        cls,
        config: MemNNConfig,
        num_answers: int | None = None,
        rng: np.random.Generator | None = None,
        scale: float = 0.1,
    ) -> "EngineWeights":
        """Gaussian-initialized weights (the paper's N(0, 0.1) style)."""
        rng = rng if rng is not None else np.random.default_rng(0)
        num_answers = num_answers if num_answers is not None else config.vocab_size
        shape = (config.vocab_size, config.embedding_dim)
        return cls(
            embedding_a=rng.normal(0.0, scale, shape),
            embedding_c=rng.normal(0.0, scale, shape),
            answer_weight=rng.normal(0.0, scale, (num_answers, config.embedding_dim)),
        )


class _Record:
    """An :class:`AnswerResult` record built on first read, then kept as
    an instance attribute (which later reads find first).
    ``functools.cached_property`` does the same under a lock on Python
    < 3.12: ~2 µs a record, as much as building one."""

    def __init__(self, build: Callable[[Any], Any]) -> None:
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, result: Any, owner: type | None = None) -> Any:
        if result is None:
            return self
        value = result.__dict__[self.name] = self.build(result)
        return value


class AnswerResult:
    """Answers for one question batch.

    Attributes:
        answer_ids: ``(nq,)`` argmax answer token IDs.
        logits: ``(nq, num_answers)`` pre-softmax scores.
        answer_probabilities: ``(nq, num_answers)`` softmax over answers
            — a property computed from ``logits`` on first read (the
            serving path takes the argmax and never reads it).
        response: ``(nq, ed)`` final response vector (o + u of last hop).
        stats: aggregated operation counters across hops.
        hop_stats: per-hop operation counters, in hop order — the
            request-lifecycle observability hook the serving trace
            consumes (``stats`` is their sum plus the answer layer).
        hop_trace: what the confidence gate did — per-question
            ``hops_run``, exit reasons and per-check confidence
            (:class:`~repro.core.early_exit.HopTrace`; present on every
            pass, trivially full-depth when the gate is disabled).
            Prefer ``tier_stats()["hops"]``.
        cache_hits: embedding-cache hits while embedding the questions.
        cache_misses: embedding-cache misses.
        elapsed_seconds: measured wall-clock time of the end-to-end
            answer pass (``time.perf_counter``) — the *measured*
            counterpart to the modeled time :mod:`repro.perf` derives
            from ``stats``.  On per-question views of a batched pass
            this is the fair ``1/nq`` share of the batch wall-clock
            (mirroring :meth:`~repro.core.stats.OpStats.amortized`).

    The records — ``stats``, ``hop_stats``, ``tier_stats()`` (the one
    read surface of the per-hop shard, store and index statistics) and
    ``hop_trace`` — are built on first read from each hop's record (a
    :class:`~repro.core.column.ScanRecord`, or the
    :class:`~repro.core.results.InferenceResult` of a pass that builds
    one; both answer ``stats`` and ``tier_stats()``).  An answer nobody
    inspects pays for none of them; every counter has the value the pass
    produced.  (The per-question views of a batch are given theirs.)
    """

    def __init__(
        self,
        answer_ids: np.ndarray,
        logits: np.ndarray,
        response: np.ndarray,
        cache_hits: int = 0,
        cache_misses: int = 0,
        elapsed_seconds: float = 0.0,
        ledger: tuple | None = None,
        **records: Any,
    ) -> None:
        self.answer_ids, self.logits, self.response = answer_ids, logits, response
        self.cache_hits, self.cache_misses = cache_hits, cache_misses
        self.elapsed_seconds = elapsed_seconds
        # answer()'s (hop records, ed, answers, checks, projected, trace).
        self._ledger = ledger
        # Given records shadow the properties below.
        self.__dict__.update(records)

    @functools.cached_property
    def answer_probabilities(self) -> np.ndarray:
        return softmax(self.logits)

    @_Record
    def _hops(self) -> list:
        """The hops' records (the one-call pass hands them over unbuilt)."""
        return list(self._ledger[0])

    @_Record
    def hop_stats(self) -> list[OpStats]:
        return [hop.stats for hop in self._hops]

    @_Record
    def stats(self) -> OpStats:
        """The hops' sum, plus each gate check (extrapolation, answer
        GEMM, softmax) and the answer layer."""
        total = OpStats()
        for stats in self.hop_stats:
            total.accumulate(stats)
        _, ed, answers, checks, projected, _ = self._ledger
        for nq in checks:
            total.flops += 2 * nq * ed + 2 * nq * answers * ed
            total.exp_calls += nq * answers
        total.flops += 2 * projected * answers * ed
        return total

    @_Record
    def _tiers(self) -> tuple[list, list, list]:
        """Per hop: shard counters (empty off the sharded path), store
        ledger and index statistics (``None`` where the tier did not
        run)."""
        tiers = [hop.tier_stats() for hop in self._hops]
        return (
            [list(tier["shards"] or ()) for tier in tiers],
            [tier["store"] for tier in tiers],
            [tier["index"] for tier in tiers],
        )

    @_Record
    def hop_trace(self) -> HopTrace:
        threshold, hops, nq, hops_run, confidences = self._ledger[5]
        if hops_run is None:
            return HopTrace.full_depth(nq, hops, threshold=threshold)
        # Only the gate retires a question before the last hop.
        exits = np.where(hops_run < hops, EXIT_CONFIDENCE, EXIT_FULL_DEPTH)
        return HopTrace(threshold, hops, hops_run, exits.tolist(), confidences)

    def tier_stats(self) -> Dict[str, Any]:
        """Per-tier statistics of this answer pass, one key per tier.

        Returns:
            ``{"shards": list[list[OpStats]], "store":
            list[StoreStats | None], "index": list[IndexStats | None],
            "hops": HopTrace | None}`` — shard/store/index values
            indexed by *executed* hop (shard lists empty and
            store/index entries ``None`` on hops where that tier did
            not run); ``"hops"`` is the confidence-gate record
            (per-question depth, exit reasons, per-check confidence).
        """
        shards, store, index = self._tiers
        return {"shards": shards, "store": store, "index": index,
                "hops": self.hop_trace}  # fmt: skip


@dataclass
class BatchAnswer:
    """Result of one *batched* engine pass over ``nq`` questions.

    The batch is the unit the column dataflow amortizes over: all hops
    run on the full ``nq x ed`` question matrix, so ``M_IN``/``M_OUT``
    stream from memory once for the whole batch while compute scales
    per question.  ``batch.stats`` records that amortized traffic;
    ``results`` re-slices the same numbers into one
    :class:`AnswerResult` per question (each carrying a fair
    per-question :meth:`~repro.core.stats.OpStats.amortized` share of
    the counters, so summing them never double-counts the stream).

    Attributes:
        batch: the whole-batch :class:`AnswerResult` — its ``stats``
            are the batch-level ground truth (memory streamed once).
        results: per-question :class:`AnswerResult` views in question
            order, built on first read; numerically identical to
            answering each question alone (the lazy softmax is
            row-independent), with amortized per-question counters.
            Embedding-cache counters live on ``batch`` (hits depend on
            batch order, so a per-question split would be arbitrary).
    """

    batch: AnswerResult

    @functools.cached_property
    def results(self) -> list[AnswerResult]:
        # Built on first read: the serving path takes ``answer_ids``
        # off the batch and never asks for the per-question views.
        batch = self.batch
        nq = self.batch_size
        batch_tiers = batch.tier_stats()
        share = batch.stats.amortized(nq)
        hop_share = [stats.amortized(nq) for stats in batch.hop_stats]
        shard_share = [
            [stats.amortized(nq) for stats in shard_stats]
            for shard_stats in batch_tiers["shards"]
        ]
        return [
            AnswerResult(
                answer_ids=batch.answer_ids[i : i + 1],
                logits=batch.logits[i : i + 1],
                response=batch.response[i : i + 1],
                stats=share,
                hop_stats=hop_share,
                # Store ledgers and index probes are batch-scoped (one
                # stream / one candidate set for the whole batch), so
                # the per-question views share them rather than split.
                _tiers=(shard_share, batch_tiers["store"], batch_tiers["index"]),
                # The gate record slices cleanly: each view carries its
                # own hops_run / exit reason / confidence trajectory.
                hop_trace=(
                    batch.hop_trace.question(i)
                    if batch.hop_trace is not None
                    else None
                ),
                elapsed_seconds=batch.elapsed_seconds / nq,
            )
            for i in range(nq)
        ]

    @property
    def batch_size(self) -> int:
        return len(self.batch.answer_ids)

    @property
    def stats(self) -> OpStats:
        """Batch-level counters (the amortized memory traffic)."""
        return self.batch.stats

    @property
    def answer_ids(self) -> np.ndarray:
        return self.batch.answer_ids

    @property
    def amortized_bytes_per_question(self) -> float:
        """Memory-matrix bytes each question effectively paid for."""
        return self.batch.stats.bytes_read / max(1, self.batch_size)

    @property
    def hop_trace(self) -> HopTrace | None:
        """The batch's confidence-gate record (ragged depth across
        members lives here; per-question views carry their slice)."""
        return self.batch.hop_trace

    @property
    def hops_run(self) -> np.ndarray:
        """``(nq,)`` hops each member actually ran."""
        trace = self.batch.hop_trace
        if trace is None:  # pragma: no cover — answer() always emits one
            return np.full(self.batch_size, 0, dtype=np.intp)
        return trace.hops_run


class MnnFastEngine:
    """End-to-end MemNN inference with the MnnFast optimizations.

    Args:
        config: network shape.
        weights: model parameters; random by default.
        engine_config: which optimizations to apply
            (:meth:`EngineConfig.baseline` /
            :meth:`EngineConfig.mnnfast` / custom).
        use_position_encoding: apply Sukhbaatar-style position
            encoding to sentence embeddings.
    """

    def __init__(
        self,
        config: MemNNConfig,
        weights: EngineWeights | None = None,
        engine_config: EngineConfig | None = None,
        use_position_encoding: bool = False,
    ) -> None:
        self.config = config
        self.weights = (
            weights if weights is not None else EngineWeights.random(config)
        )
        if self.weights.embedding_a.shape[0] != config.vocab_size:
            raise ValueError(
                "weights vocabulary does not match config: "
                f"{self.weights.embedding_a.shape[0]} vs {config.vocab_size}"
            )
        if self.weights.embedding_a.shape[1] != config.embedding_dim:
            raise ValueError(
                "weights embedding dim does not match config: "
                f"{self.weights.embedding_a.shape[1]} vs {config.embedding_dim}"
            )
        self.engine_config = (
            engine_config if engine_config is not None else EngineConfig()
        )
        self._encoding = (
            position_encoding(config.max_words, config.embedding_dim)
            if use_position_encoding
            else None
        )
        # One (M_IN, M_OUT) pair per hop under adjacent tying; a single
        # shared pair under layer-wise tying.
        self._num_pairs = (
            self.weights.num_hops if self.weights.hop_tables is not None else 1
        )
        if self.weights.hop_tables is not None and (
            self.weights.num_hops != config.hops
        ):
            raise ValueError(
                f"adjacent weights serve {self.weights.num_hops} hops, "
                f"config asks for {config.hops}"
            )
        # The embeddings of a stored sentence — under every memory
        # pair's ``(A_k, C_k)``, in pair order — and of a question (under
        # ``A``), their dictionaries checked and pointed at once.
        self._story_bow = BowEmbedder(
            [
                table
                for pair_index in range(self._num_pairs)
                for table in self.weights.hop_pair(pair_index, config.hops)
            ],
            self._encoding,
        )
        self._question_bow = BowEmbedder([self.weights.embedding_a], self._encoding)
        # Lazily-created spill directory for the mmap store backend
        # (used when the engine config asks for out-of-core memories
        # without naming a path).
        self._spill_tmp: tempfile.TemporaryDirectory | None = None
        #: Stores spilled for the cached solvers; closed with them.
        self._spilled: list[MmapStore] = []
        self._solver_cache_config = self.engine_config
        self._solver_cache: dict[int, BaselineMemNN | ColumnMemNN | ShardedMemNN] = {}
        #: The one-call answers held per batch size (:meth:`_answer_pass`;
        #: ``False``: the hop loop runs), dropped with the solvers and ``W``.
        self._passes: dict[int, tuple | bool] = {}
        #: Whether a cached solver is one a write drops (not bound).
        self._write_drops = False
        #: The stored rows: ``[[0, count]]`` of every pair's whole arrays,
        #: the one span every bound solver reads (DESIGN.md §10).
        self._rows = np.zeros((1, 2), np.int64)
        self._capacity = 0
        # Here, not on first use: DESIGN.md §10, "Where the copy of W is made".
        self._cast_answer_weight()
        self.clear_memories()

    # --- memory management ---------------------------------------------------

    @property
    def num_stored_sentences(self) -> int:
        return int(self._rows[0, 1])

    @property
    def memories(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the first hop's (M_IN, M_OUT) — the one
        resident copy: solvers and spills use these rows unconverted.
        ``M_IN`` is feature-major (``strides[0] == itemsize``, DESIGN.md
        §10), ``M_OUT`` row-major; both index as ``(ns, ed)``.  A view
        handed out here never changes: the next :meth:`clear_memories`
        leaves the buffers it views to it."""
        self._handed_out = True
        return self._memories[0]

    @property
    def _memories(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every pair's stored rows, cut from its whole arrays when read
        (the whole arrays themselves when every row is stored)."""
        count, whole = self._rows[0, 1], self._whole
        if count == len(whole[0][0]):
            return whole
        return [(m_in[:count], m_out[:count]) for m_in, m_out in whole]

    @property
    def _dtype(self) -> np.dtype:
        """Storage dtype of the memories (``ExecutionConfig.dtype``)."""
        return np.dtype(self.engine_config.execution.dtype)

    @property
    def answer_layer(self) -> AnswerLayer:
        """``W`` as the engine multiplies it, in the storage dtype
        (holding ``weights.answer_weight`` itself under float64).  Made
        at construction and on a ``dtype`` swap, again on first use
        after :meth:`close` dropped it (DESIGN.md §10)."""
        if self._answer_layer is None:
            return self._cast_answer_weight()
        return self._answer_layer

    def _cast_answer_weight(self) -> AnswerLayer:
        self._answer_layer = AnswerLayer(self.weights.answer_weight, self._dtype)
        self._passes = {}
        return self._answer_layer

    def store_story(self, sentences: np.ndarray) -> None:
        """Embed story sentences and append them to M_IN / M_OUT
        (every hop's pair under adjacent tying).

        The rows land in engine-owned append buffers (grown
        geometrically up to ``config.num_sentences``), so ingesting a
        story sentence by sentence copies each row O(1) times.  A bag
        sum is accumulated in float64 and rounded once, into its row.
        A write that fits the buffers embeds in one compiled call per
        memory pair and moves the stored-row count, which every bound
        solver reads: nothing else.

        Args:
            sentences: ``(n, nw)`` padded word IDs.
        """
        sentences = self._check_sentences(sentences)
        if self._solver_cache_config is not self.engine_config:
            self._sync_config()
        stored = self.num_stored_sentences
        end = stored + len(sentences)
        if end > self.config.num_sentences:
            raise ValueError(
                "story overflows the configured memory: "
                f"{stored} + {len(sentences)} > {self.config.num_sentences}"
            )
        if end == stored:
            return
        if end > self._capacity:
            self._reserve(end)
        buffers, bound = self._bound
        self._story_bow(sentences, buffers, stored, bound)
        self._rows[0, 1] = end
        if self._write_drops:
            self._invalidate_solvers()

    def _reserve(self, rows: int) -> None:
        """New append buffers with room for ``rows`` rows each (the
        capacity at least doubles), holding a copy of the stored rows,
        one matrix at a time; the old ones are never written again, and
        no view of the new ones is handed out yet."""
        capacity = min(
            max(rows, 2 * self._capacity, _MIN_BUFFER_ROWS), self.config.num_sentences
        )
        shape = (capacity, self.config.embedding_dim)
        buffers = []
        for pair in self._memories:
            for slot, stored in enumerate(pair):
                # M_IN (slot 0) is feature-major (DESIGN.md §10).
                grown = (
                    np.empty(shape, self._dtype)
                    if slot
                    else _feature_major_buffer(*shape, self._dtype)
                )
                grown[: len(stored)] = stored
                buffers.append(grown)
        readable = [_readonly(buffer.view()) for buffer in buffers]
        self._capacity, self._handed_out = capacity, False
        self._buffers = list(zip(buffers[::2], buffers[1::2]))
        self._whole = list(zip(readable[::2], readable[1::2]))
        self._bound = (buffers, compiled_fold.structs(buffers))
        self._memories_written(moved=True)

    def set_memories(self, m_in: np.ndarray, m_out: np.ndarray) -> None:
        """Install pre-embedded memories directly (§4.1.1: the knowledge
        database is usually prepared offline in internal format).

        Only meaningful under layer-wise tying, where one memory pair
        serves every hop.  The arrays are read, never written: a later
        :meth:`store_story` copies them into an engine-owned buffer.
        Arrays of another dtype are converted to the storage dtype, and
        a row-major ``m_in`` to feature-major, once, here.
        """
        if self._num_pairs != 1:
            raise ValueError(
                "set_memories requires layer-wise weights; adjacent tying "
                "stores one embedded pair per hop (use store_story)"
            )
        m_in = feature_major(m_in, self._dtype)
        m_out = np.asarray(m_out, dtype=self._dtype)
        if m_in.shape != m_out.shape or m_in.ndim != 2:
            raise ValueError("memories must be equal-shaped 2-D arrays")
        if m_in.shape[1] != self.config.embedding_dim:
            raise ValueError(
                f"memory width {m_in.shape[1]} != ed {self.config.embedding_dim}"
            )
        self._install([(_readonly(m_in.view()), _readonly(m_out.view()))])

    def clear_memories(self) -> None:
        """Forget every stored row.  The append buffers stay, for the
        next write to fill from row 0 — unless :attr:`memories` handed
        out a view of them since they were allocated: then (and when the
        engine owns no buffers) the memories become one cached empty
        read-only pair, and the next write allocates, so no view handed
        out ever changes (DESIGN.md §10, "Solvers across writes")."""
        if self._capacity and not self._handed_out:
            self._rows[0, 1] = 0
            self._memories_written()
            return
        m_in, m_out = _empty_pair(self.config.embedding_dim, self._dtype)
        self._install([(m_in, m_out)] * self._num_pairs)

    def _install(self, memories: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Replace the memories with whole arrays the engine does not
        own: the append buffers restart at zero capacity, so the next
        :meth:`store_story` allocates fresh ones and neither writes
        into ``memories`` nor shows through views handed out earlier."""
        self._whole = memories
        self._rows[0, 1] = len(memories[0][0])
        self._capacity = 0
        self._buffers, self._bound = [], None
        self._memories_written(moved=True)

    def _sync_config(self) -> None:
        """``engine_config`` was swapped: the cached solvers go, and
        rows stored in another ``dtype`` are re-cast, once (rows stored
        as float32 do not regain precision by being widened; ``W`` is
        re-cast from the float64 weights)."""
        self._solver_cache_config = self.engine_config
        self._cast_answer_weight()
        self._invalidate_solvers()
        self._install([
            tuple(_readonly(m.astype(self._dtype, copy=False)) for m in pair)
            for pair in self._memories
        ])

    def _memories_written(self, moved: bool = False) -> None:
        """The memories changed under the cached solvers.  Plain
        resident column kernels (no chunk pipeline) are bound to the
        whole arrays and the stored-row span, and keep their plan and
        fold states; only where the arrays themselves ``moved`` are they
        re-pointed, which cuts new plans and so drops the held one-call
        answers (:meth:`_answer_pass`).  Every other solver holds
        something made from the old rows — a spill, a chunk LRU, a worker
        pool, a shard plan, an index — and is dropped, as all are under a
        swapped config (DESIGN.md §10, "Solvers across writes")."""
        if self._write_drops or self._solver_cache_config is not self.engine_config:
            self._invalidate_solvers()
        elif moved:
            for pair_index, solver in self._solver_cache.items():
                solver.repoint(*self._whole[pair_index], self._rows)
            self._passes = {}

    def _invalidate_solvers(self) -> None:
        """Drop the solver cache, releasing backend resources first.

        Process-backed solvers own a worker pool and possibly a
        spilled temp store, out-of-core ones a fetch thread; simply
        forgetting them would leave teardown to GC timing, so
        invalidation closes every cached solver that exposes
        ``close()`` before emptying the cache, then the descriptors of
        the stores the engine spilled for them.
        """
        for solver in self._solver_cache.values():
            close = getattr(solver, "close", None)
            if close is not None:
                close()
        while self._spilled:
            self._spilled.pop().close()
        self._solver_cache = {}
        self._passes = {}
        self._write_drops = False

    def close(self) -> None:
        """Release engine-held resources: cached solvers (worker
        pools, self-spilled stores), the cast ``W`` and the engine's own
        spill directory.  The engine stays usable — the next answer pass
        rebuilds them (and re-spills) on demand.  Idempotent."""
        self._invalidate_solvers()
        self._answer_layer = None
        spill, self._spill_tmp = self._spill_tmp, None
        if spill is not None:
            spill.cleanup()

    # --- question path -------------------------------------------------------

    def embed_question(
        self,
        questions: np.ndarray,
        cache: VectorCache | None = None,
    ) -> tuple[np.ndarray, int, int]:
        """Embed raw question word IDs into state vectors ``u``.

        Questions arrive as raw bag-of-words (§4.1.1); each word's
        vector is fetched through the embedding cache when one is
        attached, modelling §3.3.

        Returns:
            ``(u, cache_hits, cache_misses)``.
        """
        questions = self._check_sentences(questions)
        if cache is None:
            u = np.empty((len(questions), self.config.embedding_dim))
            self._question_bow(questions, [u])
            return u, 0, 0

        hits = misses = 0
        u = np.zeros((len(questions), self.config.embedding_dim))
        for row, sentence in enumerate(questions):
            for pos, word_id in enumerate(sentence):
                if word_id == PAD_ID:
                    continue
                vector = cache.lookup(int(word_id))
                if vector is None:
                    misses += 1
                    vector = self.weights.embedding_a[word_id]
                    cache.insert(int(word_id), vector)
                else:
                    hits += 1
                if self._encoding is not None:
                    vector = vector * self._encoding[pos]
                u[row] += vector
        return u, hits, misses

    def answer(
        self,
        questions: np.ndarray,
        cache: VectorCache | None = None,
        hop_hook: Callable[[int, OpStats], None] | None = None,
    ) -> AnswerResult:
        """Answer a batch of raw (word-ID) questions end-to-end.

        When the engine config enables confidence-gated early exit
        (:meth:`EngineConfig.with_early_exit`), questions that clear
        the gate after a hop are *retired* from the question matrix:
        the remaining hops run a shrinking ``nq x ed`` GEMM over the
        survivors only.  Every step of every dataflow is
        row-independent over the question axis, so the survivors'
        numbers are unchanged by the retirement, and the per-question
        outcome (``hops_run``, exit reason, per-check confidence) is
        recorded in ``tier_stats()["hops"]``.  At threshold 0 the gate
        is disabled and this method is bit-identical to the historical
        full-depth path.

        Args:
            questions: ``(nq, nw)`` raw word IDs.
            cache: optional embedding cache on the question path (§3.3).
            hop_hook: called as ``hop_hook(hop, stats)`` after each hop
                with that hop's operation counters — the per-hop
                observability hook the serving trace builds on.
        """
        start_time = time.perf_counter()
        if self.num_stored_sentences == 0:
            raise ValueError("no story stored: call store_story/set_memories first")
        if cache is None and hop_hook is None:
            questions = self._check_sentences(questions)
            held = self._answer_pass(len(questions))
            if held is not None:
                result = self._answer_in_one_call(questions, held, start_time)
                if result is not None:
                    return result
        u, hits, misses = self.embed_question(questions, cache)

        ec = self.engine_config
        ee = ec.early_exit
        hops = self.config.hops
        zero_skip = ec.zero_skip if ec.zero_skip.enabled else None
        gated = ee.enabled and hops > 1
        num_answers = len(self.weights.answer_weight)
        nq_total = len(u)
        # u is the float64 hop state, updated in place; u_tile is u
        # narrowed to the memory dtype (u itself under float64): the
        # operand of every score GEMM and of the answer layer.
        dtype = self._dtype
        u_tile = u.astype(dtype, copy=False)
        # Their pointers, taken once for every hop (again after a retirement).
        held, at = compiled_fold.pair_structs(u, u_tile)
        # What the records are built from when read (AnswerResult).
        hop_records: list = []
        checks: list[int] = []
        if gated:
            # Ragged-depth loop: exited questions are scattered into
            # final_u and dropped from u, so later hops shrink.
            active = np.arange(nq_total, dtype=np.intp)
            final_u = np.empty_like(u)
            # Answer logits: an exit settles its own from the gate's
            # projection; the survivors are projected after the loop.
            logits = np.empty((nq_total, num_answers))
            hops_run = np.zeros(nq_total, dtype=np.intp)
            confidences: list[np.ndarray] = []
        for hop in range(hops):
            solver = self._solver(hop if self._num_pairs > 1 else 0)
            # u_{k+1} = u_k + o_k: every solver ends its own hop, in
            # place, and returns the hop's record.
            record = solver.output(u, zero_skip, u_tile=u_tile, at=at)
            hop_records.append(record)
            if hop_hook is not None:
                hop_hook(hop, record.stats)
            if not gated:
                continue
            hops_run[active] += 1
            remaining = hops - (hop + 1)
            if remaining == 0 or hop + 1 < ee.min_hops:
                continue
            # The active questions' logit-margin confidence and the
            # extrapolated logits it was read from (an exit's final
            # ones); AnswerResult.stats counts the check.
            output, layer = record.output, self.answer_layer
            gate_logits = np.empty((len(u), num_answers), layer.dtype)
            confidence = logit_margin_confidence(
                u, output, remaining, layer, out=gate_logits
            )
            checks.append(len(u))
            row = np.full(nq_total, np.nan)
            row[active] = confidence
            confidences.append(row)
            exiting = confidence >= ee.required_confidence
            if not np.any(exiting):
                continue
            exited = active[exiting]
            # Fixed-point extrapolation: an exiting question stops
            # *attending* but keeps the predicted additive updates —
            # its terminal state is u_k + remaining * o_k, the same
            # state the confidence signal judged (so the logits the
            # gate projected from it are final).  With locked-on
            # attention each remaining hop would add ~o_k again, so
            # this approximates full depth instead of truncating it.
            final_u[exited] = u[exiting] + remaining * output[exiting]
            logits[exited] = gate_logits[exiting]
            active = active[~exiting]
            narrowed = u_tile is not u
            u = u[~exiting]
            u_tile = u_tile[~exiting] if narrowed else u
            held, at = compiled_fold.pair_structs(u, u_tile)
            if len(active) == 0:
                break

        if gated:
            final_u[active] = u
            projected = len(active)
            if projected:
                logits[active] = self.answer_layer.project(u_tile)[0]
            u = final_u
            answer_ids = logits.argmax(axis=1)
        else:
            logits, answer_ids = self.answer_layer.project(u_tile)
            projected, hops_run, confidences = nq_total, None, None
        trace = (ee.threshold, hops, nq_total, hops_run, confidences)
        return AnswerResult(
            answer_ids,
            logits,
            u,
            cache_hits=hits,
            cache_misses=misses,
            elapsed_seconds=time.perf_counter() - start_time,
            ledger=(
                hop_records, self.config.embedding_dim, num_answers, checks,
                projected, trace,
            ),  # fmt: skip
        )

    def _answer_pass(self, nq: int) -> tuple | None:
        """The held one-call answer of ``nq`` questions (its
        ``AnswerPass`` and held outputs), or ``None`` where the hop loop
        runs: only a float32 engine on the compiled fold whose every hop
        is a ``ColumnMemNN``'s — resident, behind a chunk pipeline whose
        resident tier holds every chunk, or a top-k tier's below its
        crossover — has one, gated or not.  Each hop's ``(FoldState,
        ScanPlan)`` addresses are taken here, once: a re-point drops the
        pass (:meth:`_memories_written`), an eviction from a pipeline's
        tier drops it at the next answer (:meth:`_answer_in_one_call`),
        and a solver keeps the plan the pass holds pointed at its score
        workspace as it grows.  A pipeline whose tier can hold every
        chunk but does not yet leaves no ``False`` behind: the answer
        that runs the hop loop admits the chunks, and the next one asks
        again."""
        if self._solver_cache_config is not self.engine_config:
            self._sync_config()
        held = self._passes.get(nq)
        if held is not None:
            return held or None
        ec, hops, layer = self.engine_config, self.config.hops, self.answer_layer
        library = compiled_fold.kernels()
        self._passes[nq] = False
        bow = self._question_bow
        if library is None or layer.packed is None or bow._kernel is None:
            return None
        tiers = [self._solver(pair) for pair in range(self._num_pairs)]
        # A top-k tier below its crossover scans with its exact solver.
        solvers = [
            tier.exact_solver() if not getattr(tier, "uses_index", True) else tier
            for tier in tiers
        ]
        if not all(type(s) is ColumnMemNN for s in solvers):
            return None
        threshold = ec.zero_skip.threshold if ec.zero_skip.enabled else 0.0
        at = [solver.compiled_hop(nq, threshold) for solver in solvers]
        # Per pair, the chunk pipeline an answer charges and its eviction
        # count now (none on a resident engine).
        pipelines = [
            (s._pipeline, s._pipeline.evictions)
            for s in solvers
            if s._pipeline is not None
        ]
        if None in at:
            # False stays unless every tier can hold its memory's M_IN and
            # M_OUT: the answer running the hop loop then admits the chunks.
            if pipelines and all(
                (p.resident_bytes or 0) >= 2 * p.store.m_in.nbytes for p, _ in pipelines
            ):  # fmt: skip
                del self._passes[nq]
            return None
        ee, ed = ec.early_exit, self.config.embedding_dim
        min_hops = min(ee.min_hops, hops) if ee.enabled else hops
        # The hop state u, u_tile and the gate's states (rows rounded up to
        # a multiple of 4, the answer layer's blocks), the logits (a gated
        # pass makes them per answer and hands them over), the answer ids,
        # the final states, per check the confidence, per hop the rows kept
        # and scanned, per question its hops run and its row among the survivors.
        narrow = np.zeros((2, -(-nq // 4) * 4, ed), np.float32)
        arrays = (
            np.empty((nq, ed)), narrow[0, :nq],
            None if min_hops < hops else np.empty((nq, layer.num_answers)),
            np.empty(nq, np.intp), np.empty((nq, ed)), np.empty((hops - min_hops, nq)),
            np.empty((2, hops), np.int64), np.empty((2, nq), np.int64),
        )  # fmt: skip
        capsules, at_arrays = compiled_fold.structs(arrays[:4])
        response, confidence, counts, rows = arrays[4:]
        states, plans = (ctypes.c_void_p * hops)(), (ctypes.c_void_p * hops)()
        answer_pass = compiled_fold.AnswerPass(
            hops, min_hops, ctypes.addressof(states), ctypes.addressof(plans),
            layer._at, bow._weights_at, bow._tables_at[0], *at_arrays,
            ee.required_confidence, response.ctypes.data, confidence.ctypes.data,
            narrow[1].ctypes.data, *[row.ctypes.data for row in (*counts, *rows)],
        )  # fmt: skip
        pairs = [hop if self._num_pairs > 1 else 0 for hop in range(hops)]
        for hop, pair in enumerate(pairs):
            states[hop], plans[hop] = at[pair]
        column = (ed, ec.chunk.chunk_size, self._dtype)  # (a ScanRecord's)
        # Per pair, the record of a hop: its ScanRecord, or a top-k tier's.
        wraps = [
            (lambda r: r) if t is s else t.exact_hop for t, s in zip(tiers, solvers)
        ]
        held = self._passes[nq] = (
            library.repro_pass, answer_pass, ctypes.addressof(answer_pass), solvers,
            pairs, arrays, pipelines, column, wraps, min_hops,
            (capsules, states, plans),
        )  # fmt: skip
        return held

    def _answer_in_one_call(
        self, questions: np.ndarray, held: tuple, start_time: float
    ) -> AnswerResult | None:
        """:meth:`answer` in one ``repro_pass`` call (``held``:
        :meth:`_answer_pass`'s); ``None``, before anything was written,
        when the compiled embedding refuses the questions' array, or when
        a pipeline's tier evicted a chunk since the pass was built (the
        pass is dropped: its plans are cut from the chunks the eviction
        dropped).  Each hop run charges its pipeline's ledger as the hop
        loop's scan of the held chunks does; the LRU recency, once per
        pipeline (a second sweep in a row leaves the order as it was)."""
        (kernel, answer_pass, address, solvers, pairs, arrays, pipelines, column,
         wraps, min_hops, _) = held  # fmt: skip
        nq = len(questions)
        for pipeline, evictions in pipelines:
            if pipeline.evictions != evictions:
                del self._passes[nq]
                return None
        _, _, logits, top, response, confidence, counts, depth = arrays
        gated = logits is None
        if gated:
            logits = np.empty((nq, self.answer_layer.num_answers))
            held_logits = logits.__array_struct__  # (alive until the call returns)
            answer_pass.logits = compiled_fold.struct_pointer(held_logits, None)
        words = questions.__array_struct__
        run = kernel(address, compiled_fold.struct_pointer(words, None))
        if run == compiled_fold.BOW_REFUSED:
            return None
        if run == compiled_fold.BOW_BAD_WORD:
            raise ValueError(BAD_WORD)
        if run < 0:
            raise RuntimeError(f"repro_pass failed: {run}")
        kept, asked = counts.tolist()
        rows = [solver.num_sentences for solver in solvers]
        stores = [None] * run  # (the records stop at the hops run)
        if pipelines:
            for hop, pair in enumerate(pairs[:run]):
                pipeline = pipelines[pair][0]
                pipeline.charge_pass(sweep=hop == pair)
                stores[hop] = pipeline.stats.snapshot()
        # Built when read: the scan records of the kept-row counts.
        records = (
            wraps[pair](ScanRecord(None, n, rows[pair], k, column, store))
            for pair, n, k, store in zip(pairs, asked, kept, stores)
        )
        hops, checks, projected = len(pairs), [], nq
        trace = (self.engine_config.early_exit.threshold, hops, nq, None, None)
        if gated:
            checks = asked[min_hops - 1 : min(run, hops - 1)]  # (its hop's rows)
            projected = asked[-1] if run == hops else 0
            confidences = list(confidence[: len(checks)].copy())
            trace = (*trace[:3], depth[0].copy(), confidences)
        return AnswerResult(
            top.copy(), logits if gated else logits.copy(), response.copy(),
            elapsed_seconds=time.perf_counter() - start_time,
            ledger=(records, column[0], logits.shape[1], checks, projected, trace),
        )  # fmt: skip

    def answer_batch(
        self,
        questions: np.ndarray,
        cache: VectorCache | None = None,
        hop_hook: Callable[[int, OpStats], None] | None = None,
    ) -> BatchAnswer:
        """Answer a question batch in one vectorized pass.

        All hops run on the full ``nq x ed`` question matrix through
        the configured dataflow — one batched lazy softmax per chunk,
        per-row zero-skip masks, and (in sharded mode) a single
        :class:`~repro.core.column.PartialOutput` fold per shard for
        the whole batch — so ``M_IN``/``M_OUT`` stream from memory
        once per *batch* instead of once per question.  Because every
        step of the column dataflow is row-independent, each
        question's numbers match a solo :meth:`answer` call (the
        differential suite bounds the agreement at 1e-10).

        With confidence-gated early exit enabled the batch runs at
        *ragged depth*: members that clear the gate retire from the
        question matrix between hops (later hops stream the memories
        against a shrinking GEMM), and each per-question view carries
        its own slice of the gate record (``tier_stats()["hops"]``).
        Row-independence makes the retirement invisible to survivors,
        so the per-question equivalence above holds at every
        threshold on the exact paths.

        Args:
            questions: ``(nq, nw)`` raw word IDs (``nq >= 1``; a 1-D
                vector is treated as a single question).
            cache: optional embedding cache on the question path.
            hop_hook: per-hop observability hook, as in :meth:`answer`.

        Returns:
            A :class:`BatchAnswer`: the whole-batch result (amortized
            batch-level :class:`~repro.core.stats.OpStats`) plus one
            per-question :class:`AnswerResult` view per question.
        """
        return BatchAnswer(self.answer(questions, cache=cache, hop_hook=hop_hook))

    def _solver(
        self, pair_index: int
    ) -> BaselineMemNN | ColumnMemNN | ShardedMemNN:
        """The answer-producing backend for one memory pair, cached.

        Solver construction spills the memories or (in sharded mode)
        slices them into shards — work worth paying once per stored
        story, not once per request.  A plain resident column kernel is
        bound to the pair's whole arrays and the stored-row span, so it
        reads every later write; every other solver is dropped when the
        memories mutate (:meth:`store_story` / :meth:`set_memories` /
        :meth:`clear_memories`), and a swapped ``engine_config`` drops
        them all.
        """
        if self._solver_cache_config is not self.engine_config:
            self._sync_config()
        solver = self._solver_cache.get(pair_index)
        if solver is None:
            m_in, m_out = self._memories[pair_index]
            solver = self._build_solver(m_in, m_out, pair_index)
            if type(solver) is ColumnMemNN and solver.store_stats is None:
                solver.repoint(*self._whole[pair_index], self._rows)
            else:
                self._write_drops = True
            self._solver_cache[pair_index] = solver
        return solver

    def _spill_dir(self, pair_index: int) -> Path:
        """Directory the mmap backend persists this pair's memories to.

        ``StoreConfig.path`` when the config names one (reusable across
        runs), otherwise an engine-owned temporary directory that lives
        as long as the engine does.
        """
        configured = self.engine_config.store.path
        if configured is not None:
            root = Path(configured)
        else:
            if self._spill_tmp is None:
                self._spill_tmp = tempfile.TemporaryDirectory(
                    prefix="repro-store-"
                )
            root = Path(self._spill_tmp.name)
        return root / f"pair{pair_index}"

    def _build_solver(
        self, m_in: np.ndarray, m_out: np.ndarray, pair_index: int = 0
    ) -> BaselineMemNN | ColumnMemNN | ShardedMemNN | TopKMemNN:
        """The answer-producing backend the engine config selects.

        The composed config's cross-field constraints are checked here
        (:meth:`~repro.core.config.EngineConfig.validate`) — the first
        point every configuration, however it was built, must pass
        through before any numerics run.

        With an mmap :class:`~repro.core.config.StoreConfig` the
        memories are spilled to disk first (§4.1.1's offline knowledge
        database, here produced by the engine itself) and the solver
        streams them back through the chunk pipeline — the spilled
        bytes are the stored rows, so the answers are exactly those of
        the resident path.  That is the engine's only spill: every
        other config hands the solver the resident rows, and a
        process-backed sharded solver spills them itself.  An enabled
        :class:`~repro.core.config.TopKConfig` interposes the
        retrieval tier in front of whichever exact kernel the rest of
        the config selects.
        """
        ec = self.engine_config.validate()
        dtype = self._dtype
        if ec.algorithm == "baseline":
            return BaselineMemNN(m_in, m_out, dtype=dtype)
        sc = ec.store
        # Only the mmap backend spills here.  A process-backed sharded
        # solver handed resident rows spills them itself, into a
        # directory it owns and removes on close (DESIGN.md §10,
        # "Spill-on-demand").
        if sc.backend == "mmap":
            store = MmapStore.save(
                self._spill_dir(pair_index),
                m_in,
                m_out,
                dtype=dtype,
                overwrite=True,
            )
            self._spilled.append(store)
            tier = {"store": store}
        else:
            tier = {"m_in": m_in, "m_out": m_out, "dtype": dtype}
        if ec.topk.enabled:
            # Lazy import: repro.index depends on repro.core, so the
            # core package never imports it at module load.
            from ..index.topk import TopKMemNN as _TopKMemNN

            return _TopKMemNN(
                config=ec.topk,
                chunk=ec.chunk,
                num_shards=ec.num_shards,
                execution=ec.execution,
                resident_bytes=sc.resident_bytes,
                prefetch_depth=sc.prefetch_depth,
                **tier,
            )
        if ec.algorithm == "sharded":
            return ShardedMemNN(
                num_shards=ec.num_shards,
                chunk=ec.chunk,
                execution=ec.execution,
                resident_bytes=sc.resident_bytes,
                prefetch_depth=sc.prefetch_depth,
                **tier,
            )
        return ColumnMemNN(
            chunk=ec.chunk,
            resident_bytes=sc.resident_bytes,
            prefetch_depth=sc.prefetch_depth,
            **tier,
        )

    # --- helpers -------------------------------------------------------------

    def _check_sentences(self, sentences: np.ndarray) -> np.ndarray:
        sentences = np.asarray(sentences)
        if sentences.ndim == 1:
            sentences = sentences[None, :]
        if sentences.ndim != 2:
            raise ValueError(f"expected (n, nw) word IDs, got shape {sentences.shape}")
        if sentences.shape[1] > self.config.max_words:
            raise ValueError(
                f"sentences have {sentences.shape[1]} words > nw="
                f"{self.config.max_words}"
            )
        if sentences.shape[1] < self.config.max_words:
            pad = np.full(
                (sentences.shape[0], self.config.max_words - sentences.shape[1]),
                PAD_ID,
                dtype=sentences.dtype,
            )
            sentences = np.hstack([sentences, pad])
        return sentences
