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

import functools
import tempfile
import time
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict

import numpy as np

from ..store.base import StoreStats, feature_major
from ..store.mmap_store import MmapStore
from .baseline import BaselineMemNN
from .cache import VectorCache
from .column import ColumnMemNN
from .config import EngineConfig, MemNNConfig
from .early_exit import (
    EXIT_CONFIDENCE,
    EXIT_FULL_DEPTH,
    HopTrace,
    attention_mass_confidence,
    logit_margin_confidence,
)
from .plan import InferencePlan, plan_inference
from .sharded import ShardedMemNN

if TYPE_CHECKING:
    from ..index.stats import IndexStats
    from ..index.topk import TopKMemNN
from .numerics import (
    PAD_ID,
    bow_embed,
    bow_embed_each,
    position_encoding,
    softmax,
    unstable_softmax,
)
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


def _readonly(view: np.ndarray) -> np.ndarray:
    """Clear the writeable flag of a view the caller just made."""
    view.flags.writeable = False
    return view


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


@dataclass
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
        hop_shard_stats: constructor-only — read through
            ``tier_stats()["shards"]``.  Per-hop, per-shard operation
            counters on the sharded path (one inner list per hop, in
            shard order; empty inner lists on unsharded paths).
        hop_store_stats: per-hop memory-store ledger snapshots
            (cumulative at each hop; ``None`` entries off the store
            path).  Prefer ``tier_stats()["store"]``.
        hop_index_stats: per-hop top-k retrieval statistics (``None``
            entries off the top-k path).  Prefer
            ``tier_stats()["index"]``.
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
    """

    answer_ids: np.ndarray
    logits: np.ndarray
    response: np.ndarray
    stats: OpStats
    hop_stats: list[OpStats] = field(default_factory=list)
    hop_shard_stats: InitVar[list[list[OpStats]] | None] = None
    hop_store_stats: list[StoreStats | None] = field(default_factory=list)
    hop_index_stats: "list[IndexStats | None]" = field(default_factory=list)
    hop_trace: HopTrace | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0

    def __post_init__(
        self, hop_shard_stats: list[list[OpStats]] | None
    ) -> None:
        # Constructor keyword without a public attribute (the shim over
        # the old read surface is gone): tier_stats() is the accessor.
        self._hop_shard_stats = (
            hop_shard_stats if hop_shard_stats is not None else []
        )

    @functools.cached_property
    def answer_probabilities(self) -> np.ndarray:
        return softmax(self.logits)

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
        return {
            "shards": self._hop_shard_stats,
            "store": self.hop_store_stats,
            "index": self.hop_index_stats,
            "hops": self.hop_trace,
        }


# Drop the lingering ``InitVar`` default so ``result.hop_shard_stats``
# is a hard AttributeError rather than a silent class-attribute read.
del AnswerResult.hop_shard_stats


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
                hop_shard_stats=shard_share,
                # Store ledgers and index probes are batch-scoped (one
                # stream / one candidate set for the whole batch), so
                # the per-question views share them rather than split.
                hop_store_stats=batch_tiers["store"],
                hop_index_stats=batch_tiers["index"],
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
        # Lazily-created spill directory for the mmap store backend
        # (used when the engine config asks for out-of-core memories
        # without naming a path).
        self._spill_tmp: tempfile.TemporaryDirectory | None = None
        #: Stores spilled for the cached solvers; closed with them.
        self._spilled: list[MmapStore] = []
        self.clear_memories()

    # --- memory management ---------------------------------------------------

    @property
    def num_stored_sentences(self) -> int:
        return self._memories[0][0].shape[0]

    @property
    def memories(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the first hop's (M_IN, M_OUT) — the one
        resident copy: solvers and spills use these rows unconverted.
        ``M_IN`` is feature-major (``strides[0] == itemsize``, DESIGN.md
        §10), ``M_OUT`` row-major; both index as ``(ns, ed)``."""
        return self._memories[0]

    @property
    def _dtype(self) -> np.dtype:
        """Storage dtype of the memories (``ExecutionConfig.dtype``)."""
        return np.dtype(self.engine_config.execution.dtype)

    def store_story(self, sentences: np.ndarray) -> None:
        """Embed story sentences and append them to M_IN / M_OUT
        (every hop's pair under adjacent tying).

        The rows land in engine-owned append buffers (grown
        geometrically up to ``config.num_sentences``), so ingesting a
        story sentence by sentence copies each row O(1) times.  A bag
        sum is accumulated in float64 and rounded once, into its row.

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
        tables = [
            table
            for pair_index in range(self._num_pairs)
            for table in self.weights.hop_pair(pair_index, self.config.hops)
        ]
        buffers = self._reserve(end)
        bow_embed_each(
            tables,
            sentences,
            self._encoding,
            outs=[buffer[stored:end] for pair in buffers for buffer in pair],
        )
        self._memories = [
            (_readonly(buffer_in[:end]), _readonly(buffer_out[:end]))
            for buffer_in, buffer_out in buffers
        ]
        self._invalidate_solvers()

    def _reserve(self, rows: int) -> list[list[np.ndarray]]:
        """The append buffers, one ``[in, out]`` per memory pair, with
        room for ``rows`` rows each.  A buffer too small (or not the
        engine's: after :meth:`set_memories` / :meth:`clear_memories`
        the capacity is zero) is replaced by a fresh one holding a copy
        of the stored rows, one matrix at a time."""
        for pair, stored in zip(self._buffers, self._memories):
            for slot, buffer in enumerate(pair):
                if rows > len(buffer):
                    capacity = min(
                        max(rows, 2 * len(buffer), _MIN_BUFFER_ROWS),
                        self.config.num_sentences,
                    )
                    # M_IN (slot 0) is feature-major (DESIGN.md §10).
                    grown = np.empty(
                        (capacity, self.config.embedding_dim),
                        self._dtype,
                        order="C" if slot else "F",
                    )
                    grown[: len(stored[slot])] = stored[slot]
                    pair[slot] = grown
        return self._buffers

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
        empty = _readonly(np.zeros((0, self.config.embedding_dim), self._dtype))
        self._install([(empty, empty)] * self._num_pairs)
        self._solver_cache_config = self.engine_config

    def _install(self, memories: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Replace the memories with arrays the engine does not own:
        the append buffers restart at zero capacity, so the next
        :meth:`store_story` allocates fresh ones and neither writes
        into ``memories`` nor shows through views handed out earlier."""
        self._memories = memories
        no_capacity = np.empty((0, 0))
        self._buffers = [[no_capacity, no_capacity] for _ in memories]
        # Solvers hold views and shard slices of the memories; every
        # memory mutation invalidates them.
        self._invalidate_solvers()

    def _sync_config(self) -> None:
        """``engine_config`` was swapped: the cached solvers go, and
        rows stored in another ``dtype`` are re-cast, once (rows stored
        as float32 do not regain precision by being widened)."""
        self._solver_cache_config = self.engine_config
        self._install([
            tuple(_readonly(m.astype(self._dtype, copy=False)) for m in pair)
            for pair in self._memories
        ])

    def _invalidate_solvers(self) -> None:
        """Drop the solver cache, releasing backend resources first.

        Process-backed solvers own a worker pool and possibly a
        spilled temp store, out-of-core ones a fetch thread; simply
        forgetting them would leave teardown to GC timing, so
        invalidation closes every cached solver that exposes
        ``close()`` before emptying the cache, then the descriptors of
        the stores the engine spilled for them.
        """
        cache = getattr(self, "_solver_cache", None)
        if cache:
            for solver in cache.values():
                close = getattr(solver, "close", None)
                if close is not None:
                    close()
        while self._spilled:
            self._spilled.pop().close()
        self._solver_cache: dict[int, BaselineMemNN | ColumnMemNN | ShardedMemNN]
        self._solver_cache = {}

    def close(self) -> None:
        """Release engine-held resources: cached solvers (worker
        pools, self-spilled stores) and the engine's own spill
        directory.  The engine stays usable — the next answer pass
        rebuilds solvers (and re-spills) on demand.  Idempotent."""
        self._invalidate_solvers()
        spill, self._spill_tmp = self._spill_tmp, None
        if spill is not None:
            spill.cleanup()

    # --- planning ------------------------------------------------------------

    def plan(
        self,
        batch_size: int = 1,
        exit_rate: float = 0.0,
        chunks: tuple[int, ...] | None = None,
    ) -> InferencePlan:
        """Describe what one :meth:`answer` pass over ``batch_size``
        questions would do, without running it.

        The plan is pure — chunk coverage, expected candidate rows
        under the top-k tier, and the expected survivor schedule of
        the early-exit gate — so a placement layer can reason about
        the pass's memory footprint before choosing where it runs.

        ``exit_rate`` is the calibrated per-check exit probability;
        core does not know the threshold→rate calibration (a serving
        policy concern), so callers with an active gate supply it
        (:meth:`repro.serving.server.QaServer.plan` does).  ``chunks``
        narrows the planned chunk set below full coverage when the
        caller knows the pass's rows cluster (topic locality).
        """
        network = self.config
        engine = self.engine_config
        rows = max(1, self.num_stored_sentences or network.num_sentences)
        candidates = (
            engine.topk.expected_candidates(rows, batch_size=batch_size)
            if engine.topk.enabled
            else rows
        )
        return plan_inference(
            num_rows=rows,
            embedding_dim=network.embedding_dim,
            batch_size=batch_size,
            chunk_size=engine.chunk.chunk_size,
            hops=network.hops,
            min_hops=engine.early_exit.min_hops,
            exit_rate=exit_rate if engine.early_exit.enabled else 0.0,
            candidate_rows=candidates,
            chunks=chunks,
            num_shards=engine.num_shards,
            shard_policy=engine.shard_policy,
        )

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
            return (
                bow_embed(self.weights.embedding_a, questions, self._encoding),
                0,
                0,
            )

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
        u, hits, misses = self.embed_question(questions, cache)

        ec = self.engine_config
        ee = ec.early_exit
        stats = OpStats()
        hop_stats: list[OpStats] = []
        hop_shard_stats: list[list[OpStats]] = []
        hop_store_stats: list[StoreStats | None] = []
        hop_index_stats: list[IndexStats | None] = []
        zero_skip = ec.zero_skip if ec.zero_skip.enabled else None
        gated = ee.enabled and self.config.hops > 1
        answer_weight = self.weights.answer_weight
        if gated:
            # Ragged-depth loop: exited questions are scattered into
            # final_u and dropped from u, so later hops shrink.
            nq_total = len(u)
            active = np.arange(nq_total, dtype=np.intp)
            final_u = np.empty_like(u)
            # Answer logits, and the questions they are still owed to:
            # an exit on the logit-margin gate settles its own.
            logits = np.empty((nq_total, len(answer_weight)))
            unanswered = np.ones(nq_total, dtype=bool)
            hops_run = np.zeros(nq_total, dtype=np.intp)
            confidences: list[np.ndarray] = []
        for hop in range(self.config.hops):
            solver = self._solver(hop if self._num_pairs > 1 else 0)
            result = solver.output(u, zero_skip=zero_skip, stable=ec.stable_softmax)
            tiers = result.tier_stats()
            stats.accumulate(result.stats)
            hop_stats.append(result.stats)
            hop_shard_stats.append(list(tiers["shards"] or []))
            hop_store_stats.append(tiers["store"])
            hop_index_stats.append(tiers["index"])
            if hop_hook is not None:
                hop_hook(hop, result.stats)
            # u stays float64: a solver narrows its own copy, once per hop.
            output = np.asarray(result.output, dtype=u.dtype)
            u = u + output  # u_{k+1} = u_k + o_k
            if not gated:
                continue
            hops_run[active] += 1
            remaining = self.config.hops - (hop + 1)
            if remaining == 0 or hop + 1 < ee.min_hops:
                continue
            confidence, gate_logits, gate_stats = self._gate_confidence(
                u, output, remaining, hop
            )
            stats.accumulate(gate_stats)
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
            if gate_logits is not None:
                logits[exited] = gate_logits[exiting]
                unanswered[exited] = False
            active = active[~exiting]
            u = u[~exiting]
            if len(active) == 0:
                break

        if gated:
            final_u[active] = u
            u = final_u
            hop_trace = HopTrace(
                threshold=ee.threshold,
                metric=ee.metric,
                hops_configured=self.config.hops,
                hops_run=hops_run,
                # Only the gate retires a question before the last hop.
                exit_reason=np.where(
                    hops_run < self.config.hops, EXIT_CONFIDENCE, EXIT_FULL_DEPTH
                ).tolist(),
                confidence=confidences,
            )
            projected = int(np.count_nonzero(unanswered))
            if projected:
                logits[unanswered] = u[unanswered] @ answer_weight.T
        else:
            hop_trace = HopTrace.full_depth(
                len(u), self.config.hops,
                threshold=ee.threshold, metric=ee.metric,
            )
            logits = u @ answer_weight.T
            projected = len(u)
        stats.flops += (
            2 * projected * len(answer_weight) * self.config.embedding_dim
        )
        return AnswerResult(
            answer_ids=logits.argmax(axis=1),
            logits=logits,
            response=u,
            stats=stats,
            hop_stats=hop_stats,
            hop_shard_stats=hop_shard_stats,
            hop_store_stats=hop_store_stats,
            hop_index_stats=hop_index_stats,
            hop_trace=hop_trace,
            cache_hits=hits,
            cache_misses=misses,
            elapsed_seconds=time.perf_counter() - start_time,
        )

    def _gate_confidence(
        self,
        u: np.ndarray,
        last_output: np.ndarray,
        remaining_hops: int,
        hop: int,
    ) -> tuple[np.ndarray, np.ndarray | None, OpStats]:
        """The configured confidence signal for the active questions.

        Returns the ``(len(u),)`` confidence array, the extrapolated
        answer logits the signal was read from (``None`` for a signal
        that does not project answers) and the gate's own operation
        counters (the check is not free; the accounting keeps the cost
        model honest).
        """
        ee = self.engine_config.early_exit
        ed = self.config.embedding_dim
        nq = len(u)
        gate_stats = OpStats()
        gate_logits = None
        if ee.metric == "logit_margin":
            num_answers = self.weights.answer_weight.shape[0]
            # Extrapolation (2*nq*ed) + answer GEMM + softmax.
            gate_stats.flops += 2 * nq * ed + 2 * nq * num_answers * ed
            gate_stats.exp_calls += nq * num_answers
            gate_logits = np.empty((nq, num_answers))
            confidence = logit_margin_confidence(
                u,
                last_output,
                remaining_hops,
                self.weights.answer_weight,
                out=gate_logits,
            )
        else:
            # The next hop's attention distribution, reconstructed from
            # the resident memories (the engine keeps them in RAM even
            # when a store tier backs the solver).
            pair = hop + 1 if self._num_pairs > 1 else 0
            m_in = self._memories[pair][0]
            ns = m_in.shape[0]
            gate_stats.flops += 2 * nq * ns * ed
            gate_stats.exp_calls += nq * ns
            confidence = attention_mass_confidence(
                u, m_in, ee.attention_top_k
            )
        return confidence, gate_logits, gate_stats

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
        story, not once per request.  The cache is invalidated whenever
        the memories mutate (:meth:`store_story` /
        :meth:`set_memories` / :meth:`clear_memories`) or
        ``engine_config`` is swapped.
        """
        if self._solver_cache_config is not self.engine_config:
            self._sync_config()
        solver = self._solver_cache.get(pair_index)
        if solver is None:
            m_in, m_out = self._memories[pair_index]
            solver = self._build_solver(m_in, m_out, pair_index)
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
        the resident path.  An enabled
        :class:`~repro.core.config.TopKConfig` interposes the
        retrieval tier in front of whichever exact kernel the rest of
        the config selects.
        """
        ec = self.engine_config.validate()
        dtype = self._dtype
        if ec.algorithm == "baseline":
            return BaselineMemNN(m_in, m_out, dtype=dtype)
        sc = ec.store
        # Spill-on-demand: the process backend's workers need an
        # on-disk store to mmap, so a resident-store config with a
        # process execution backend spills exactly as the mmap backend
        # would (same bytes, same answers).  The top-k tier keeps its
        # resident arrays — its full-memory sharded fallback self-spills
        # and its transient per-pass subset solvers run serial.
        spill = sc.backend == "mmap" or (
            ec.execution.backend == "process"
            and ec.algorithm == "sharded"
            and not ec.topk.enabled
        )
        if spill:
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
                shard_policy=ec.shard_policy,
                execution=ec.execution,
                resident_bytes=sc.resident_bytes,
                prefetch_depth=sc.prefetch_depth,
                **tier,
            )
        if ec.algorithm == "sharded":
            return ShardedMemNN(
                num_shards=ec.num_shards,
                policy=ec.shard_policy,
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

    def attention(
        self,
        questions: np.ndarray,
        cache: VectorCache | None = None,
    ) -> np.ndarray:
        """First-hop attention probabilities (for Fig. 6-style analysis).

        Honors ``engine_config`` (algorithm and ``stable_softmax``) and
        accepts the same optional embedding cache as :meth:`answer`.
        """
        if self.num_stored_sentences == 0:
            raise ValueError("no story stored: call store_story/set_memories first")
        u, _, _ = self.embed_question(questions, cache)
        m_in, m_out = self._memories[0]
        ec = self.engine_config
        if ec.algorithm == "baseline":
            solver = BaselineMemNN(m_in, m_out, dtype=self._dtype)
            result = solver.output(
                u, stable=ec.stable_softmax, return_probabilities=True
            )
            assert result.probabilities is not None
            return result.probabilities
        # Column/sharded paths: the lazy softmax normalizes once at the
        # end (after the exact shard merge, in sharded mode), so the
        # probabilities equal softmax(u . M_IN^T) — reconstruct them
        # with the configured softmax form.  tests/test_core_engine.py
        # guards this shortcut against the baseline's explicit softmax.
        # u is narrowed: a mixed GEMM would widen all of M_IN.
        scores = np.asarray(u, dtype=m_in.dtype) @ m_in.T
        return softmax(scores) if ec.stable_softmax else unstable_softmax(scores)

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
