"""Sharded lazy-softmax attention with an exact merge (§3.1 scale-out).

The column-based algorithm turns attention into a single-pass
accumulation with one deferred division, so partial results computed
over *disjoint* slices of ``M_IN``/``M_OUT`` combine exactly: each
shard produces a ``(partial numerator, partial denominator, running
max)`` triple and the coordinator merges them with the max-rescaled
reduction of :meth:`~repro.core.column.PartialOutput.merge`.  The merge
is associative and commutative, which is the property that lets MANN
memories span threads, GPUs, or nodes (the paper's §3.1 closing
remark; the same observation underpins Rae et al.'s sparse-access
memories and hierarchical memory schemes).

Two layers live here:

* :class:`ShardPlan` — a deterministic row partition of the memory.
  ``"contiguous"`` slices the rows into K runs (what a range-sharded
  database does); ``"strided"`` deals rows round-robin (what a
  load-balancing row-cyclic layout does).  Both cover every row
  exactly once, and both tolerate ``K > num_rows`` by leaving trailing
  shards empty.  The plan is shared infrastructure: the numerical
  engine below, the serving fan-out model
  (:meth:`repro.serving.server.QaServer.hop_seconds`) and the cluster
  model (:class:`repro.perf.cluster.ClusterModel`) all consume it, so
  the simulated latency and the executed numerics agree on shard
  geometry.
* :class:`ShardedMemNN` — runs :class:`~repro.core.column.ColumnMemNN`
  (with optional per-shard zero-skipping) on each shard and merges.
  The final output matches single-shard column mode to ~1e-15
  relative (the only reordering is the max-rescaling, which the
  differential suite in ``tests/test_core_sharded.py`` bounds at
  1e-10).  Its three arrangements — a serial loop over per-shard
  kernels, the same kernels in worker processes, one fused tile sweep
  — all fold tiles into :class:`~repro.core.column.TileState`; none
  of the softmax arithmetic lives here.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..store.base import MemoryStore, StoreStats
from ..store.mmap_store import MmapStore
from ..store.resident import memory_store
from .column import (
    ColumnMemNN,
    PartialOutput,
    TileState,
    column_op_stats,
    end_hop,
    merge_partials,
)
from .config import ChunkConfig, ExecutionConfig, ZeroSkipConfig
from .execution import ProcessShardRunner
from .results import InferenceResult
from .stats import OpStats

__all__ = ["ShardPlan", "ShardedMemNN", "SHARD_POLICIES"]

#: Supported row-partition policies.
SHARD_POLICIES = ("contiguous", "strided")


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of ``num_rows`` memory rows into
    ``num_shards`` disjoint shards.

    Attributes:
        num_rows: rows being partitioned (``ns``).
        num_shards: shard count ``K`` (may exceed ``num_rows``; the
            surplus shards are empty).
        policy: ``"contiguous"`` (range sharding) or ``"strided"``
            (round-robin row-cyclic sharding).
    """

    num_rows: int
    num_shards: int
    policy: str = "contiguous"

    def __post_init__(self) -> None:
        if self.num_rows < 0:
            raise ValueError(f"num_rows must be non-negative, got {self.num_rows}")
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.policy not in SHARD_POLICIES:
            raise ValueError(
                f"policy must be one of {SHARD_POLICIES}, got {self.policy!r}"
            )

    def indices(self, shard: int) -> np.ndarray:
        """Row indices owned by ``shard`` (sorted, possibly empty)."""
        rows = self._rows(shard)
        return np.arange(rows.start, rows.stop, rows.step)

    def _rows(self, shard: int) -> range:
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard must be in [0, {self.num_shards}), got {shard}"
            )
        if self.policy == "contiguous":
            bounds = self._bounds()
            return range(bounds[shard], bounds[shard + 1])
        return range(shard, self.num_rows, self.num_shards)

    def _bounds(self) -> np.ndarray:
        return np.linspace(0, self.num_rows, self.num_shards + 1, dtype=int)

    def selectors(self) -> list[slice | np.ndarray]:
        """Per-shard row selectors for indexing resident arrays: a
        ``slice`` (zero-copy view) under range sharding, the index
        array (one gather at plan time, then contiguous chunk reads)
        under round-robin."""
        if self.policy == "contiguous":
            bounds = self._bounds()
            return [
                slice(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        return list(self)

    def shard_rows(self, shard: int) -> int:
        """Number of rows in ``shard`` — counted, not enumerated (the
        fused sweep asks while its score block is still alive)."""
        return len(self._rows(shard))

    @property
    def shard_sizes(self) -> tuple[int, ...]:
        return tuple(self.shard_rows(k) for k in range(self.num_shards))

    @property
    def max_shard_rows(self) -> int:
        """Rows of the largest shard — the critical path of a fan-out."""
        return max(self.shard_sizes)

    @property
    def num_nonempty(self) -> int:
        return sum(1 for size in self.shard_sizes if size)

    def __iter__(self):
        for shard in range(self.num_shards):
            yield self.indices(shard)


class _FusedShardKernel:
    """The fused batch x shard tile arrangement (DESIGN.md §10).

    One :class:`~repro.core.column.ColumnMemNN` streams the *whole*
    memory in global tiles of ``chunk_size x K`` rows — one score GEMM
    per tile across every shard, where the per-shard arrangement issues
    ``K`` small ones — and each shard's column segment of the tile is
    folded into that shard's own :class:`~repro.core.column.TileState`.
    Parallelism belongs to BLAS's own threads inside the one big call.

    Per-shard partial semantics are preserved: the output is a list of
    per-shard ``(PartialOutput, OpStats)`` pairs that merge in shard
    order like any other arrangement's.  The rescale cadence differs
    from the per-shard loop (segments are tile∩shard, not shard-local
    chunks), so agreement with it is the documented 1e-10 of any
    chunk-geometry change, not bitwise (at ``K = 1`` the segments *are*
    the chunks and the two are bit-identical).  One semantic caveat:
    zero-skip decides against the running denominator *at decision
    time*, which any chunk-geometry change shifts (sharding itself
    already does, vs. unsharded column mode) — those masks agree to the
    skip approximation's threshold scale, not 1e-10; each is a superset
    of the exact rule's.
    """

    def __init__(self, plan: ShardPlan, chunk_size: int, column: ColumnMemNN) -> None:
        self.plan = plan
        #: The per-shard chunk size the op ledger reports against.
        self.chunk_size = chunk_size
        #: The whole memory, chunked in global tiles.
        self._column = column
        self._ranges = plan.selectors() if plan.policy == "contiguous" else None

    @property
    def store_stats(self) -> StoreStats | None:
        return self._column.store_stats

    def close(self) -> None:
        self._column.close()

    def _segments(self, t0: int, n: int):
        """``(shard, column selector)`` for every shard with rows in
        the tile ``[t0, t0 + n)`` — a contiguous sub-slice per shard
        under range sharding, a ``step=K`` stride under round-robin.
        Selectors index both the tile's score columns and its rows."""
        if self._ranges is not None:
            for k, rows in enumerate(self._ranges):
                lo, hi = max(rows.start, t0), min(rows.stop, t0 + n)
                if lo < hi:
                    yield k, slice(lo - t0, hi - t0)
        else:
            num_shards = self.plan.num_shards
            for k in range(num_shards):
                offset = (k - t0) % num_shards
                if offset < n:
                    yield k, slice(offset, n, num_shards)

    def shard_partials(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
    ) -> list[tuple[PartialOutput, OpStats]]:
        """Per-shard ``(partial, stats)`` pairs in shard order — the
        same contract as the per-shard arrangements, produced by the
        tiled sweep."""
        column = self._column
        u = column.check_questions(u)
        nq, ed = u.shape
        threshold = zero_skip.threshold if zero_skip else 0.0
        states = [TileState(nq, ed, threshold) for _ in range(self.plan.num_shards)]
        t0 = 0
        for scores, tile_out in column.scored_tiles(u):
            n = scores.shape[1]
            for k, sel in self._segments(t0, n):
                states[k].fold(scores[:, sel], tile_out[sel])
            t0 += n
        return [
            (
                state.partial(),
                column_op_stats(
                    nq,
                    self.plan.shard_rows(k),
                    ed,
                    state.rows_kept,
                    self.chunk_size,
                    column.dtype,
                ),
            )
            for k, state in enumerate(states)
        ]


class ShardedMemNN:
    """Column-based inference over K simulated memory shards.

    Each shard holds a disjoint row-slice of ``M_IN``/``M_OUT`` and
    runs the lazy-softmax column algorithm independently; the partial
    ``(numerator, denominator, row max)`` triples merge with the
    numerically-stable max-rescaled reduction.  Because the lazy
    softmax defers its single division to after the merge, the result
    is exact — not an approximation of single-shard column mode.

    Args:
        m_in: ``(ns, ed)`` input memory ``M_IN`` (contiguous shards
            are views; a strided one is laid out feature-major once).
        m_out: ``(ns, ed)`` output memory ``M_OUT``.
        num_shards: shard count ``K``.
        policy: row-partition policy (see :class:`ShardPlan`).
        chunk: per-shard chunking configuration.
        dtype: compute precision, applied to every shard.
        execution: execution backend.  ``"serial"`` loops over the
            per-shard kernels on the calling thread; ``"process"`` fans
            the same kernels out to worker processes that ``mmap`` a
            spilled :class:`~repro.store.MmapStore` (passed as
            ``store=``, or spilled here from resident arrays into a
            solver-owned temp directory); ``fused=True`` (serial only)
            sweeps the whole memory in ``chunk_size x K``-row tiles,
            one score GEMM per tile.  Every arrangement produces
            per-shard partials that merge in shard order; process is
            bit-identical to serial, fused agrees to ~1e-10 (tile
            boundaries reorder the running-max rescales).
        store: a :class:`~repro.store.MemoryStore` to shard instead of
            resident arrays — each shard gets a lazy row-subset view
            of the tier (``store.select``), so an out-of-core memory
            is never materialized, shard by shard or otherwise.  The
            process backend requires this to be an
            :class:`~repro.store.MmapStore` (workers re-map it).
        resident_bytes: chunk-LRU byte budget, divided evenly across
            the non-empty shards' pipelines.
        prefetch_depth: per-shard chunk lookahead (each shard's kernel
            runs its own prefetch thread).
    """

    def __init__(
        self,
        m_in: np.ndarray | None = None,
        m_out: np.ndarray | None = None,
        num_shards: int = 1,
        policy: str = "contiguous",
        chunk: ChunkConfig | None = None,
        dtype=np.float64,
        execution: ExecutionConfig | None = None,
        store: MemoryStore | None = None,
        resident_bytes: int | None = None,
        prefetch_depth: int = 0,
    ) -> None:
        self.chunk = chunk if chunk is not None else ChunkConfig()
        self.execution = execution
        # Arrays reach the kernels below as arrays (no chunk pipeline);
        # only an explicit store is handed on as a store.
        explicit = store is not None
        store = memory_store(m_in, m_out, store, dtype)
        self.plan = ShardPlan(store.num_rows, num_shards, policy)
        self._embedding_dim = store.embedding_dim
        self.dtype = store.dtype
        # The LRU budget is a whole-memory budget: split it across the
        # shards' pipelines (a too-small share disables caching rather
        # than thrashing single-chunk entries).
        shard_budget = (
            resident_bytes // max(1, self.plan.num_nonempty) or None
            if resident_bytes is not None
            else None
        )
        self._shards: list[ColumnMemNN] = []
        self._runner: ProcessShardRunner | None = None
        self._fused: _FusedShardKernel | None = None
        self._spill_tmp: tempfile.TemporaryDirectory | None = None
        if execution is not None and execution.backend == "process":
            if explicit and not isinstance(store, MmapStore):
                raise ValueError(
                    "the process backend computes against a spilled "
                    f"MmapStore workers can map; got {type(store).__name__} "
                    "(spill the memories first, or pass resident arrays "
                    "and the solver spills them itself)"
                )
            if self.plan.num_rows == 0:
                raise ValueError(
                    "the process backend requires a non-empty memory "
                    "(nothing to spill)"
                )
            if isinstance(store, MmapStore):
                store_path = store.path
            else:
                # Self-spill: resident memories become a temp MmapStore
                # owned by this solver (removed on close()/GC) so the
                # worker processes have pages to map.
                self._spill_tmp = tempfile.TemporaryDirectory(
                    prefix="repro-shard-spill-"
                )
                store_path = Path(self._spill_tmp.name) / "store"
                MmapStore.save(store_path, store.m_in, store.m_out).close()
            self._runner = ProcessShardRunner(
                str(store_path),
                self.plan.num_shards,
                self.plan.policy,
                self.chunk.chunk_size,
                execution.num_workers,
                execution.worker_blas_threads(),
            )
        elif execution is not None and execution.fused:
            # One column kernel over the whole memory whose chunk is the
            # global tile: one shard-chunk's worth from every shard, so a
            # sweep runs as many tile steps as a shard runs chunk steps.
            whole = (
                {"store": store}
                if explicit
                else {"m_in": store.m_in, "m_out": store.m_out, "dtype": self.dtype}
            )
            self._fused = _FusedShardKernel(
                self.plan,
                self.chunk.chunk_size,
                ColumnMemNN(
                    **whole,
                    chunk=ChunkConfig(self.chunk.chunk_size * num_shards),
                    resident_bytes=resident_bytes,
                    prefetch_depth=prefetch_depth,
                ),
            )
        elif explicit:
            self._shards = [
                ColumnMemNN(
                    store=store.select(idx),
                    chunk=self.chunk,
                    resident_bytes=shard_budget,
                    prefetch_depth=prefetch_depth,
                )
                for idx in self.plan
            ]
        else:
            self._shards = [
                ColumnMemNN(
                    store.m_in[rows],
                    store.m_out[rows],
                    chunk=self.chunk,
                    dtype=self.dtype,
                    resident_bytes=shard_budget,
                    prefetch_depth=prefetch_depth,
                )
                for rows in self.plan.selectors()
            ]

    @property
    def num_sentences(self) -> int:
        return self.plan.num_rows

    @property
    def embedding_dim(self) -> int:
        return self._embedding_dim

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def store_stats(self) -> StoreStats | None:
        """Summed chunk-pipeline ledger across shards (cumulative),
        or ``None`` when no shard runs a pipeline.  The process
        backend's ledgers live inside the worker processes (each maps
        its own shard) and are not reported here."""
        if self._fused is not None:
            return self._fused.store_stats
        per_shard = [
            shard.store_stats
            for shard in self._shards
            if shard.store_stats is not None
        ]
        if not per_shard:
            return None
        total = StoreStats()
        for stats in per_shard:
            total = total + stats
        return total

    def close(self) -> None:
        """Release backend resources: the process backend's worker
        pool, any self-spilled store directory and the chunk
        pipelines' fetch threads.  Terminal for a process-backed
        solver, which cannot serve further requests (the engine drops
        and rebuilds solvers instead of reusing closed ones).
        Idempotent."""
        if self._runner is not None:
            self._runner.close()
        for kernel in (*self._shards, self._fused):
            if kernel is not None:
                kernel.close()
        spill, self._spill_tmp = self._spill_tmp, None
        if spill is not None:
            spill.cleanup()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def shard_partials(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
    ) -> list[tuple[PartialOutput, OpStats]]:
        """Per-shard ``(partial, stats)`` pairs, in shard order.

        This is the unit of work a real deployment fans out; empty
        shards contribute the merge identity and zero counters.  The
        process backend computes them in worker processes against the
        spilled store, the fused kernel computes all of them in one
        tiled sweep, and the serial backend loops over per-shard
        kernels; results arrive in shard order in every case, so
        downstream merges are order-deterministic.
        """
        if self._runner is not None:
            return self._runner.run(u, zero_skip=zero_skip)
        if self._fused is not None:
            return self._fused.shard_partials(u, zero_skip=zero_skip)
        return [shard.partial_output(u, zero_skip=zero_skip) for shard in self._shards]

    def partial_output(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
    ) -> tuple[PartialOutput, OpStats]:
        """Merged partial state plus aggregate counters.

        Mirrors :meth:`ColumnMemNN.partial_output`, so a sharded
        engine composes anywhere a column engine does (e.g. as one
        node of a larger cluster reduction).
        """
        partial, stats, _ = self._merged(u, zero_skip)
        return partial, stats

    def output(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
        u_tile: np.ndarray | None = None,
        at: tuple | None = None,
    ) -> InferenceResult:
        """Response vectors via shard fan-out + exact merge.  With
        ``u_tile``, an engine hop as ``ColumnMemNN.output``'s: the shards
        scan ``u_tile`` and the merged partial's divide ends the hop
        (:func:`~repro.core.column.end_hop`; ``at`` is not needed)."""
        start = time.perf_counter()
        partial, stats, shard_stats = self._merged(
            u if u_tile is None else u_tile, zero_skip
        )
        output = partial.finalize()
        if u_tile is not None:
            end_hop(u, u_tile, output)
        store_stats = self.store_stats
        return InferenceResult(
            output=output,
            stats=stats,
            shard_stats=shard_stats,
            elapsed_seconds=time.perf_counter() - start,
            store_stats=store_stats.snapshot() if store_stats is not None else None,
        )

    def _merged(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None,
    ) -> tuple[PartialOutput, OpStats, list[OpStats]]:
        pairs = self.shard_partials(u, zero_skip=zero_skip)
        merged = merge_partials([partial for partial, _ in pairs])
        shard_stats = [stats for _, stats in pairs]
        total = OpStats()
        for stats in shard_stats:
            total = total + stats
        total = total + self._merge_stats(merged.weighted.shape)
        return merged, total, shard_stats

    def _merge_stats(self, shape: tuple[int, int]) -> OpStats:
        """Cost of the coordinator's reduce: (K-1) max-rescaled merges
        of an ``O(nq x ed)`` partial — the negligible-synchronization
        claim of §3.1, made countable."""
        nq, ed = shape
        merges = self.plan.num_shards - 1
        # Per merge: rescale+add the numerator (4*nq*ed), plus the
        # max/scale/denominator work (~6*nq).
        return OpStats(flops=int(merges * (4 * nq * ed + 6 * nq)))
