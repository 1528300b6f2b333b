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
  1e-10).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..store.base import MemoryStore, StoreStats
from ..store.mmap_store import MmapStore
from ..store.prefetch import ChunkPrefetcher
from ..store.resident import ResidentStore
from .column import (
    ColumnMemNN,
    PartialOutput,
    check_dtype,
    column_op_stats,
    exp_floor,
    keep_mask,
)
from .config import ChunkConfig, ExecutionConfig, ZeroSkipConfig
from .execution import ProcessShardRunner, run_shard_partials
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
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard must be in [0, {self.num_shards}), got {shard}"
            )
        if self.policy == "contiguous":
            bounds = self._bounds()
            return np.arange(bounds[shard], bounds[shard + 1])
        return np.arange(shard, self.num_rows, self.num_shards)

    def _bounds(self) -> np.ndarray:
        return np.linspace(0, self.num_rows, self.num_shards + 1, dtype=int)

    def shard_rows(self, shard: int) -> int:
        """Number of rows in ``shard``."""
        return len(self.indices(shard))

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
    """The fused batchxshard tile kernel (DESIGN.md §15).

    The per-shard chunk loop issues one ``(nq x c)`` score GEMM per
    shard per chunk — ``K`` small BLAS calls per sweep step, with
    GIL-bound Python bookkeeping between them.  This kernel
    restructures the sweep: memory rows stream in *global tiles* of
    ``chunk_size x K`` rows, each tile's scores against **all** shards
    are one ``np.matmul`` (the nqxchunk matmul of ``answer_batch``,
    extended to fold shards), and only the cheap ``O(nq)``-state
    updates (running max, rescale, exp, per-shard second GEMM) happen
    per shard segment.  Parallelism belongs to BLAS's own threads
    inside that one big call — no Python fan-out, no GIL contention.

    Per-shard partial semantics are preserved exactly: every shard
    keeps its own ``(weighted, denom, log_max)`` accumulator and
    row-kept counter, updated from its segment of each tile, so the
    output is a list of per-shard ``(PartialOutput, OpStats)`` pairs
    that merge in shard order like any other backend's.  The rescale
    cadence differs from the per-shard loop (segments are tile∩shard,
    not shard-local chunks), so agreement with the per-shard path is
    the documented 1e-10 of any chunk-geometry change, not bitwise;
    the kernel itself is deterministic.  One semantic caveat:
    ``"probability"``-mode zero-skip decides against the running
    denominator *at decision time*, which any chunk-geometry change
    shifts (sharding itself already does, vs. unsharded column mode) —
    those masks agree to the skip approximation's threshold scale, not
    1e-10.  ``"exp"``-mode masks compare raw scores only and match the
    per-shard path exactly.

    Works over resident arrays (zero-copy tile views) or a memory
    store (tiles stream through a :class:`ChunkPrefetcher` sized to
    the tile, keeping the LRU/prefetch ledger).
    """

    def __init__(
        self,
        plan: ShardPlan,
        chunk: ChunkConfig,
        dtype,
        m_in: np.ndarray | None = None,
        m_out: np.ndarray | None = None,
        store: MemoryStore | None = None,
        resident_bytes: int | None = None,
        prefetch_depth: int = 0,
        tile_rows: int | None = None,
    ) -> None:
        self.plan = plan
        self.chunk_size = chunk.chunk_size
        #: Global rows per tile.  Default geometry: one shard-chunk's
        #: worth from every shard, so a full sweep runs the same number
        #: of tile steps as the per-shard loop runs chunk steps.  An
        #: explicit ``tile_rows`` (ExecutionConfig.fused_tile_rows)
        #: decouples the tile from the chunk geometry — tile size only
        #: moves the running-max rescale boundaries (~1e-10 agreement).
        self.tile_rows = (
            tile_rows
            if tile_rows is not None
            else max(1, self.chunk_size * plan.num_shards)
        )
        if self.tile_rows < 1:
            raise ValueError(f"tile_rows must be >= 1, got {self.tile_rows}")
        self.dtype = dtype
        if store is not None:
            self._store: MemoryStore = store
        else:
            self._store = ResidentStore(m_in, m_out, dtype=dtype)
        self._pipeline: ChunkPrefetcher | None = None
        if store is not None or resident_bytes is not None or prefetch_depth > 0:
            self._pipeline = ChunkPrefetcher(
                self._store,
                chunk_size=self.tile_rows,
                resident_bytes=resident_bytes,
                prefetch_depth=prefetch_depth,
            )
        self._exp_floor = exp_floor(dtype)
        self._bounds = (
            plan._bounds() if plan.policy == "contiguous" else None
        )

    @property
    def store_stats(self) -> StoreStats | None:
        return self._pipeline.stats if self._pipeline is not None else None

    def close(self) -> None:
        if self._pipeline is not None:
            self._pipeline.close()

    def _segments(self, t0: int, n: int):
        """``(shard, column selector)`` for every shard with rows in
        the tile ``[t0, t0 + n)`` — a contiguous sub-slice per shard
        under range sharding, a ``step=K`` stride under round-robin.
        Selectors index both the tile's score columns and its rows."""
        if self._bounds is not None:
            bounds = self._bounds
            for k in range(self.plan.num_shards):
                lo = max(int(bounds[k]), t0)
                hi = min(int(bounds[k + 1]), t0 + n)
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
        stable: bool = True,
    ) -> list[tuple[PartialOutput, OpStats]]:
        """Per-shard ``(partial, stats)`` pairs in shard order — the
        same contract as the per-shard backends, produced by the tiled
        sweep."""
        u = np.asarray(u, dtype=self.dtype)
        if u.ndim == 1:
            u = u[None, :]
        if u.ndim != 2 or u.shape[1] != self._store.embedding_dim:
            raise ValueError(
                f"questions must be (nq, {self._store.embedding_dim}), "
                f"got {u.shape}"
            )
        nq, ed = u.shape
        ns = self.plan.num_rows
        num_shards = self.plan.num_shards
        dtype = self.dtype
        skipping = zero_skip is not None and zero_skip.enabled
        tile = min(self.tile_rows, ns) if ns else 1

        # Per-shard accumulator state, exactly one ColumnMemNN partial
        # per shard (rows are views into these stacked arrays).
        log_max = (
            np.full((num_shards, nq), -np.inf, dtype=dtype)
            if stable
            else np.zeros((num_shards, nq), dtype=dtype)
        )
        denom = np.zeros((num_shards, nq), dtype=dtype)
        acc = np.zeros((num_shards, nq, ed), dtype=dtype)
        rows_kept = [0] * num_shards

        # Tile-wide workspaces (allocated once per sweep).
        scores_ws = np.empty((nq, tile), dtype=dtype)
        contrib = np.empty((nq, ed), dtype=dtype)
        seg_max = np.empty(nq, dtype=dtype)
        new_max = np.empty(nq, dtype=dtype)
        exp_ws = np.empty((nq, tile), dtype=dtype) if skipping else None

        if self._pipeline is not None:
            tile_source = self._pipeline.chunks()
        else:
            store = self._store
            tile_source = (
                store.read_chunk(start, start + tile)
                for start in range(0, ns, tile)
            )
        t0 = 0
        for tile_in, tile_out in tile_source:
            n = tile_in.shape[0]
            scores = scores_ws[:, :n]
            # THE fused call: one score GEMM covering every shard's
            # rows in this tile.
            np.matmul(u, tile_in.T, out=scores)
            for k, sel in self._segments(t0, n):
                seg = scores[:, sel]
                k_log_max, k_denom, k_acc = log_max[k], denom[k], acc[k]
                if stable:
                    seg.max(axis=1, out=seg_max)
                    np.maximum(k_log_max, seg_max, out=new_max)
                    if not np.array_equal(new_max, k_log_max):
                        with np.errstate(invalid="ignore"):
                            scale = np.where(
                                np.isneginf(k_log_max),
                                0.0,
                                np.exp(k_log_max - new_max),
                            )
                        k_denom *= scale
                        k_acc *= scale[:, None]
                        k_log_max[:] = new_max
                    exp_seg = exp_ws[:, sel] if skipping else seg
                    np.subtract(seg, k_log_max[:, None], out=exp_seg)
                else:
                    exp_seg = exp_ws[:, sel] if skipping else seg
                    if exp_seg is not seg:
                        np.copyto(exp_seg, seg)
                np.maximum(exp_seg, self._exp_floor, out=exp_seg)
                np.exp(exp_seg, out=exp_seg)
                k_denom += exp_seg.sum(axis=1)
                keep = keep_mask(seg, k_denom, k_log_max, stable, zero_skip)
                if keep is None:
                    rows_kept[k] += nq * seg.shape[1]
                else:
                    rows_kept[k] += int(np.count_nonzero(keep))
                    np.multiply(exp_seg, keep, out=exp_seg)
                np.matmul(exp_seg, tile_out[sel], out=contrib)
                k_acc += contrib
            t0 += n

        return [
            (
                PartialOutput(
                    weighted=acc[k], denom=denom[k], log_max=log_max[k]
                ),
                column_op_stats(
                    nq,
                    self.plan.shard_rows(k),
                    ed,
                    rows_kept[k],
                    self.chunk_size,
                    dtype,
                ),
            )
            for k in range(num_shards)
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
        m_in: ``(ns, ed)`` input memory ``M_IN``.
        m_out: ``(ns, ed)`` output memory ``M_OUT``.
        num_shards: shard count ``K``.
        policy: row-partition policy (see :class:`ShardPlan`).
        chunk: per-shard chunking configuration.
        dtype: compute precision, applied to every shard.
        execution: execution backend.  ``"serial"``/``"thread"`` run
            the per-shard chunk loop on the calling thread or a thread
            pool (the latter measured *slower* — see
            :mod:`repro.core.execution`); ``"process"`` fans shards
            out to worker processes that ``mmap`` a spilled
            :class:`~repro.store.MmapStore` (passed as ``store=``, or
            spilled here from resident arrays into a solver-owned temp
            directory); ``fused=True`` (serial only) runs the
            batchxshard tile kernel.  All backends produce per-shard
            partials that merge in shard order; process is
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
        if store is not None:
            if m_in is not None or m_out is not None:
                raise ValueError("pass either (m_in, m_out) or store=, not both")
            dtype = check_dtype(store.dtype)
            self.plan = ShardPlan(store.num_rows, num_shards, policy)
            self._embedding_dim = store.embedding_dim
        else:
            if m_in is None or m_out is None:
                raise ValueError("memories required: pass (m_in, m_out) or store=")
            dtype = check_dtype(dtype)
            m_in = np.asarray(m_in)
            m_out = np.asarray(m_out)
            if m_in.ndim != 2 or m_out.ndim != 2:
                raise ValueError("memories must be 2-D (ns, ed)")
            if m_in.shape != m_out.shape:
                raise ValueError(
                    f"M_IN and M_OUT shapes differ: {m_in.shape} vs {m_out.shape}"
                )
            self.plan = ShardPlan(m_in.shape[0], num_shards, policy)
            self._embedding_dim = m_in.shape[1]
        self.dtype = dtype
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
            if store is not None and not isinstance(store, MmapStore):
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
                MmapStore.save(store_path, m_in, m_out, dtype=dtype).close()
            self._runner = ProcessShardRunner(
                str(store_path),
                self.plan.num_shards,
                self.plan.policy,
                self.chunk.chunk_size,
                execution.num_workers,
                execution.worker_blas_threads(),
            )
        elif execution is not None and execution.fused:
            self._fused = _FusedShardKernel(
                self.plan,
                self.chunk,
                dtype,
                m_in=m_in,
                m_out=m_out,
                store=store,
                resident_bytes=resident_bytes,
                prefetch_depth=prefetch_depth,
                tile_rows=execution.fused_tile_rows,
            )
        elif store is not None:
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
                    m_in[idx],
                    m_out[idx],
                    chunk=self.chunk,
                    dtype=dtype,
                    resident_bytes=shard_budget,
                    prefetch_depth=prefetch_depth,
                )
                for idx in self.plan
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
        stable: bool = True,
    ) -> list[tuple[PartialOutput, OpStats]]:
        """Per-shard ``(partial, stats)`` pairs, in shard order.

        This is the unit of work a real deployment fans out; empty
        shards contribute the merge identity and zero counters.  The
        process backend computes them in worker processes against the
        spilled store, the fused kernel computes all of them in one
        tiled sweep, and the serial/thread backends loop (or pool)
        over per-shard kernels; results arrive in shard order in every
        case, so downstream merges are order-deterministic.
        """
        if self._runner is not None:
            return self._runner.run(u, zero_skip=zero_skip, stable=stable)
        if self._fused is not None:
            return self._fused.shard_partials(u, zero_skip=zero_skip, stable=stable)
        return run_shard_partials(
            self._shards,
            u,
            zero_skip=zero_skip,
            stable=stable,
            execution=self.execution,
        )

    def partial_output(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
        stable: bool = True,
    ) -> tuple[PartialOutput, OpStats]:
        """Merged partial state plus aggregate counters.

        Mirrors :meth:`ColumnMemNN.partial_output`, so a sharded
        engine composes anywhere a column engine does (e.g. as one
        node of a larger cluster reduction).
        """
        partial, stats, _ = self._merged(u, zero_skip, stable)
        return partial, stats

    def output(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
        stable: bool = True,
    ) -> InferenceResult:
        """Response vectors via shard fan-out + exact merge."""
        start = time.perf_counter()
        partial, stats, shard_stats = self._merged(u, zero_skip, stable)
        output = partial.finalize()
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
        stable: bool,
    ) -> tuple[PartialOutput, OpStats, list[OpStats]]:
        pairs = self.shard_partials(u, zero_skip=zero_skip, stable=stable)
        merged = pairs[0][0]
        for partial, _ in pairs[1:]:
            merged = merged.merge(partial)
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
