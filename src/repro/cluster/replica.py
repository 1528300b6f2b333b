"""One serving replica: a cost server + its store view + a live LRU.

A :class:`Replica` is the unit the cluster places work on.  It owns

* a :class:`~repro.serving.server.QaServer` as its *cost backend* —
  the same analytical model single-node serving uses, so cluster
  latencies and single-node latencies come from one place;
* a view of the memory store — the full store in replicated mode, a
  contiguous chunk-aligned shard in sharded mode (zero-copy
  :class:`~repro.store.base.RowSubsetStore` over the shared base); and
* a :class:`~repro.store.prefetch.ChunkPrefetcher` whose budgeted
  resident-chunk LRU is the replica's RAM tier.  Its *live contents*
  (:meth:`resident_chunks`) are what cache-affinity routing scores
  against, and every executed plan pulls its chunks through it, so
  routing decisions and cache state co-evolve.

Executing an :class:`~repro.core.plan.InferencePlan` charges

``compute · (rows touched / rows owned)  +  LRU-miss bytes / disk_bw``

— attention compute is linear in the rows actually scanned (the
column dataflow), and chunks the LRU could not hold stream from the
backing tier at the server's disk bandwidth.  That second term is the
latency cache affinity monetizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.plan import InferencePlan
from ..serving.metrics import ServingMetrics
from ..serving.server import QaServer
from ..store.base import MemoryStore
from ..store.prefetch import ChunkPrefetcher

__all__ = ["Replica", "ReplicaPass"]


@dataclass(frozen=True)
class ReplicaPass:
    """Accounting of one plan executed on one replica.

    Attributes:
        planned_chunks: chunks the plan named (globally).
        touched_chunks: the subset this replica owns and streamed.
        lru_hits: touched chunks served from the resident-chunk LRU.
        lru_misses: touched chunks that fell through to the backing
            tier.
        miss_bytes: bytes those misses streamed.
        seconds: modeled service time of the pass on this replica.
    """

    planned_chunks: int
    touched_chunks: int
    lru_hits: int
    lru_misses: int
    miss_bytes: int
    seconds: float

    @property
    def hit_rate(self) -> float:
        touched = self.lru_hits + self.lru_misses
        return self.lru_hits / touched if touched else 0.0


class Replica:
    """A serving replica: cost server, store view, live chunk LRU.

    Args:
        replica_id: stable identity (router tie-breaks on it).
        server: the cost backend; its network config must describe
            *this replica's* rows (the shard's row count in sharded
            mode), and its engine config should keep the store
            resident — the replica charges its own miss traffic, so a
            store-enabled engine would double-count the disk tier.
        store: the rows this replica serves.
        chunk_size: chunk geometry (must match the plans routed here).
        resident_bytes: LRU byte budget (``None`` = everything fits).
        chunk_base: global index of this replica's first chunk —
            ``0`` in replicated mode, the shard group's offset in
            sharded mode (shards must be chunk-aligned).
    """

    def __init__(
        self,
        replica_id: int,
        server: QaServer,
        store: MemoryStore,
        chunk_size: int,
        resident_bytes: int | None = None,
        chunk_base: int = 0,
    ) -> None:
        if chunk_base < 0:
            raise ValueError(f"chunk_base must be >= 0, got {chunk_base}")
        self.replica_id = replica_id
        self.server = server
        self.store = store
        self.chunk_size = chunk_size
        self.chunk_base = chunk_base
        self.prefetcher = ChunkPrefetcher(
            store, chunk_size, resident_bytes=resident_bytes
        )
        self.metrics = ServingMetrics()
        # Scheduling state the simulator maintains.
        self.backlog = 0
        self.free_at = 0.0
        self.draining = False
        self._base_seconds: dict[int, float] = {}

    # --- placement-facing views ----------------------------------------------

    @property
    def num_chunks(self) -> int:
        """Chunks this replica owns."""
        full, tail = divmod(self.store.num_rows, self.chunk_size)
        return full + (1 if tail else 0)

    def owned_chunks(self, plan: InferencePlan) -> list[int]:
        """The plan's chunks that fall in this replica's range, as
        global indices."""
        low, high = self.chunk_base, self.chunk_base + self.num_chunks
        return [c for c in plan.chunks if low <= c < high]

    def resident_chunks(self) -> frozenset[int]:
        """Global chunk indices currently in the LRU — the live cache
        view the affinity policy intersects with a plan's chunks."""
        return frozenset(
            self.chunk_base + c
            for c in self.prefetcher.resident_chunk_ids()
        )

    def affinity(self, plan: InferencePlan) -> float:
        """Fraction of the plan's chunks already resident here."""
        if not plan.chunks:
            return 0.0
        resident = self.resident_chunks()
        return sum(1 for c in plan.chunks if c in resident) / len(plan.chunks)

    # --- execution ------------------------------------------------------------

    def execute(self, plan: InferencePlan) -> ReplicaPass:
        """Stream the plan's chunks through the LRU and model the
        pass's service time."""
        hits = misses = 0
        miss_bytes = 0
        rows_touched = 0
        rows = self.store.num_rows
        for chunk in self.owned_chunks(plan):
            local = chunk - self.chunk_base
            start = local * self.chunk_size
            stop = min(start + self.chunk_size, rows)
            pair, lru_hit = self.prefetcher.fetch((start, stop))
            rows_touched += stop - start
            if lru_hit:
                hits += 1
            else:
                misses += 1
                miss_bytes += pair[0].nbytes + pair[1].nbytes
        compute = self._compute_seconds(plan.batch_size)
        if rows:
            compute *= rows_touched / rows
        stream = miss_bytes / self.server.config.disk_bandwidth
        return ReplicaPass(
            planned_chunks=plan.num_chunks,
            touched_chunks=hits + misses,
            lru_hits=hits,
            lru_misses=misses,
            miss_bytes=miss_bytes,
            seconds=compute + stream,
        )

    def _compute_seconds(self, batch_size: int) -> float:
        """Full-store inference cost at this batch size, memoized —
        the deterministic part of the cost backend (no embedding
        RNG)."""
        cached = self._base_seconds.get(batch_size)
        if cached is None:
            cached = self.server.inference_seconds(batch_size=batch_size)
            self._base_seconds[batch_size] = cached
        return cached
