"""The cluster simulator: arrivals → router → replicas → ledgers.

An event-driven replay of an offered-load stream over a replica
fleet.  Each arrival is turned into an
:class:`~repro.core.plan.InferencePlan` (the planner half of the
planner/executor split — placement reasons about the pass without
running it), routed by the configured policy, and executed on the
chosen replica: its chunks stream through that replica's LRU and the
service time comes out of the replica's :class:`QaServer` cost model
plus the miss traffic.  Replicas serve FIFO, so each request's start
time is the replica's ``free_at`` horizon when it is placed.

Two placement modes:

* ``"replicated"`` — every replica holds the full store (zero-copy
  views of one shared base); the router picks exactly one.  This is
  the mode cache-affinity routing and the autoscaler operate in.
* ``"sharded"`` — the store is split into chunk-aligned contiguous
  shards, one per replica; every request fans out to *all* of them
  and completes at the slowest shard plus the cluster model's
  tree-reduce cost (§5.3: partials are ``nq × ed``, sync is
  negligible — now visible as a measured fraction, not a claim).

The autoscaler observes total backlog on a fixed tick; scale-ups add
a cold replica (empty LRU — new capacity pays its warm-up), scale-
downs drain the highest-id replica (it finishes its queue but the
router stops feeding it).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..core.config import ChunkConfig, EngineConfig, MemNNConfig
from ..core.plan import InferencePlan, plan_inference
from ..perf.cluster import ClusterModel
from ..serving.metrics import LatencySample
from ..serving.server import QaServer, ServerConfig
from ..serving.trace import RequestTrace
from ..store.base import RowSubsetStore
from ..store.resident import ResidentStore
from .autoscaler import Autoscaler
from .metrics import ClusterMetrics
from .replica import Replica
from .router import Router, RoutingPolicy
from .workload import ClusterRequest

__all__ = ["ClusterConfig", "ClusterSim"]

_MODES = ("replicated", "sharded")


@dataclass(frozen=True)
class ClusterConfig:
    """Geometry and policy of one simulated cluster.

    Attributes:
        num_rows: memory rows in the (logical) store.
        embedding_dim: embedding width.
        chunk_size: chunk geometry shared by plans, prefetchers and
            the serving cost model.
        hops: hops per question.
        replicas: initial replica count (shard count in sharded
            mode).
        mode: ``"replicated"`` or ``"sharded"`` (see module docs).
        resident_bytes: per-replica LRU byte budget; ``None``
            disables the RAM tier entirely (pure streaming — every
            chunk is a miss), matching
            :class:`~repro.store.prefetch.ChunkPrefetcher`.
        max_queue: per-replica backlog bound; arrivals routed to a
            full replica are shed.
        disk_bandwidth: backing-tier stream bandwidth (bytes/s) LRU
            misses are charged at.
        seed: seed for the store's contents (deterministic runs).
    """

    num_rows: int = 32_000
    embedding_dim: int = 32
    chunk_size: int = 500
    hops: int = 1
    replicas: int = 4
    mode: str = "replicated"
    resident_bytes: int | None = None
    max_queue: int = 64
    disk_bandwidth: float = 2e9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_rows < 1 or self.embedding_dim < 1:
            raise ValueError("store geometry must be positive")
        if self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")

    @property
    def total_chunks(self) -> int:
        return -(-self.num_rows // self.chunk_size)


# Event ordering at equal times: departures free capacity before the
# autoscaler looks, and both before new arrivals are placed.
_DEPART, _TICK, _ARRIVAL = 0, 1, 2


class ClusterSim:
    """Replay a request stream over a routed, autoscaled fleet."""

    def __init__(
        self,
        config: ClusterConfig,
        policy: RoutingPolicy | str = "cache_affinity",
        autoscaler: Autoscaler | None = None,
        tick_interval: float = 1.0,
    ) -> None:
        if config.mode == "sharded" and autoscaler is not None:
            raise ValueError(
                "autoscaling operates on replicated fleets; a sharded "
                "fleet's size is its shard count"
            )
        if tick_interval <= 0:
            raise ValueError(
                f"tick_interval must be > 0, got {tick_interval}"
            )
        self.config = config
        self.router = Router(policy)
        self.autoscaler = autoscaler
        self.tick_interval = tick_interval
        self.cluster_model = ClusterModel()
        rng = np.random.default_rng(config.seed)
        shape = (config.num_rows, config.embedding_dim)
        self._base = ResidentStore(
            rng.standard_normal(shape), rng.standard_normal(shape)
        )
        self.replicas: list[Replica] = []
        if config.mode == "replicated":
            for _ in range(config.replicas):
                self._add_replica()
        else:
            self._build_shards()

    # --- fleet construction ---------------------------------------------------

    def _server(self, num_rows: int) -> QaServer:
        """The per-replica cost backend: this replica's rows, engine
        kept resident (the replica charges its own miss traffic)."""
        config = self.config
        return QaServer(
            ServerConfig(
                network=MemNNConfig(
                    embedding_dim=config.embedding_dim,
                    num_sentences=max(1, num_rows),
                    num_questions=1,
                    vocab_size=1000,
                    hops=config.hops,
                ),
                engine=EngineConfig(
                    chunk=ChunkConfig(chunk_size=config.chunk_size),
                ),
                workers=1,
                disk_bandwidth=config.disk_bandwidth,
            )
        )

    def _add_replica(self) -> Replica:
        """Grow the fleet by one cold full-copy replica."""
        replica = Replica(
            replica_id=len(self.replicas),
            server=self._server(self.config.num_rows),
            store=self._base,
            chunk_size=self.config.chunk_size,
            resident_bytes=self.config.resident_bytes,
        )
        self.replicas.append(replica)
        return replica

    def _build_shards(self) -> None:
        """Chunk-aligned contiguous shards, one replica each."""
        config = self.config
        chunks_per_shard = -(-config.total_chunks // config.replicas)
        for shard in range(config.replicas):
            first = shard * chunks_per_shard
            if first >= config.total_chunks:
                break
            last = min(first + chunks_per_shard, config.total_chunks)
            row_lo = first * config.chunk_size
            row_hi = min(last * config.chunk_size, config.num_rows)
            view = RowSubsetStore(self._base, range(row_lo, row_hi))
            self.replicas.append(
                Replica(
                    replica_id=shard,
                    server=self._server(row_hi - row_lo),
                    store=view,
                    chunk_size=config.chunk_size,
                    resident_bytes=config.resident_bytes,
                    chunk_base=first,
                )
            )

    # --- planning -------------------------------------------------------------

    def plan_request(self, request: ClusterRequest) -> InferencePlan:
        """The placement-facing plan of one request (pure)."""
        config = self.config
        return plan_inference(
            num_rows=config.num_rows,
            embedding_dim=config.embedding_dim,
            batch_size=request.batch_size,
            chunk_size=config.chunk_size,
            hops=config.hops,
            chunks=tuple(sorted(request.chunks)),
        )

    # --- the run --------------------------------------------------------------

    def run(self, requests: list[ClusterRequest]) -> ClusterMetrics:
        """Serve the stream to completion; returns reconciled metrics."""
        metrics = ClusterMetrics()
        events: list[tuple[float, int, int, object]] = []
        seq = 0
        for request in requests:
            heapq.heappush(
                events, (request.arrival, _ARRIVAL, seq, request)
            )
            seq += 1
        if self.autoscaler is not None and requests:
            horizon = max(r.arrival for r in requests)
            t = self.tick_interval
            while t <= horizon:
                heapq.heappush(events, (t, _TICK, seq, None))
                seq += 1
                t += self.tick_interval
        metrics.replica_trace.append((0.0, len(self._routable())))

        last_finish = 0.0
        while events:
            now, kind, _, payload = heapq.heappop(events)
            if kind == _DEPART:
                payload.backlog -= 1  # type: ignore[union-attr]
            elif kind == _TICK:
                self._autoscale(now, metrics)
            else:
                seq = self._arrive(now, payload, metrics, events, seq)
            last_finish = max(last_finish, now)

        metrics.simulated_seconds = max(
            last_finish, max((r.free_at for r in self.replicas), default=0.0)
        )
        metrics.replicas = {
            r.replica_id: r.metrics for r in self.replicas
        }
        if self.autoscaler is not None:
            metrics.decisions = list(self.autoscaler.decisions)
        metrics.reconcile()
        return metrics

    def _routable(self) -> list[Replica]:
        return [r for r in self.replicas if not r.draining]

    def _arrive(
        self,
        now: float,
        request: ClusterRequest,
        metrics: ClusterMetrics,
        events: list,
        seq: int,
    ) -> int:
        plan = self.plan_request(request)
        metrics.arrivals += 1
        if self.config.mode == "sharded":
            targets = self._routable()
            if any(r.backlog >= self.config.max_queue for r in targets):
                metrics.shed += 1
                return seq
            # Fan out to every shard; the request completes at the
            # slowest shard plus the tree-reduce of the partials.
            finishes = []
            starts = []
            passes = []
            for replica in targets:
                start = max(now, replica.free_at)
                executed = replica.execute(plan)
                replica.free_at = start + executed.seconds
                replica.backlog += 1
                heapq.heappush(
                    events, (replica.free_at, _DEPART, seq, replica)
                )
                seq += 1
                starts.append(start)
                finishes.append(replica.free_at)
                passes.append(executed)
            reduce_cost = self.cluster_model.reduce_seconds(
                MemNNConfig(
                    embedding_dim=self.config.embedding_dim,
                    num_sentences=self.config.num_rows,
                    num_questions=request.batch_size,
                    vocab_size=1000,
                ),
                len(targets),
            )
            finish = max(finishes) + reduce_cost
            for executed in passes:
                metrics.lru_hits += executed.lru_hits
                metrics.lru_misses += executed.lru_misses
            # The coordinator books the request on replica 0's ledger.
            self._settle(
                targets[0], request, now, min(starts), finish, metrics
            )
            return seq

        replica = self.router.route(plan, self.replicas)
        if replica.backlog >= self.config.max_queue:
            metrics.shed += 1
            return seq
        start = max(now, replica.free_at)
        replica.backlog += 1
        deadline_at = (
            request.arrival + request.deadline
            if request.deadline is not None
            else None
        )
        if deadline_at is not None and start >= deadline_at:
            # Expires while queued: it leaves the queue at its
            # deadline without consuming service time.
            replica.metrics.arrivals += 1
            replica.metrics.timed_out += 1
            trace = RequestTrace(
                request_id=metrics.arrivals - 1,
                kind="question",
                arrival=now,
            )
            trace.add_span("queue", now, deadline_at)
            trace.finish("timeout")
            replica.metrics.traces.append(trace)
            heapq.heappush(events, (deadline_at, _DEPART, seq, replica))
            return seq + 1
        executed = replica.execute(plan)
        metrics.lru_hits += executed.lru_hits
        metrics.lru_misses += executed.lru_misses
        finish = start + executed.seconds
        replica.free_at = finish
        heapq.heappush(events, (finish, _DEPART, seq, replica))
        self._settle(replica, request, now, start, finish, metrics)
        return seq + 1

    def _settle(
        self,
        replica: Replica,
        request: ClusterRequest,
        arrival: float,
        start: float,
        finish: float,
        metrics: ClusterMetrics,
    ) -> None:
        """Book one placed request's terminal outcome on a ledger."""
        ledger = replica.metrics
        ledger.arrivals += 1
        trace = RequestTrace(
            request_id=metrics.arrivals - 1, kind="question", arrival=arrival
        )
        trace.add_span("queue", arrival, start)
        trace.add_span("hop0", start, finish)
        deadline_at = (
            request.arrival + request.deadline
            if request.deadline is not None
            else None
        )
        if deadline_at is not None and finish > deadline_at:
            ledger.timed_out += 1
            trace.finish("timeout")
        else:
            ledger.completed += 1
            ledger.add(
                LatencySample(
                    kind="question",
                    arrival=arrival,
                    start=start,
                    finish=finish,
                )
            )
            trace.finish("completed")
        ledger.traces.append(trace)

    def _autoscale(self, now: float, metrics: ClusterMetrics) -> None:
        assert self.autoscaler is not None
        routable = self._routable()
        backlog = sum(r.backlog for r in routable)
        desired = self.autoscaler.observe(now, backlog, len(routable))
        if desired > len(routable):
            for _ in range(desired - len(routable)):
                # Reactivate a drained replica before paying for a
                # cold one (its LRU is still warm).
                drained = [r for r in self.replicas if r.draining]
                if drained:
                    drained[-1].draining = False
                else:
                    self._add_replica()
            metrics.replica_trace.append((now, len(self._routable())))
        elif desired < len(routable):
            victims = sorted(routable, key=lambda r: r.replica_id)
            for replica in victims[desired:]:
                replica.draining = True
            metrics.replica_trace.append((now, len(self._routable())))
