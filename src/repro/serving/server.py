"""A multi-tenant QA serving simulator (the §2.2.3 scenario, executable).

Service times come from the platform models — inference cost from
:class:`~repro.perf.cpu.CpuModel` for the configured engine, embedding
cost per word from the DRAM model, through the dedicated embedding
cache when one is attached (§3.3) — and queueing runs on the
discrete-event kernel: a pool of workers serves the merged
question/story stream.  :meth:`QaServer.run` is the only event loop,
and every request lives one lifecycle in it::

    arrive → admit (bounded backlog) → [questions: batcher] → queue for
    a worker (deadline-aware) → embed → hop loop → release → outcome
             ↑___ backoff ___ shed / timed out queued, attempts left

A story is served on its own; a question is served in whatever batch
the :class:`~repro.batching.ContinuousBatcher` forms under
``config.engine.batch`` — at the default ``max_batch_size=1`` every
question dispatches on submit, so an unbatched server is the same code
serving batches of one.  The rules, identical for every batch size:

* **admission** — ``admission.max_queue`` bounds, and the degradation
  policy observes, the *backlog*: every admitted request (story,
  question in the batcher, member of a formed batch) not yet granted a
  worker.  An arrival at a full backlog is shed.
* **deadlines** are per attempt (``enqueue + deadline``).  The batcher
  never coalesces a question past its deadline; a batch (or story)
  waits for a worker no longer than its *latest* member deadline;
  members already expired at the grant are timed out without being
  charged compute; a watchdog cancels the service, releasing the
  worker, when the last live member's deadline passes; members whose
  own deadline lapsed before the batch finished count as timed out
  (the batch still ran — that compute is spent).
* **retries** — a shed or queue-timed-out attempt with attempts left
  backs off (``RetryConfig.backoff``) and re-enters admission; a
  question re-enters through the batcher, into a later batch.  A
  request timed out *in service* is not retried.
* **service** — one worker per batch.  Embedding is charged per member
  and each hop at ``hop_seconds(threshold, batch_size=<members still
  running>)``: the memory stream once per batch, compute per question.
  Following Fig. 4, inference slows by a per-story factor while story
  ingest is in service and the streams share the LLC (zero when the
  embedding cache isolates them).
* **degradation** — the level in effect when a batch finishes
  embedding sets ``th_skip``, the hop count and the early-exit
  threshold for the whole batch, and is recorded on every member's
  trace: the server sheds *compute* before it sheds *requests*.
* **early exit** — after hops ``min_hops … hops-1`` each member still
  running retires with probability ``exit_rate_for_threshold(effective
  threshold)``, sampled from the server's ``rng``; the batch ends when
  its last member retires and every member completes when the batch
  does.  ``BatchSample.hop_survivors`` holds the realised counts;
  :meth:`QaServer.expected_hop_survivors`, ``inference_seconds`` and
  ``plan`` stay the pure expected model.

Every request carries a :class:`~repro.serving.trace.RequestTrace`
span record (``queue`` → ``embed`` → ``hop<k>``, ``backoff`` between
attempts, then completed / shed / timeout) that feeds the metrics
registry, and every formed batch a
:class:`~repro.serving.metrics.BatchSample`.  :class:`ServerConfig`
embeds the repo-wide :class:`~repro.core.config.EngineConfig`
(algorithm / chunking / zero-skip / batching flow from one object) and
an optional :class:`~repro.core.config.EmbeddingCacheConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..batching.batcher import (
    _TIME_EPS,  # deadline comparisons share the batcher's float slop
    BatchFormation,
    ContinuousBatcher,
    FormedBatch,
)
from ..core.config import (
    FLOAT_BYTES,
    EmbeddingCacheConfig,
    EngineConfig,
    MemNNConfig,
)
from ..core.plan import InferencePlan, plan_inference
from ..core.plan import expected_hop_survivors as _plan_survivors
from ..core.sharded import ShardPlan
from ..memsim.embedding_cache import EmbeddingCache
from ..perf.cpu import CpuModel
from ..perf.events import (
    Acquire,
    Release,
    Resource,
    Simulator,
    Timeout,
    WaitFor,
)
from .metrics import BatchSample, LatencySample, ServingMetrics
from .policy import (
    AdmissionConfig,
    DegradationConfig,
    DegradationPolicy,
    RetryConfig,
    exit_rate_for_threshold,
    skip_ratio_for_threshold,
)
from .requests import QuestionRequest, StoryRequest, Workload
from .trace import RequestTrace

__all__ = ["ServerConfig", "QaServer", "cpu_algorithm"]


@dataclass(frozen=True)
class _Attempt:
    """One admission attempt of one request: what the batcher queues
    and a worker serves."""

    request: QuestionRequest | StoryRequest
    trace: RequestTrace
    enqueued: float
    deadline: float | None  # absolute: enqueued + the per-attempt budget


def cpu_algorithm(engine: EngineConfig) -> str:
    """Map an :class:`EngineConfig` onto the CPU-model variant name.

    The timing model speaks the paper's four-variant vocabulary
    (:data:`repro.perf.cpu.ALGORITHMS`); the engine config factors the
    same space into algorithm × streaming × zero-skip.  A ``sharded``
    engine maps to its per-shard column variant — the fan-out itself
    (max-of-shards + merge) is modelled by
    :meth:`QaServer.hop_seconds`.
    """
    if engine.algorithm == "baseline":
        return "baseline"
    if not engine.chunk.streaming:
        return "column"
    if engine.zero_skip.enabled:
        return "mnnfast"
    return "column_streaming"


class ServerConfig:
    """Serving-side configuration (API v2).

    Attributes:
        network: the MemNN being served.
        engine: the inference engine configuration — algorithm,
            chunking, zero-skipping and softmax form flow from this one
            object (the same :class:`EngineConfig` the rest of the repo
            uses).
        workers: worker threads serving requests.
        embedding_cache: geometry of the dedicated embedding cache
            (§3.3), or ``None`` for no cache (shared-LLC contention).
        contention_per_embedding_worker: fractional inference slowdown
            per concurrently-serviced story request when streams share
            the LLC (Fig. 4's slope; ignored when isolated).
        sram_lookup_seconds: embedding-cache hit cost per word.
        disk_bandwidth: sequential-stream bandwidth (bytes/s) of the
            disk tier an out-of-core engine pages ``M_IN``/``M_OUT``
            from (default 2 GB/s, NVMe-class).  Charged separately
            from DRAM bandwidth: each hop streams the bytes the
            resident-chunk tier cannot hold, and with prefetching the stream overlaps
            compute (the slower of the two bounds the hop) instead of
            serializing with it.
        deadline: per-attempt deadline in seconds — a request times out
            while queued or in service once this budget is exhausted.
            ``None`` disables deadlines.
        admission: bounded-queue load shedding policy.
        retry: retry-with-backoff policy for shed/timed-out requests.
        degradation: graceful-degradation policy (tightens ``th_skip``
            and cuts hops as queue depth grows).
    """

    def __init__(
        self,
        network: MemNNConfig | None = None,
        engine: EngineConfig | None = None,
        workers: int = 4,
        embedding_cache: EmbeddingCacheConfig | None = None,
        contention_per_embedding_worker: float = 0.08,
        sram_lookup_seconds: float = 20e-9,
        disk_bandwidth: float = 2e9,
        deadline: float | None = None,
        admission: AdmissionConfig | None = None,
        retry: RetryConfig | None = None,
        degradation: DegradationConfig | None = None,
    ) -> None:
        self.network = (
            network
            if network is not None
            else MemNNConfig(
                embedding_dim=48, num_sentences=20_000, num_questions=1,
                vocab_size=30_000,
            )
        )

        # Cross-field engine invariants (sharding x execution x store x
        # top-k) surface here, at composition time, not mid-simulation.
        self.engine = (
            engine if engine is not None else EngineConfig.mnnfast()
        ).validate()
        self.embedding_cache = embedding_cache
        self.workers = workers
        self.contention_per_embedding_worker = contention_per_embedding_worker
        self.sram_lookup_seconds = sram_lookup_seconds
        self.disk_bandwidth = disk_bandwidth
        self.deadline = deadline
        self.admission = admission if admission is not None else AdmissionConfig()
        self.retry = retry if retry is not None else RetryConfig()
        self.degradation = (
            degradation if degradation is not None else DegradationConfig()
        )

        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.disk_bandwidth <= 0:
            raise ValueError("disk_bandwidth must be positive")
        if self.contention_per_embedding_worker < 0:
            raise ValueError("contention factor must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")

    @property
    def algorithm(self) -> str:
        """The CPU-model variant name the engine config maps onto."""
        return cpu_algorithm(self.engine)

    def __repr__(self) -> str:
        return (
            f"ServerConfig(algorithm={self.algorithm!r}, "
            f"workers={self.workers}, "
            f"embedding_cache={self.embedding_cache is not None}, "
            f"deadline={self.deadline}, "
            f"max_queue={self.admission.max_queue}, "
            f"retries={self.retry.max_retries}, "
            f"degradation={self.degradation.enabled})"
        )


class QaServer:
    """Simulate a QA server over a request workload."""

    def __init__(
        self,
        config: ServerConfig,
        cpu: CpuModel | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.cpu = cpu if cpu is not None else CpuModel()
        self.dram = self.cpu.dram
        self.rng = np.random.default_rng(seed)
        self.embedding_cache = (
            EmbeddingCache(config.embedding_cache)
            if config.embedding_cache is not None
            else None
        )
        self._cpu_algorithm = cpu_algorithm(config.engine)
        # §2.2.3 co-runner bandwidth sharing: the pool's workers stream
        # M_IN/M_OUT from the *same* socket, so each worker's hop is
        # entitled to a 1/workers share of the aggregate DRAM bandwidth
        # (cf. DramModel.loaded_transfer_time).  This is what makes the
        # memory stream the bottleneck at batch size 1 — and what
        # batching amortizes.
        self._worker_cpu = replace(
            self.cpu,
            dram=replace(
                self.cpu.dram,
                channel_bandwidth=self.cpu.dram.channel_bandwidth
                / max(1, config.workers),
            ),
        )
        # (threshold, batch size) -> one-hop inference seconds on one worker.
        self._hop_seconds_cache: dict[tuple[float, int], float] = {}

    # --- service-time models -------------------------------------------------------

    def embedding_word_seconds(self, word_id: int) -> float:
        """Cost of one dictionary lookup, through the cache if present."""
        vector_bytes = self.config.network.embedding_dim * 4
        dram_cost = self.dram.access_latency + vector_bytes / self.dram.peak_bandwidth
        if self.embedding_cache is None:
            return dram_cost
        if self.embedding_cache.probe(word_id):
            return self.config.sram_lookup_seconds
        return dram_cost + self.config.sram_lookup_seconds

    def _embedding_seconds(self, words: int) -> float:
        vocab = self.config.network.vocab_size
        total = 0.0
        for _ in range(words):
            # Zipf-distributed word IDs: natural-language locality.
            rank = min(int(self.rng.zipf(1.2)), vocab)
            total += self.embedding_word_seconds(rank - 1)
        return total

    def shard_plan(self, num_rows: int | None = None) -> ShardPlan | None:
        """The memory partition the engine fans one hop out over, or
        ``None`` when unsharded — the *same* plan
        :class:`~repro.core.sharded.ShardedMemNN` executes, so the
        latency model and the numerics agree on shard geometry.

        ``num_rows`` overrides the network's sentence count: under the
        top-k tier the kernel shards the *candidate subset*, not the
        full memory.
        """
        engine = self.config.engine
        if engine.num_shards <= 1:
            return None
        if num_rows is None:
            num_rows = self.config.network.num_sentences
        return ShardPlan(num_rows, engine.num_shards, engine.shard_policy)

    def shard_merge_seconds(
        self, plan: ShardPlan, batch_size: int | None = None
    ) -> float:
        """Coordinator cost of the exact merge: a tree reduction of
        ``O(nq x ed)`` partials (numerator + denominator + running
        max), each round one partial-sized transfer plus an access.

        ``batch_size`` overrides the network's ``nq`` (a served batch
        merges one partial per shard for the whole batch).
        """
        if plan.num_shards <= 1:
            return 0.0
        network = self.config.network
        nq = batch_size if batch_size is not None else network.num_questions
        partial_bytes = (
            nq * network.embedding_dim + 2 * nq
        ) * FLOAT_BYTES
        rounds = math.ceil(math.log2(plan.num_shards))
        per_round = (
            self.dram.access_latency + partial_bytes / self.dram.peak_bandwidth
        )
        return rounds * per_round

    def disk_stream_seconds(self, num_rows: int | None = None) -> float:
        """Per-hop disk-tier transfer time of an out-of-core engine.

        Each hop streams the whole ``M_IN``/``M_OUT`` footprint; the
        resident-chunk tier holds ``resident_bytes`` of it in RAM, so
        only the overflow pages in from disk — charged against the
        dedicated ``disk_bandwidth``, not the DRAM channel model.  The
        executed tier reads the same bytes on every pass after the
        first, to within one chunk (the scan-resistant admission of
        :meth:`~repro.store.prefetch.ChunkPrefetcher.chunks`).
        Zero for resident engines.  ``num_rows`` overrides the row
        count — under the top-k tier only the candidate rows page in.
        """
        store = self.config.engine.store
        if not store.out_of_core:
            return 0.0
        network = self.config.network
        rows = num_rows if num_rows is not None else network.num_sentences
        footprint = 2 * rows * network.embedding_dim * FLOAT_BYTES
        disk_bytes = max(0, footprint - (store.resident_bytes or 0))
        return disk_bytes / self.config.disk_bandwidth

    def probe_gather_seconds(self, batch_size: int | None = None) -> float:
        """Per-hop cost of the top-k retrieval tier ahead of attention.

        Two stages, zero when the engine's index is disabled or in
        exact-scan fallback:

        * **probe** — scoring the batch against the centroid table,
          ``2 x nq x nlist x ed`` FLOPs on one core overlapped with the
          centroid stream (roofline max of the two);
        * **gather** — pulling the candidate rows of ``M_IN``/``M_OUT``
          out of DRAM.  The probed clusters land scattered across the
          memory, so each candidate row is a latency-bound random
          access (:meth:`~repro.memsim.dram.DramModel.random_access_time`),
          not a sequential stream — the price the tier pays for reading
          ``candidates`` rows instead of ``ns``.

        Candidate count follows the batch-union model
        (:meth:`~repro.core.config.TopKConfig.expected_candidates`):
        one kernel pass serves the whole batch, over the union of every
        member's probed clusters.
        """
        engine = self.config.engine
        network = self.config.network
        ns = network.num_sentences
        if not engine.topk.uses_index(ns):
            return 0.0
        nq = batch_size if batch_size is not None else network.num_questions
        ed = network.embedding_dim
        nlist = engine.topk.effective_nlist(ns)
        probe = max(
            2.0 * nq * nlist * ed / self._worker_cpu.flops_per_core,
            self._worker_cpu.dram.transfer_time(nlist * ed * FLOAT_BYTES),
        )
        candidates = engine.topk.expected_candidates(ns, batch_size=nq)
        row_bytes = ed * FLOAT_BYTES
        gather = self._worker_cpu.dram.random_access_time(
            2 * candidates, row_bytes
        )
        return probe + gather

    def hop_seconds(
        self, threshold: float | None = None, batch_size: int | None = None
    ) -> float:
        """Cost of one inference hop on one worker thread.

        ``threshold`` overrides the engine's zero-skip threshold — the
        knob the degradation policy turns; it only matters for the
        full-MnnFast variant (zero-skipping enabled).  ``batch_size``
        overrides the network's question count ``nq``: the CPU model
        charges the ``M_IN``/``M_OUT`` stream once per *pass* while
        compute scales with ``nq``, so a larger batch amortizes the
        memory traffic — the cost model :meth:`run` charges
        batches with.

        With a sharded engine the hop fans out over the execution
        backend's *measured* per-shard concurrency
        (:meth:`~repro.core.config.ExecutionConfig.shard_concurrency`):
        the shards execute in ``ceil(K / concurrency)`` waves, each
        wave as long as its largest shard, then the coordinator pays
        the merge cost of the exact lazy-softmax reduction.  Only the
        process backend reports concurrency above 1; serial and fused
        shards are costed sequentially.

        With an out-of-core store the hop additionally streams the
        non-resident ``M_IN``/``M_OUT`` bytes from the disk tier
        (:meth:`disk_stream_seconds`): with prefetching the stream
        overlaps compute (the hop costs the *slower* of the two —
        §3.1's load/compute overlap applied to the disk tier), without
        it the stream serializes ahead of compute.

        With the top-k tier enabled (and the memory above its
        exact-scan fallback), the hop first pays
        :meth:`probe_gather_seconds` (centroid probe + candidate
        gather), and every downstream stage — exact kernel, shard plan,
        disk stream — is costed over the expected *candidate* rows
        rather than the full memory.
        """
        if threshold is None:
            threshold = self.config.engine.zero_skip.threshold
        network = self.config.network
        nq = batch_size if batch_size is not None else network.num_questions
        if nq < 1:
            raise ValueError(f"batch_size must be positive, got {nq}")
        key = (threshold, nq)
        if key not in self._hop_seconds_cache:
            engine = self.config.engine
            rows = network.num_sentences
            retrieval = 0.0
            if engine.topk.uses_index(rows):
                # The top-k tier probes the index and gathers the
                # candidate rows; the exact kernel then scans only the
                # (batch-union) candidate set instead of the full memory.
                retrieval = self.probe_gather_seconds(batch_size=nq)
                rows = max(1, engine.topk.expected_candidates(rows, batch_size=nq))
                network = replace(network, num_sentences=rows)
            plan = self.shard_plan(num_rows=rows)
            if nq != network.num_questions:
                network = replace(network, num_questions=nq)
            merge = 0.0
            if plan is not None:
                # Shards run in waves of the backend's measured
                # per-shard concurrency; each wave's critical path is
                # its largest shard.
                concurrency = engine.execution.shard_concurrency()
                waves = -(-plan.num_shards // concurrency)
                network = replace(
                    network,
                    num_sentences=max(1, plan.max_shard_rows * waves),
                )
                merge = self.shard_merge_seconds(plan, batch_size=nq)
            compute = self._worker_cpu.run(
                network,
                self._cpu_algorithm,
                threads=1,
                chunk=engine.chunk,
                skip_ratio=skip_ratio_for_threshold(threshold),
            ).total_seconds
            disk = self.disk_stream_seconds(num_rows=rows)
            if disk > 0.0:
                if engine.store.prefetch_depth > 0:
                    compute = max(compute, disk)
                else:
                    compute = compute + disk
            self._hop_seconds_cache[key] = retrieval + compute + merge
        return self._hop_seconds_cache[key]

    def expected_hop_survivors(
        self,
        batch_size: int,
        hops: int | None = None,
        exit_threshold: float | None = None,
    ) -> list[int]:
        """Expected questions still running at each hop under the gate.

        Delegates to the pure survivor model in
        :func:`repro.core.plan.expected_hop_survivors`, calibrating
        the gate threshold into a per-check exit rate with
        :func:`~repro.serving.policy.exit_rate_for_threshold` — entry
        ``h`` is the batch size hop ``h`` is expected to be charged at.
        :meth:`run` samples exits per member instead and realises this
        shape on average.  With the gate disabled (``exit_threshold`` 0) every entry is
        ``batch_size``.
        """
        if hops is None:
            hops = self.config.network.hops
        early_exit = self.config.engine.early_exit
        if exit_threshold is None:
            exit_threshold = early_exit.threshold
        return _plan_survivors(
            batch_size,
            hops,
            min_hops=early_exit.min_hops,
            exit_rate=exit_rate_for_threshold(exit_threshold),
        )

    def plan(
        self,
        batch_size: int | None = None,
        chunks: tuple[int, ...] | None = None,
    ) -> InferencePlan:
        """The :class:`~repro.core.plan.InferencePlan` of one question
        batch on this server — the placement-facing description a
        cluster router scores replicas against.

        The server (not core) owns the threshold→rate calibration of
        the early-exit gate, so the plan's ``exit_rate`` is
        :func:`~repro.serving.policy.exit_rate_for_threshold` of the
        configured gate threshold.  ``chunks`` narrows planned chunk
        coverage when the caller knows the pass's rows cluster.
        """
        network = self.config.network
        engine = self.config.engine
        nq = batch_size if batch_size is not None else network.num_questions
        rows = network.num_sentences
        candidates = (
            engine.topk.expected_candidates(rows, batch_size=nq)
            if engine.topk.enabled
            else rows
        )
        return plan_inference(
            num_rows=rows,
            embedding_dim=network.embedding_dim,
            batch_size=nq,
            chunk_size=engine.chunk.chunk_size,
            hops=network.hops,
            min_hops=engine.early_exit.min_hops,
            exit_rate=(
                exit_rate_for_threshold(engine.early_exit.threshold)
                if engine.early_exit.enabled
                else 0.0
            ),
            candidate_rows=candidates,
            chunks=chunks,
            num_shards=engine.num_shards,
            shard_policy=engine.shard_policy,
        )

    def inference_seconds(
        self,
        threshold: float | None = None,
        hops: int | None = None,
        batch_size: int | None = None,
        exit_threshold: float | None = None,
    ) -> float:
        """Inference cost of one question batch on one worker thread.

        ``exit_threshold`` overrides the engine's early-exit gate
        threshold (``None`` — the degradation policy's other lever):
        with the gate active each hop is charged at its expected
        survivor count (:meth:`expected_hop_survivors`) instead of the
        full batch, and hops the whole batch is expected to have
        exited before cost nothing.
        """
        if hops is None:
            hops = self.config.network.hops
        network = self.config.network
        nq = batch_size if batch_size is not None else network.num_questions
        survivors = self.expected_hop_survivors(
            nq, hops=hops, exit_threshold=exit_threshold
        )
        return sum(
            self.hop_seconds(threshold, batch_size=rows)
            for rows in survivors
            if rows >= 1
        )

    def question_embed_seconds(self, request: QuestionRequest) -> float:
        return self._embedding_seconds(request.words)

    def question_service_seconds(self, request: QuestionRequest) -> float:
        return self.question_embed_seconds(request) + self.inference_seconds()

    def story_service_seconds(self, request: StoryRequest) -> float:
        return self._embedding_seconds(request.total_words)

    # --- simulation -------------------------------------------------------------------

    def run(self, workload: Workload) -> ServingMetrics:
        """Serve a workload to completion; returns the metrics registry.

        The one lifecycle and its rules are the module docstring's.
        Batch formation is arrival-driven — dispatch on full /
        ``max_wait`` / deadline, never delayed by worker availability —
        and forced dispatches are timers on the event kernel, so a
        retried question re-enters formation like a fresh arrival.
        ``simulated_seconds`` is the time of the last outcome.  A
        request that is neither a question nor a story raises
        ``TypeError`` before the first event.
        """
        config = self.config
        for request in workload.requests:
            if not isinstance(request, (QuestionRequest, StoryRequest)):
                raise TypeError(f"unknown request type: {request!r}")
        sim = Simulator()
        pool = Resource(sim, capacity=config.workers, name="workers")
        metrics = ServingMetrics()
        batcher = ContinuousBatcher(config.engine.batch)
        # Never fed an observation when degradation is off, the policy
        # stays at level 0: the engine's own thresholds and hop count.
        policy = DegradationPolicy(
            config.degradation, config.engine, config.network.hops
        )
        isolated = self.embedding_cache is not None
        state = {"backlog": 0, "embedding_in_service": 0}

        def conclude(trace: RequestTrace, outcome: str) -> None:
            trace.finish(outcome)
            if outcome == "completed":
                metrics.completed += 1
            elif outcome == "shed":
                metrics.shed += 1
            else:
                metrics.timed_out += 1
            # The run ends at its last outcome, not at whatever stale
            # timer (watchdog, forced dispatch) drains from the heap last.
            metrics.simulated_seconds = sim.now

        def retry_or(request, trace: RequestTrace, outcome: str) -> None:
            """Back off and re-enter admission, or settle on ``outcome``."""
            if trace.attempts > config.retry.max_retries:
                conclude(trace, outcome)
                return
            delay = config.retry.backoff(trace.attempts)
            metrics.retries += 1
            trace.add_span("backoff", sim.now, sim.now + delay)
            trace.attempts += 1
            sim.spawn(admit(request, trace, delay), name="retry")

        def launch(batch: FormedBatch | None) -> None:
            if batch is not None:
                sim.spawn(serve(batch.items, batch.formation), name="batch")

        def dispatch_due() -> None:
            launch(batcher.poll(sim.now))

        def admit(request, trace: RequestTrace, delay: float):
            """One admission attempt, ``delay`` seconds from now."""
            yield Timeout(delay)
            max_queue = config.admission.max_queue
            if max_queue is not None and state["backlog"] >= max_queue:
                retry_or(request, trace, "shed")
                return
            if config.degradation.enabled:
                policy.observe(state["backlog"])
            state["backlog"] += 1
            budget = config.deadline if request.deadline is None else request.deadline
            attempt = _Attempt(
                request, trace, sim.now, None if budget is None else sim.now + budget
            )
            if trace.kind == "story":
                sim.spawn(serve((attempt,)), name="story")
                return
            batch = batcher.submit(attempt, now=sim.now, deadline=attempt.deadline)
            launch(batch)
            if batch is None:
                # This submit fixed the queue's forced-dispatch time (a
                # later one re-arms); a timer left behind by a batch
                # that already went out polls to no effect.
                sim.schedule(
                    max(0.0, batcher.next_forced_dispatch() - sim.now), dispatch_due
                )

        def serve(members, formation: BatchFormation | None = None):
            """Queue for a worker, serve, settle: one story (no
            ``formation``) or one formed question batch."""
            story = formation is None
            deadlines = [m.deadline for m in members]
            cutoff = None if None in deadlines else max(deadlines)
            granted = yield Acquire(
                pool, timeout=None if cutoff is None else max(0.0, cutoff - sim.now)
            )
            state["backlog"] -= len(members)
            start = sim.now
            live = []
            for m in members:
                if granted and (m.deadline is None or m.deadline >= start - _TIME_EPS):
                    m.trace.add_span("queue", m.enqueued, start)
                    live.append(m)
                else:  # timed out queued: not charged, may retry
                    m.trace.add_span("queue", m.enqueued, min(start, m.deadline))
                    retry_or(m.request, m.trace, "timeout")
            survivors: list[int] = []
            if live:
                metrics.admitted += len(live)
                if story:
                    state["embedding_in_service"] += 1
                work = sim.spawn(service(live, story, survivors))
                if cutoff is not None:
                    # The deadline watchdog: cancelling a finished
                    # process is a no-op.
                    sim.schedule(
                        max(0.0, cutoff - start),
                        lambda: sim.cancel(work, "deadline"),
                    )
                yield WaitFor(work)
                if story:
                    state["embedding_in_service"] -= 1
                yield Release(pool)
                for m in live:
                    lapsed = m.deadline is not None and m.deadline < sim.now - _TIME_EPS
                    if work.cancelled or lapsed:
                        conclude(m.trace, "timeout")
                    else:
                        conclude(m.trace, "completed")
                        metrics.add(
                            LatencySample(
                                m.trace.kind, m.request.arrival, start, sim.now
                            )
                        )
            if not story:
                metrics.record_batch(
                    BatchSample(
                        formed_at=formation.formed_at,
                        size=formation.size,
                        capacity=formation.capacity,
                        queue_waits=formation.queue_waits,
                        deadline_slacks=formation.deadline_slacks,
                        service_start=start,
                        service_end=sim.now,
                        served=len(live),
                        hop_survivors=tuple(survivors),
                    )
                )

        def service(live, story: bool, survivors: list[int]):
            """The cancellable part of :func:`serve`: the worker's compute."""
            if story:
                (m,) = live
                t0 = sim.now
                yield Timeout(self.story_service_seconds(m.request))
                m.trace.add_span("embed", t0, sim.now)
                return
            slowdown = 1.0
            if not isolated:
                slowdown += (
                    config.contention_per_embedding_worker
                    * state["embedding_in_service"]
                )
            t0 = sim.now
            yield Timeout(
                sum(self.question_embed_seconds(m.request) for m in live) * slowdown
            )
            threshold, hops = policy.effective()
            exit_rate = exit_rate_for_threshold(policy.effective_exit_threshold())
            for m in live:
                m.trace.add_span("embed", t0, sim.now)
                m.trace.degradation_level = policy.level
            min_exit_hops = config.engine.early_exit.min_hops
            running = live
            for hop in range(hops):
                if not running:
                    break
                survivors.append(len(running))
                t0 = sim.now
                yield Timeout(
                    self.hop_seconds(threshold, batch_size=len(running)) * slowdown
                )
                for m in running:
                    m.trace.add_span(f"hop{hop}", t0, sim.now)
                # Confidence-gated early exit, sampled per member at the
                # expected rate: the gate checks after hops
                # min_hops .. hops-1 (never the last hop).
                if exit_rate > 0.0 and min_exit_hops <= hop + 1 < hops:
                    running = [m for m in running if self.rng.random() >= exit_rate]
            metrics.question_hops_run += sum(survivors)
            metrics.question_hops_full += hops * len(live)

        for rid, request in enumerate(workload.requests):
            kind = "question" if isinstance(request, QuestionRequest) else "story"
            trace = RequestTrace(rid, kind, arrival=request.arrival)
            metrics.traces.append(trace)
            metrics.arrivals += 1
            sim.spawn(admit(request, trace, request.arrival), name=f"request-{rid}")

        sim.run()
        metrics.degradation_peak_level = policy.peak_level
        metrics.degradation_transitions = policy.transitions
        metrics.degradation_final_level = policy.level
        metrics.reconcile()
        return metrics
