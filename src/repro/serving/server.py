"""A multi-tenant QA serving simulator (the §2.2.3 scenario, executable).

Ties the repository's substrates together:

* **service times** come from the platform models: inference cost from
  :class:`~repro.perf.cpu.CpuModel` for the configured engine,
  embedding cost per word from the DRAM model — through the dedicated
  embedding cache when one is attached (§3.3);
* **queueing** runs on the discrete-event kernel: a pool of worker
  threads serves the merged question/story stream;
* **contention** follows Fig. 4: while story-ingest (embedding) work is
  in service without isolation, concurrent inference service is slowed
  by a per-embedding-worker factor (zero when the embedding cache
  isolates the streams);
* **robustness** comes from the policy layer: a bounded admission
  queue sheds overload, per-request deadlines time requests out while
  queued (deadline-aware ``Acquire``) or in service (kernel
  cancellation via a watchdog process), shed/timed-out requests retry
  with exponential backoff, and the degradation policy trades
  attention fidelity (``th_skip``, hop count) for latency as queue
  depth grows — shedding *compute* instead of *requests*.

Every request carries a :class:`~repro.serving.trace.RequestTrace`
span record (enqueue → admit → embed → per-hop inference → respond /
shed / timeout) that feeds the metrics registry.

The configuration surface is unified with the rest of the repo:
:class:`ServerConfig` embeds an :class:`~repro.core.config.EngineConfig`
(algorithm / chunking / zero-skip flow from one object) and an optional
:class:`~repro.core.config.EmbeddingCacheConfig`.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..batching.batcher import ContinuousBatcher, FormedBatch

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
    Cancelled,
    Process,
    Release,
    Resource,
    Simulator,
    Timeout,
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

        ``batch_size`` overrides the network's ``nq`` (the batched
        service mode merges one partial per shard for the whole
        batch).
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
        memory traffic — the cost model the batched service mode
        schedules with.

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
        ``h`` is the batch size hop ``h`` is charged at, the
        shrinking-GEMM accounting :meth:`run_batched` schedules with.
        With the gate disabled (``exit_threshold`` 0) every entry is
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
        """Serve a workload to completion; returns the metrics registry."""
        config = self.config
        sim = Simulator()
        pool = Resource(sim, capacity=config.workers, name="workers")
        metrics = ServingMetrics()
        state = {"embedding_in_service": 0, "queued": 0}
        isolated = self.embedding_cache is not None
        policy = (
            DegradationPolicy(config.degradation, config.engine, config.network.hops)
            if config.degradation.enabled
            else None
        )
        handles: dict[int, Process] = {}

        def deadline_watchdog(rid: int, fire_at: float, served: dict):
            delay = fire_at - sim.now
            if delay > 0:
                yield Timeout(delay)
            if not served["done"]:
                sim.cancel(handles[rid], "deadline")

        def request_process(rid: int, request):
            if isinstance(request, QuestionRequest):
                kind = "question"
            elif isinstance(request, StoryRequest):
                kind = "story"
            else:
                raise TypeError(f"unknown request type: {request!r}")
            trace = RequestTrace(rid, kind, arrival=request.arrival)
            metrics.traces.append(trace)
            metrics.arrivals += 1
            deadline = (
                request.deadline if request.deadline is not None else config.deadline
            )
            yield Timeout(request.arrival)

            attempt = 1
            while True:
                trace.attempts = attempt
                enqueue_at = sim.now

                # --- admission: bounded queue sheds overload -------------
                if (
                    config.admission.max_queue is not None
                    and state["queued"] >= config.admission.max_queue
                ):
                    if attempt <= config.retry.max_retries:
                        delay = config.retry.backoff(attempt)
                        metrics.retries += 1
                        trace.add_span("backoff", sim.now, sim.now + delay)
                        attempt += 1
                        yield Timeout(delay)
                        continue
                    trace.finish("shed")
                    metrics.shed += 1
                    return
                if policy is not None:
                    policy.observe(state["queued"])

                # --- queue for a worker, deadline-aware ------------------
                state["queued"] += 1
                granted = yield Acquire(pool, timeout=deadline)
                state["queued"] -= 1
                trace.add_span("queue", enqueue_at, sim.now)
                if granted is False:  # timed out while queued
                    if attempt <= config.retry.max_retries:
                        delay = config.retry.backoff(attempt)
                        metrics.retries += 1
                        trace.add_span("backoff", sim.now, sim.now + delay)
                        attempt += 1
                        yield Timeout(delay)
                        continue
                    trace.finish("timeout")
                    metrics.timed_out += 1
                    return

                # --- in service ------------------------------------------
                metrics.admitted += 1
                start = sim.now
                served = {"done": False}
                watchdog = (
                    sim.spawn(
                        deadline_watchdog(rid, enqueue_at + deadline, served),
                        name=f"watchdog-{rid}",
                    )
                    if deadline is not None
                    else None
                )
                counted_embedding = False
                try:
                    if kind == "question":
                        slowdown = 1.0
                        if not isolated:
                            slowdown += (
                                config.contention_per_embedding_worker
                                * state["embedding_in_service"]
                            )
                        t0 = sim.now
                        yield Timeout(
                            self.question_embed_seconds(request) * slowdown
                        )
                        trace.add_span("embed", t0, sim.now)
                        if policy is not None:
                            threshold, hops = policy.effective()
                            exit_threshold = policy.effective_exit_threshold()
                            trace.degradation_level = policy.level
                        else:
                            threshold = config.engine.zero_skip.threshold
                            hops = config.network.hops
                            exit_threshold = config.engine.early_exit.threshold
                        exit_rate = exit_rate_for_threshold(exit_threshold)
                        min_exit_hops = config.engine.early_exit.min_hops
                        per_hop = self.hop_seconds(threshold) * slowdown
                        hops_run = 0
                        for hop in range(hops):
                            t0 = sim.now
                            yield Timeout(per_hop)
                            trace.add_span(f"hop{hop}", t0, sim.now)
                            hops_run += 1
                            # Confidence-gated early exit, sampled at the
                            # expected rate: the gate checks after hops
                            # min_hops .. hops-1 (never the last hop).
                            if (
                                exit_rate > 0.0
                                and min_exit_hops <= hop + 1 < hops
                                and self.rng.random() < exit_rate
                            ):
                                break
                        metrics.question_hops_run += hops_run
                        metrics.question_hops_full += hops
                    else:
                        state["embedding_in_service"] += 1
                        counted_embedding = True
                        t0 = sim.now
                        yield Timeout(self.story_service_seconds(request))
                        trace.add_span("embed", t0, sim.now)
                        state["embedding_in_service"] -= 1
                        counted_embedding = False
                except Cancelled:
                    # Deadline expired mid-service: the watchdog threw us
                    # out.  Release the worker and record the timeout.
                    if counted_embedding:
                        state["embedding_in_service"] -= 1
                    yield Release(pool)
                    trace.finish("timeout")
                    metrics.timed_out += 1
                    return

                served["done"] = True
                if watchdog is not None:
                    sim.cancel(watchdog)
                yield Release(pool)
                trace.finish("completed")
                metrics.completed += 1
                metrics.add(LatencySample(kind, request.arrival, start, sim.now))
                return

        for rid, request in enumerate(workload.requests):
            handles[rid] = sim.spawn(
                request_process(rid, request), name=f"request-{rid}"
            )

        metrics.simulated_seconds = sim.run()
        if policy is not None:
            metrics.degradation_peak_level = policy.peak_level
            metrics.degradation_transitions = policy.transitions
            metrics.degradation_final_level = policy.level
        metrics.reconcile()
        return metrics

    def run_batched(self, workload: Workload) -> ServingMetrics:
        """Serve a workload with continuous question batching.

        Questions are coalesced by a deadline-aware
        :class:`~repro.batching.ContinuousBatcher` under the engine's
        :class:`~repro.core.config.BatchConfig`
        (``config.engine.batch``); each formed batch occupies **one**
        worker and is charged the memory stream once per batch but
        embedding and hop compute per question
        (:meth:`hop_seconds` with ``batch_size`` — the amortized cost
        model).  Story-ingest requests are served individually, as in
        :meth:`run`.

        Policy interaction:

        * ``admission.max_queue`` bounds the questions awaiting service
          (in the batcher plus in formed batches still waiting for a
          worker) — arrivals beyond it are shed immediately (no
          retries in batched mode);
        * per-request deadlines are honored three times: at batch
          formation (a request is never coalesced past its admission
          deadline), at worker grant (already-expired members are
          timed out without charging their compute) and at completion
          (members whose deadline lapses mid-batch count as timed out
          — the batch still runs; that compute is already spent);
        * the degradation policy's *early-exit lever* is wired into
          batched service: under backlog it raises the gate threshold
          (:meth:`~repro.serving.policy.DegradationPolicy.effective_exit_threshold`)
          and each hop is charged at its expected survivor count
          (:meth:`expected_hop_survivors`) — a shrinking GEMM, so the
          server sheds *hops* before it sheds *requests*.  The
          ``th_skip``/hop-count levers apply as in :meth:`run`;
          retries remain the unbatched mode's domain.

        Batch formation is arrival-driven (dispatch on full /
        ``max_wait`` / deadline — worker availability never delays
        formation), run by a source process on the event kernel so
        admission control can observe the live backlog.  Every served
        batch lands in ``metrics.batches`` as a
        :class:`~repro.serving.metrics.BatchSample`.
        """
        config = self.config
        policy = config.engine.batch
        sim = Simulator()
        pool = Resource(sim, capacity=config.workers, name="workers")
        metrics = ServingMetrics()
        # queued_questions: submitted to the batcher but not yet granted
        # a worker — the backlog admission control bounds.
        state = {
            "embedding_in_service": 0,
            "queued_questions": 0,
            "batches_launched": 0,
        }
        isolated = self.embedding_cache is not None
        degradation = (
            DegradationPolicy(config.degradation, config.engine, config.network.hops)
            if config.degradation.enabled
            else None
        )

        rid_of: dict[int, int] = {}
        for rid, request in enumerate(workload.requests):
            if isinstance(request, QuestionRequest):
                kind = "question"
            elif isinstance(request, StoryRequest):
                kind = "story"
            else:
                raise TypeError(f"unknown request type: {request!r}")
            metrics.traces.append(RequestTrace(rid, kind, arrival=request.arrival))
            metrics.arrivals += 1
            rid_of[id(request)] = rid

        batcher = ContinuousBatcher(policy)

        def launch(batch: FormedBatch) -> None:
            index = state["batches_launched"]
            state["batches_launched"] += 1
            sim.spawn(batch_process(batch), name=f"batch-{index}")

        def question_source():
            """Walk the arrival stream, honoring forced dispatches.

            Sleeps until each arrival, waking at every
            ``next_forced_dispatch`` time on the way — the contract
            that no request is coalesced past its deadline.
            """
            for request in workload.questions:
                while True:
                    forced = batcher.next_forced_dispatch()
                    if forced is None or forced > request.arrival + 1e-12:
                        break
                    if forced > sim.now:
                        yield Timeout(forced - sim.now)
                    batch = batcher.poll(sim.now)
                    if batch is not None:
                        launch(batch)
                if request.arrival > sim.now:
                    yield Timeout(request.arrival - sim.now)
                trace = metrics.traces[rid_of[id(request)]]
                if (
                    config.admission.max_queue is not None
                    and state["queued_questions"] >= config.admission.max_queue
                ):
                    trace.finish("shed")
                    metrics.shed += 1
                    continue
                if degradation is not None:
                    degradation.observe(state["queued_questions"])
                deadline = (
                    request.deadline
                    if request.deadline is not None
                    else config.deadline
                )
                absolute = (
                    request.arrival + deadline if deadline is not None else None
                )
                state["queued_questions"] += 1
                batch = batcher.submit(request, now=sim.now, deadline=absolute)
                if batch is not None:
                    launch(batch)
            # End of stream: drain the tail at its forced-dispatch times.
            while batcher.queue_depth:
                forced = batcher.next_forced_dispatch()
                if forced is not None and forced > sim.now:
                    yield Timeout(forced - sim.now)
                batch = batcher.poll(sim.now)
                if batch is None:  # pragma: no cover — poll fires at forced
                    batch = batcher.flush(sim.now)
                launch(batch)

        def batch_process(batch: FormedBatch):
            formation = batch.formation
            yield Acquire(pool)
            start = sim.now
            state["queued_questions"] -= len(batch.entries)
            live = [
                entry
                for entry in batch.entries
                if entry.deadline is None or entry.deadline >= start - 1e-12
            ]
            for entry in batch.entries:
                if entry in live:
                    continue
                trace = metrics.traces[rid_of[id(entry.item)]]
                trace.add_span("queue", entry.item.arrival, entry.deadline)
                trace.finish("timeout")
                metrics.timed_out += 1
            if not live:
                yield Release(pool)
                metrics.record_batch(
                    BatchSample(
                        formed_at=formation.formed_at,
                        size=formation.size,
                        capacity=formation.capacity,
                        queue_waits=formation.queue_waits,
                        deadline_slacks=formation.deadline_slacks,
                        service_start=start,
                        service_end=start,
                        served=0,
                    )
                )
                return
            metrics.admitted += len(live)
            slowdown = 1.0
            if not isolated:
                slowdown += (
                    config.contention_per_embedding_worker
                    * state["embedding_in_service"]
                )
            embed_start = sim.now
            yield Timeout(
                sum(self.question_embed_seconds(e.item) for e in live) * slowdown
            )
            embed_end = sim.now
            if degradation is not None:
                threshold, hops = degradation.effective()
                exit_threshold = degradation.effective_exit_threshold()
            else:
                threshold = config.engine.zero_skip.threshold
                hops = config.network.hops
                exit_threshold = config.engine.early_exit.threshold
            # Ragged-depth accounting: hop h runs at its expected
            # survivor count, so the GEMM (and its charged seconds)
            # shrinks as gated questions retire.
            survivors = self.expected_hop_survivors(
                len(live), hops=hops, exit_threshold=exit_threshold
            )
            hop_spans = []
            for hop, rows in enumerate(survivors):
                if rows < 1:
                    break
                hop_start = sim.now
                yield Timeout(
                    self.hop_seconds(threshold, batch_size=rows) * slowdown
                )
                hop_spans.append((f"hop{hop}", hop_start, sim.now))
            metrics.question_hops_run += sum(survivors)
            metrics.question_hops_full += hops * len(live)
            yield Release(pool)
            finish = sim.now
            for entry in live:
                trace = metrics.traces[rid_of[id(entry.item)]]
                trace.add_span("queue", entry.item.arrival, start)
                trace.add_span("embed", embed_start, embed_end)
                for name, hop_start, hop_end in hop_spans:
                    trace.add_span(name, hop_start, hop_end)
                if entry.deadline is not None and entry.deadline < finish - 1e-12:
                    trace.finish("timeout")
                    metrics.timed_out += 1
                else:
                    trace.finish("completed")
                    metrics.completed += 1
                    metrics.add(
                        LatencySample(
                            "question", entry.item.arrival, start, finish
                        )
                    )
            metrics.record_batch(
                BatchSample(
                    formed_at=formation.formed_at,
                    size=formation.size,
                    capacity=formation.capacity,
                    queue_waits=formation.queue_waits,
                    deadline_slacks=formation.deadline_slacks,
                    service_start=start,
                    service_end=finish,
                    served=len(live),
                    hop_survivors=(
                        tuple(survivors) if exit_threshold > 0.0 else ()
                    ),
                )
            )

        def story_process(request: StoryRequest):
            trace = metrics.traces[rid_of[id(request)]]
            deadline = (
                request.deadline if request.deadline is not None else config.deadline
            )
            yield Timeout(request.arrival)
            enqueue_at = sim.now
            granted = yield Acquire(pool, timeout=deadline)
            trace.add_span("queue", enqueue_at, sim.now)
            if granted is False:
                trace.finish("timeout")
                metrics.timed_out += 1
                return
            metrics.admitted += 1
            start = sim.now
            state["embedding_in_service"] += 1
            yield Timeout(self.story_service_seconds(request))
            state["embedding_in_service"] -= 1
            trace.add_span("embed", start, sim.now)
            yield Release(pool)
            trace.finish("completed")
            metrics.completed += 1
            metrics.add(LatencySample("story", request.arrival, start, sim.now))

        sim.spawn(question_source(), name="question-source")
        for request in workload.stories:
            sim.spawn(
                story_process(request), name=f"story-{rid_of[id(request)]}"
            )
        metrics.simulated_seconds = sim.run()
        if degradation is not None:
            metrics.degradation_peak_level = degradation.peak_level
            metrics.degradation_transitions = degradation.transitions
            metrics.degradation_final_level = degradation.level
        metrics.reconcile()
        return metrics
