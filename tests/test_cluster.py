"""Tests for the cluster serving subsystem (ISSUE 8).

Covers the planner/executor split (plans describe exactly what
execution does), prefetcher LRU introspection, the three routing
policies (including the differential affinity-beats-round-robin
claim), autoscaler hysteresis properties, and the event-driven fleet
simulator's ledger reconciliation in both placement modes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    CacheAffinityPolicy,
    ClusterConfig,
    ClusterSim,
    LeastBacklogPolicy,
    Replica,
    RoundRobinPolicy,
    Router,
    burst_trace,
    diurnal_trace,
    requests_from_trace,
    skewed_workload,
    topic_chunks,
)
from repro.core import expected_hop_survivors, plan_inference
from repro.core.config import EngineConfig, MemNNConfig
from repro.core.engine import MnnFastEngine
from repro.serving import QaServer, ServerConfig
from repro.store import ChunkPrefetcher, ResidentStore

CHUNK_BYTES = 2 * 500 * 32 * 8


def small_config(replicas: int = 2, **overrides) -> ClusterConfig:
    defaults = dict(
        num_rows=8_000,
        embedding_dim=32,
        chunk_size=500,
        replicas=replicas,
        resident_bytes=4 * CHUNK_BYTES,
        disk_bandwidth=2e8,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


# --- the planner ---------------------------------------------------------------


class TestInferencePlan:
    def test_full_coverage_by_default(self):
        plan = plan_inference(num_rows=2_500, embedding_dim=16, chunk_size=1_000)
        assert plan.chunks == (0, 1, 2)
        assert plan.total_chunks == 3
        assert plan.chunk_rows_total == 2_500

    def test_survivor_schedule_matches_pure_model(self):
        plan = plan_inference(
            num_rows=100, embedding_dim=8, batch_size=64,
            hops=4, min_hops=1, exit_rate=0.5,
        )
        assert list(plan.survivors) == expected_hop_survivors(64, 4, 1, 0.5)
        assert plan.expected_hops < 4
        assert plan.executed_hops <= 4

    def test_gate_disabled_is_full_depth(self):
        survivors = expected_hop_survivors(32, 3, exit_rate=0.0)
        assert survivors == [32, 32, 32]

    def test_bytes_streamed_counts_both_memories(self):
        plan = plan_inference(
            num_rows=1_000, embedding_dim=10, chunk_size=500, hops=2
        )
        # 1000 rows x 10 wide x 4 bytes x 2 matrices x 2 hops
        assert plan.bytes_streamed == 1_000 * 10 * 4 * 2 * 2

    def test_chunk_subset_narrows_traffic(self):
        full = plan_inference(num_rows=4_000, embedding_dim=8, chunk_size=500)
        narrow = plan_inference(
            num_rows=4_000, embedding_dim=8, chunk_size=500, chunks=(0, 3)
        )
        assert narrow.num_chunks == 2
        assert narrow.hop_bytes == full.hop_bytes * 2 // 8

    def test_validation(self):
        with pytest.raises(ValueError, match="chunk indices"):
            plan_inference(
                num_rows=1_000, embedding_dim=8, chunk_size=500, chunks=(5,)
            )
        with pytest.raises(ValueError, match="at least one chunk"):
            plan_inference(
                num_rows=1_000, embedding_dim=8, chunk_size=500, chunks=()
            )
        with pytest.raises(ValueError, match="exit_rate"):
            expected_hop_survivors(8, 2, exit_rate=1.5)
        with pytest.raises(ValueError, match="batch_size"):
            expected_hop_survivors(0, 2)

    def test_engine_plan_describes_engine_state(self):
        config = MemNNConfig(
            embedding_dim=16, num_sentences=100, num_questions=1,
            vocab_size=50, max_words=6, hops=2,
        )
        engine = MnnFastEngine(config)
        rng = np.random.default_rng(0)
        engine.store_story(rng.integers(1, 50, size=(40, 6)))
        plan = engine.plan(batch_size=4)
        assert plan.num_rows == 40
        assert plan.hops == 2
        assert plan.batch_size == 4
        assert plan.num_chunks == plan.total_chunks

    def test_server_plan_agrees_with_server_survivors(self):
        server = QaServer(ServerConfig(
            network=MemNNConfig(
                embedding_dim=32, num_sentences=10_000, num_questions=1,
                vocab_size=5_000, hops=4,
            ),
            engine=EngineConfig().with_early_exit(0.2),
        ))
        plan = server.plan(batch_size=16)
        assert list(plan.survivors) == server.expected_hop_survivors(16)
        assert plan.num_rows == 10_000


# --- prefetcher introspection --------------------------------------------------


class TestPrefetcherIntrospection:
    def _store(self, rows=2_000, ed=8):
        rng = np.random.default_rng(1)
        return ResidentStore(
            rng.standard_normal((rows, ed)), rng.standard_normal((rows, ed))
        )

    def test_fetch_reports_lru_hits(self):
        store = self._store()
        pair_bytes = 2 * 500 * 8 * 8
        fetcher = ChunkPrefetcher(store, 500, resident_bytes=2 * pair_bytes)
        _, hit = fetcher.fetch((0, 500))
        assert not hit
        _, hit = fetcher.fetch((0, 500))
        assert hit

    def test_resident_spans_track_lru(self):
        store = self._store()
        pair_bytes = 2 * 500 * 8 * 8
        fetcher = ChunkPrefetcher(store, 500, resident_bytes=2 * pair_bytes)
        fetcher.fetch((0, 500))
        fetcher.fetch((500, 1000))
        assert fetcher.resident_spans() == ((0, 500), (500, 1000))
        assert fetcher.resident_chunk_ids() == {0, 1}
        # A third chunk evicts the coldest.
        fetcher.fetch((1000, 1500))
        assert fetcher.resident_chunk_ids() == {1, 2}

    def test_fetch_accounts_in_ledger(self):
        store = self._store()
        fetcher = ChunkPrefetcher(store, 500, resident_bytes=10 * CHUNK_BYTES)
        fetcher.fetch((0, 500))
        assert fetcher.stats.chunks_served == 1
        assert fetcher.stats.demand_fetches == 1

    def test_no_lru_means_no_hits(self):
        fetcher = ChunkPrefetcher(self._store(), 500, resident_bytes=None)
        _, hit = fetcher.fetch((0, 500))
        _, hit2 = fetcher.fetch((0, 500))
        assert not hit and not hit2
        assert fetcher.resident_spans() == ()


# --- replicas ------------------------------------------------------------------


def _replica(replica_id=0, rows=8_000, chunk_base=0, budget=4 * CHUNK_BYTES):
    rng = np.random.default_rng(replica_id)
    store = ResidentStore(
        rng.standard_normal((rows, 32)), rng.standard_normal((rows, 32))
    )
    server = QaServer(ServerConfig(
        network=MemNNConfig(
            embedding_dim=32, num_sentences=rows, num_questions=1,
            vocab_size=1_000,
        ),
        workers=1,
        disk_bandwidth=2e8,
    ))
    return Replica(
        replica_id=replica_id, server=server, store=store,
        chunk_size=500, resident_bytes=budget, chunk_base=chunk_base,
    )


class TestReplica:
    def test_execute_streams_planned_chunks(self):
        replica = _replica()
        plan = plan_inference(
            num_rows=8_000, embedding_dim=32, chunk_size=500, chunks=(0, 1, 2)
        )
        executed = replica.execute(plan)
        assert executed.touched_chunks == 3
        assert executed.lru_misses == 3
        # The prefetcher ledger saw exactly the planned chunks.
        assert replica.prefetcher.stats.chunks_served == 3
        assert replica.resident_chunks() == {0, 1, 2}

    def test_second_pass_hits_the_lru(self):
        replica = _replica()
        plan = plan_inference(
            num_rows=8_000, embedding_dim=32, chunk_size=500, chunks=(0, 1)
        )
        cold = replica.execute(plan)
        warm = replica.execute(plan)
        assert cold.lru_misses == 2 and cold.lru_hits == 0
        assert warm.lru_hits == 2 and warm.lru_misses == 0
        assert warm.seconds < cold.seconds  # misses charge disk streaming

    def test_shard_replica_touches_only_owned_chunks(self):
        # A shard owning chunks [4, 8) of the global space.
        replica = _replica(rows=2_000, chunk_base=4)
        plan = plan_inference(
            num_rows=8_000, embedding_dim=32, chunk_size=500,
            chunks=(0, 1, 4, 5),
        )
        assert replica.owned_chunks(plan) == [4, 5]
        executed = replica.execute(plan)
        assert executed.touched_chunks == 2
        assert replica.resident_chunks() == {4, 5}

    def test_affinity_is_overlap_fraction(self):
        replica = _replica()
        plan = plan_inference(
            num_rows=8_000, embedding_dim=32, chunk_size=500,
            chunks=(0, 1, 2, 3),
        )
        assert replica.affinity(plan) == 0.0
        replica.execute(plan_inference(
            num_rows=8_000, embedding_dim=32, chunk_size=500, chunks=(0, 1)
        ))
        assert replica.affinity(plan) == pytest.approx(0.5)


# --- routing policies ----------------------------------------------------------


class TestRouterPolicies:
    def _fleet(self, n=3):
        return [_replica(replica_id=i) for i in range(n)]

    def _plan(self, chunks=(0, 1)):
        return plan_inference(
            num_rows=8_000, embedding_dim=32, chunk_size=500, chunks=chunks
        )

    def test_round_robin_cycles(self):
        fleet = self._fleet()
        policy = RoundRobinPolicy()
        picks = [policy.choose(self._plan(), fleet).replica_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_backlog_joins_shortest_queue(self):
        fleet = self._fleet()
        fleet[0].backlog = 3
        fleet[1].backlog = 1
        fleet[2].backlog = 2
        assert LeastBacklogPolicy().choose(self._plan(), fleet).replica_id == 1

    def test_affinity_prefers_warm_replica(self):
        fleet = self._fleet()
        fleet[1].execute(self._plan((0, 1)))
        chosen = CacheAffinityPolicy().choose(self._plan((0, 1)), fleet)
        assert chosen.replica_id == 1

    def test_affinity_backlog_discount_spills(self):
        fleet = self._fleet()
        fleet[1].execute(self._plan((0, 1)))
        # Overlap 1.0 at weight 0.1 loses once 11 requests are queued.
        fleet[1].backlog = 11
        chosen = CacheAffinityPolicy(backlog_weight=0.1).choose(
            self._plan((0, 1)), fleet
        )
        assert chosen.replica_id != 1

    def test_cold_ties_spread_over_fleet(self):
        """Rendezvous tie-break: distinct cold chunk sets must not all
        stack on one replica."""
        fleet = self._fleet(4)
        policy = CacheAffinityPolicy()
        picks = {
            policy.choose(self._plan((c, c + 1)), fleet).replica_id
            for c in range(0, 14, 2)
        }
        assert len(picks) > 1

    def test_router_skips_draining(self):
        fleet = self._fleet()
        fleet[0].draining = True
        router = Router("round_robin")
        assert router.route(self._plan(), fleet).replica_id != 0

    def test_router_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            Router("fastest_first")

    def test_router_requires_routable_replica(self):
        fleet = self._fleet(1)
        fleet[0].draining = True
        with pytest.raises(RuntimeError, match="no routable"):
            Router("round_robin").route(self._plan(), fleet)


class TestAffinityBeatsRoundRobin:
    """The ISSUE 8 differential claim, at test scale."""

    def _run(self, policy):
        config = small_config(replicas=4)
        requests = skewed_workload(
            num_requests=300, num_topics=4, chunks_per_topic=4,
            total_chunks=config.total_chunks, rate=150.0, seed=5,
        )
        return ClusterSim(config, policy=policy).run(requests)

    def test_hit_rate_and_p50(self):
        affinity = self._run("cache_affinity")
        rr = self._run("round_robin")
        assert affinity.chunk_hit_rate > rr.chunk_hit_rate
        assert affinity.latency_percentile(50) <= rr.latency_percentile(50)


# --- autoscaler ----------------------------------------------------------------


class TestAutoscalerConfig:
    def test_watermark_order_enforced(self):
        with pytest.raises(ValueError, match="low < high"):
            AutoscalerConfig(high_watermark=1.0, low_watermark=2.0)

    def test_replica_bounds_enforced(self):
        with pytest.raises(ValueError, match="max_replicas"):
            AutoscalerConfig(min_replicas=4, max_replicas=2)


class TestAutoscaler:
    def _scaler(self, **overrides):
        defaults = dict(
            min_replicas=1, max_replicas=8,
            high_watermark=4.0, low_watermark=1.0,
            scale_up_cooldown=2.0, scale_down_cooldown=10.0,
        )
        defaults.update(overrides)
        return Autoscaler(AutoscalerConfig(**defaults))

    def _replay(self, scaler, backlog_per_replica, duration=60.0, tick=1.0):
        replicas = scaler.config.min_replicas
        t = 0.0
        while t <= duration:
            replicas = scaler.observe(
                t, int(round(backlog_per_replica * replicas)), replicas
            )
            t += tick
        return replicas

    def test_sustained_overload_scales_to_ceiling(self):
        scaler = self._scaler()
        assert self._replay(scaler, backlog_per_replica=10) == 8

    def test_idle_fleet_stays_at_floor(self):
        scaler = self._scaler()
        assert self._replay(scaler, backlog_per_replica=0) == 1

    def test_hysteresis_band_holds(self):
        """Signals inside (low, high) never change the fleet."""
        scaler = self._scaler()
        assert self._replay(scaler, backlog_per_replica=2.0) == 1
        assert not scaler.decisions

    @settings(max_examples=30, deadline=None)
    @given(
        lighter=st.floats(min_value=0.0, max_value=20.0),
        heavier=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_replicas_monotone_in_sustained_load(self, lighter, heavier):
        if lighter > heavier:
            lighter, heavier = heavier, lighter
        light_fleet = self._replay(self._scaler(), lighter)
        heavy_fleet = self._replay(self._scaler(), heavier)
        assert light_fleet <= heavy_fleet

    @settings(max_examples=30, deadline=None)
    @given(
        backlogs=st.lists(
            st.integers(min_value=0, max_value=100), min_size=5, max_size=60
        ),
        up=st.floats(min_value=0.5, max_value=5.0),
        down=st.floats(min_value=0.5, max_value=20.0),
    )
    def test_no_flapping_within_cooldown(self, backlogs, up, down):
        """Any two actions are separated by the cooldown of the
        *second* action's direction."""
        scaler = self._scaler(scale_up_cooldown=up, scale_down_cooldown=down)
        replicas = 1
        for step, backlog in enumerate(backlogs):
            replicas = scaler.observe(float(step), backlog, replicas)
        for earlier, later in zip(scaler.decisions, scaler.decisions[1:]):
            gap = later.time - earlier.time
            needed = up if later.direction > 0 else down
            assert gap >= needed

    def test_decision_trace_records_signal(self):
        scaler = self._scaler()
        scaler.observe(0.0, 100, 1)
        assert len(scaler.decisions) == 1
        decision = scaler.decisions[0]
        assert decision.replicas_after == 2
        assert decision.backlog_per_replica == 100.0
        assert decision.direction == 1


# --- the simulator -------------------------------------------------------------


class TestClusterSim:
    def test_ledgers_reconcile(self):
        config = small_config(replicas=3)
        requests = skewed_workload(
            num_requests=120, num_topics=4, chunks_per_topic=4,
            total_chunks=config.total_chunks, rate=200.0, seed=3,
        )
        metrics = ClusterSim(config, policy="cache_affinity").run(requests)
        metrics.reconcile()  # idempotent; run() already checked
        assert metrics.arrivals == 120
        assert metrics.completed + metrics.shed + metrics.timed_out == 120
        assert metrics.simulated_seconds > 0

    def test_deterministic_replay(self):
        config = small_config(replicas=2)
        requests = skewed_workload(
            num_requests=60, num_topics=4, chunks_per_topic=4,
            total_chunks=config.total_chunks, rate=100.0, seed=9,
        )
        first = ClusterSim(config, policy="cache_affinity").run(requests)
        second = ClusterSim(config, policy="cache_affinity").run(requests)
        assert first.summary() == second.summary()

    def test_deadline_produces_timeouts_under_overload(self):
        config = small_config(replicas=1, max_queue=1_000)
        requests = skewed_workload(
            num_requests=200, num_topics=4, chunks_per_topic=4,
            total_chunks=config.total_chunks, rate=5_000.0,
            deadline=0.02, seed=13,
        )
        metrics = ClusterSim(config, policy="round_robin").run(requests)
        assert metrics.timed_out > 0
        metrics.reconcile()

    def test_bounded_queue_sheds(self):
        config = small_config(replicas=1, max_queue=2)
        requests = skewed_workload(
            num_requests=100, num_topics=2, chunks_per_topic=4,
            total_chunks=small_config().total_chunks, rate=100_000.0, seed=17,
        )
        metrics = ClusterSim(config, policy="round_robin").run(requests)
        assert metrics.shed > 0
        metrics.reconcile()

    def test_sharded_mode_adds_reduce_latency(self):
        """§5.3: the sharded fan-out completes at the slowest shard
        plus a nonzero tree-reduce of the nq x ed partials."""
        sharded_config = small_config(
            replicas=4, mode="sharded", resident_bytes=None
        )
        requests = skewed_workload(
            num_requests=30, num_topics=2,
            chunks_per_topic=sharded_config.total_chunks,
            total_chunks=sharded_config.total_chunks, rate=50.0, seed=21,
        )
        sim = ClusterSim(sharded_config, policy="round_robin")
        reduce_cost = sim.cluster_model.reduce_seconds(
            MemNNConfig(
                embedding_dim=32, num_sentences=8_000, num_questions=1,
                vocab_size=1_000,
            ),
            4,
        )
        assert reduce_cost > 0
        metrics = sim.run(requests)
        metrics.reconcile()
        assert metrics.completed == 30
        # Every completion carries at least the reduce cost on top of
        # service.
        fastest = min(s.service for s in metrics._samples())
        assert fastest >= reduce_cost

    def test_sharded_mode_rejects_autoscaler(self):
        with pytest.raises(ValueError, match="sharded"):
            ClusterSim(
                small_config(mode="sharded"),
                autoscaler=Autoscaler(AutoscalerConfig()),
            )

    def test_autoscaled_burst_beats_static(self):
        config = small_config(replicas=2)
        trace = burst_trace(
            duration=21.0, base_rate=20.0, burst_rate=600.0,
            burst_start=7.0, burst_duration=7.0,
        )
        requests = requests_from_trace(
            trace, num_topics=4, chunks_per_topic=8,
            total_chunks=config.total_chunks, deadline=0.1, seed=29,
        )
        static = ClusterSim(config, policy="least_backlog").run(requests)
        autoscaler = Autoscaler(AutoscalerConfig(
            min_replicas=2, max_replicas=10,
            high_watermark=3.0, low_watermark=0.5,
            scale_up_cooldown=1.0, scale_down_cooldown=8.0,
        ))
        scaled = ClusterSim(
            config, policy="least_backlog",
            autoscaler=autoscaler, tick_interval=0.5,
        ).run(requests)
        assert scaled.timed_out < static.timed_out
        assert scaled.decisions
        assert scaled.mean_replicas() > 2.0

    def test_replica_trace_steps_on_scaling(self):
        config = small_config(replicas=1)
        trace = burst_trace(
            duration=10.0, base_rate=10.0, burst_rate=400.0,
            burst_start=2.0, burst_duration=6.0,
        )
        requests = requests_from_trace(
            trace, num_topics=2, chunks_per_topic=4,
            total_chunks=config.total_chunks, seed=31,
        )
        autoscaler = Autoscaler(AutoscalerConfig(
            min_replicas=1, max_replicas=6,
            high_watermark=2.0, low_watermark=0.5,
            scale_up_cooldown=0.5, scale_down_cooldown=4.0,
        ))
        metrics = ClusterSim(
            config, policy="least_backlog",
            autoscaler=autoscaler, tick_interval=0.5,
        ).run(requests)
        counts = [n for _, n in metrics.replica_trace]
        assert max(counts) > 1
        assert metrics.decisions


# --- workload generators -------------------------------------------------------


class TestWorkloads:
    def test_topic_chunks_disjoint_until_wrap(self):
        a = set(topic_chunks(0, 8, 8, 64))
        b = set(topic_chunks(1, 8, 8, 64))
        assert not a & b

    def test_skew_concentrates_on_head_topics(self):
        requests = skewed_workload(
            num_requests=1_000, num_topics=8, chunks_per_topic=4,
            total_chunks=64, rate=100.0, zipf_s=1.5, seed=1,
        )
        top = sum(1 for r in requests if r.topic == 0)
        tail = sum(1 for r in requests if r.topic == 7)
        assert top > 3 * max(1, tail)

    def test_arrivals_sorted_and_positive(self):
        requests = skewed_workload(
            num_requests=50, num_topics=4, chunks_per_topic=4,
            total_chunks=16, rate=10.0, seed=2,
        )
        arrivals = [r.arrival for r in requests]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_burst_trace_shape(self):
        trace = burst_trace(
            duration=30.0, base_rate=10.0, burst_rate=100.0,
            burst_start=10.0, burst_duration=5.0,
        )
        assert [s.rate for s in trace] == [10.0, 100.0, 10.0]
        assert sum(s.duration for s in trace) == pytest.approx(30.0)

    def test_diurnal_trace_peaks_mid_period(self):
        trace = diurnal_trace(duration=24.0, base_rate=10.0, peak_rate=100.0)
        rates = [s.rate for s in trace]
        assert max(rates) == rates[len(rates) // 2]
        assert min(rates) >= 10.0

    def test_trace_replay_rate_tracks_segments(self):
        trace = burst_trace(
            duration=20.0, base_rate=5.0, burst_rate=200.0,
            burst_start=5.0, burst_duration=5.0,
        )
        requests = requests_from_trace(
            trace, num_topics=4, chunks_per_topic=4, total_chunks=16, seed=3
        )
        in_burst = sum(1 for r in requests if 5.0 <= r.arrival < 10.0)
        outside = len(requests) - in_burst
        assert in_burst > outside
