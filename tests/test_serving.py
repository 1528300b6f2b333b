"""Tests for the multi-tenant QA serving simulator."""

import pytest

from repro.core import EmbeddingCacheConfig, EngineConfig
from repro.core.config import FLOAT_BYTES
from repro.serving import (
    QaServer,
    QuestionRequest,
    ServerConfig,
    StoryRequest,
    generate_workload,
)


def _cache_config(size_bytes: int = 64 * 1024) -> EmbeddingCacheConfig:
    return EmbeddingCacheConfig(size_bytes=size_bytes, embedding_dim=48)


class TestWorkload:
    def test_poisson_counts_roughly_match_rate(self):
        workload = generate_workload(
            question_rate=100, story_rate=10, duration=10.0, seed=0
        )
        assert 800 <= len(workload.questions) <= 1200
        assert 60 <= len(workload.stories) <= 140

    def test_requests_time_ordered(self):
        workload = generate_workload(50, 50, 5.0, seed=1)
        arrivals = [r.arrival for r in workload.requests]
        assert arrivals == sorted(arrivals)

    def test_zero_story_rate(self):
        workload = generate_workload(50, 0, 2.0)
        assert not workload.stories

    def test_deterministic_under_seed(self):
        a = generate_workload(50, 10, 2.0, seed=3)
        b = generate_workload(50, 10, 2.0, seed=3)
        assert [r.arrival for r in a.requests] == [r.arrival for r in b.requests]

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_workload(0, 1, 1.0)
        with pytest.raises(ValueError):
            generate_workload(1, -1, 1.0)
        with pytest.raises(ValueError):
            generate_workload(1, 1, 0.0)
        with pytest.raises(ValueError):
            QuestionRequest(arrival=-1.0, words=3)
        with pytest.raises(ValueError):
            StoryRequest(arrival=0.0, sentences=0, words_per_sentence=5)


class TestServiceTimes:
    def test_mnnfast_question_service_faster_than_baseline(self):
        workload_request = QuestionRequest(arrival=0.0, words=6)
        base = QaServer(ServerConfig(engine=EngineConfig.baseline()))
        fast = QaServer(ServerConfig(engine=EngineConfig.mnnfast()))
        assert fast.question_service_seconds(
            workload_request
        ) < base.question_service_seconds(workload_request)

    def test_embedding_cache_speeds_up_hot_words(self):
        server = QaServer(ServerConfig(embedding_cache=_cache_config()))
        cold = server.embedding_word_seconds(7)
        warm = server.embedding_word_seconds(7)
        assert warm < cold

    def test_no_cache_every_lookup_pays_dram(self):
        server = QaServer(ServerConfig())
        first = server.embedding_word_seconds(7)
        second = server.embedding_word_seconds(7)
        assert first == second

    def test_story_service_scales_with_words(self):
        server = QaServer(ServerConfig())
        short = server.story_service_seconds(StoryRequest(0.0, 2, 5))
        long = server.story_service_seconds(StoryRequest(0.0, 20, 5))
        assert long > short

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(workers=0)


class TestDiskTierCostModel:
    """The out-of-core store's serving cost: disk-stream bandwidth is
    charged separately from DRAM, and prefetch overlaps it with
    compute (max) while demand fetching serializes it (sum)."""

    def _server(self, engine: EngineConfig, **kwargs) -> QaServer:
        return QaServer(ServerConfig(engine=engine, **kwargs))

    def test_resident_engine_streams_nothing_from_disk(self):
        assert self._server(EngineConfig()).disk_stream_seconds() == 0.0
        assert self._server(EngineConfig.mnnfast()).disk_stream_seconds() == 0.0

    def test_disk_bytes_are_footprint_minus_budget(self):
        server = self._server(
            EngineConfig.out_of_core(resident_bytes=None, prefetch_depth=0)
        )
        network = server.config.network
        footprint = (
            2 * network.num_sentences * network.embedding_dim * FLOAT_BYTES
        )
        assert server.disk_stream_seconds() == pytest.approx(
            footprint / server.config.disk_bandwidth
        )
        budget = footprint // 4
        cached = self._server(
            EngineConfig.out_of_core(resident_bytes=budget, prefetch_depth=0)
        )
        assert cached.disk_stream_seconds() == pytest.approx(
            (footprint - budget) / server.config.disk_bandwidth
        )

    def test_budget_covering_footprint_reaches_resident_cost(self):
        resident_hop = self._server(EngineConfig()).hop_seconds()
        covered = self._server(
            EngineConfig.out_of_core(resident_bytes=1 << 40)
        )
        assert covered.disk_stream_seconds() == 0.0
        assert covered.hop_seconds() == pytest.approx(resident_hop)

    def test_demand_fetch_serializes_disk_behind_compute(self):
        resident_hop = self._server(EngineConfig()).hop_seconds()
        server = self._server(
            EngineConfig.out_of_core(resident_bytes=None, prefetch_depth=0)
        )
        assert server.hop_seconds() == pytest.approx(
            resident_hop + server.disk_stream_seconds()
        )

    def test_prefetch_overlaps_disk_with_compute(self):
        resident_hop = self._server(EngineConfig()).hop_seconds()
        server = self._server(
            EngineConfig.out_of_core(resident_bytes=None, prefetch_depth=2)
        )
        disk = server.disk_stream_seconds()
        assert server.hop_seconds() == pytest.approx(
            max(resident_hop, disk)
        )
        assert server.hop_seconds() <= resident_hop + disk

    def test_hop_cost_monotone_in_budget(self):
        hops = [
            self._server(
                EngineConfig.out_of_core(
                    resident_bytes=budget, prefetch_depth=0
                )
            ).hop_seconds()
            for budget in (1, 1 << 20, 1 << 24, 1 << 40)
        ]
        assert hops == sorted(hops, reverse=True)

    def test_faster_disk_shrinks_the_stream(self):
        engine = EngineConfig.out_of_core(resident_bytes=None)
        slow = self._server(engine, disk_bandwidth=5e8)
        fast = self._server(engine, disk_bandwidth=8e9)
        assert fast.disk_stream_seconds() < slow.disk_stream_seconds()

    def test_disk_bandwidth_validation(self):
        with pytest.raises(ValueError, match="disk_bandwidth"):
            ServerConfig(disk_bandwidth=0.0)


class TestSimulation:
    def test_all_requests_complete(self):
        workload = generate_workload(200, 20, 2.0, seed=0)
        metrics = QaServer(ServerConfig()).run(workload)
        assert len(metrics.samples) == len(workload.requests)

    def test_latency_at_least_service_time(self):
        workload = generate_workload(100, 0, 1.0, seed=0)
        metrics = QaServer(ServerConfig()).run(workload)
        assert all(s.latency >= s.service - 1e-12 for s in metrics.samples)

    def test_underloaded_server_has_no_queueing(self):
        workload = generate_workload(10, 0, 1.0, seed=0)
        metrics = QaServer(ServerConfig(workers=8)).run(workload)
        assert metrics.latency_percentile(95) < 2 * metrics.mean_latency() + 1e-6
        assert all(s.queueing < 1e-9 for s in metrics.samples)

    def test_overload_builds_queues(self):
        """Past saturation, baseline latency explodes while MnnFast
        sustains the load the baseline cannot."""
        rate = 30_000  # beyond the baseline's 4-worker capacity
        workload = generate_workload(rate, 0, 0.2, seed=0)
        base = QaServer(ServerConfig(engine=EngineConfig.baseline())).run(workload)
        fast = QaServer(ServerConfig(engine=EngineConfig.mnnfast())).run(workload)
        assert fast.mean_latency() < base.mean_latency()
        assert fast.throughput() > 1.5 * base.throughput()
        assert fast.latency_percentile(95) < base.latency_percentile(95)

    def test_contention_inflates_inference_latency(self):
        workload = generate_workload(500, 400, 1.0, seed=0)
        shared = QaServer(ServerConfig(engine=EngineConfig.mnnfast())).run(workload)
        isolated = QaServer(
            ServerConfig(engine=EngineConfig.mnnfast(), embedding_cache=_cache_config())
        ).run(workload)
        assert isolated.mean_latency() <= shared.mean_latency()

    def test_summary_keys(self):
        workload = generate_workload(50, 5, 1.0, seed=0)
        summary = QaServer(ServerConfig()).run(workload).summary()
        assert summary["questions_completed"] > 0
        assert summary["question_throughput"] > 0
