"""Tests for the serving robustness layer: deadlines, retries, load
shedding, graceful degradation, and the request-lifecycle trace."""

import pytest

from repro.core import EngineConfig, MemNNConfig
from repro.serving import (
    AdmissionConfig,
    DegradationConfig,
    DegradationPolicy,
    QaServer,
    QuestionRequest,
    RetryConfig,
    ServerConfig,
    StoryRequest,
    Workload,
    run_overload_experiment,
    skip_ratio_for_threshold,
    stage_group,
)
from repro.serving.trace import RequestTrace, Span


def _network(hops: int = 1) -> MemNNConfig:
    return MemNNConfig(
        embedding_dim=48, num_sentences=20_000, num_questions=1,
        vocab_size=30_000, hops=hops,
    )


def _server(**kwargs) -> QaServer:
    kwargs.setdefault("network", _network())
    kwargs.setdefault("engine", EngineConfig.mnnfast())
    return QaServer(ServerConfig(**kwargs))


class TestPolicies:
    def test_skip_ratio_anchor_and_monotonicity(self):
        assert skip_ratio_for_threshold(0.1) == pytest.approx(0.97)
        assert skip_ratio_for_threshold(0.0) == 0.0
        thresholds = (0.001, 0.01, 0.1, 0.3, 0.5)
        ratios = [skip_ratio_for_threshold(t) for t in thresholds]
        assert ratios == sorted(ratios)
        assert all(0.0 <= r <= 0.99 for r in ratios)

    def test_retry_backoff_grows(self):
        retry = RetryConfig(max_retries=3, backoff_base=1e-3, backoff_factor=2.0)
        assert retry.backoff(1) == pytest.approx(1e-3)
        assert retry.backoff(2) == pytest.approx(2e-3)
        assert retry.backoff(3) == pytest.approx(4e-3)
        with pytest.raises(ValueError):
            retry.backoff(0)

    def test_degradation_hysteresis(self):
        policy = DegradationPolicy(
            DegradationConfig(
                enabled=True, high_watermark=4, low_watermark=1, max_level=2,
                threshold_factor=2.0, hop_step=1, min_hops=1,
            ),
            EngineConfig.mnnfast(threshold=0.1),
            hops=3,
        )
        assert policy.effective() == (0.1, 3)
        policy.observe(10)
        assert policy.level == 1
        assert policy.effective() == (pytest.approx(0.2), 2)
        policy.observe(10)
        assert policy.level == 2
        assert policy.effective() == (pytest.approx(0.4), 1)
        policy.observe(10)  # clamped at max_level
        assert policy.level == 2
        policy.observe(2)  # between watermarks: hold
        assert policy.level == 2
        policy.observe(0)
        policy.observe(0)
        assert policy.level == 0
        assert policy.peak_level == 2
        assert policy.transitions == 4

    def test_degradation_threshold_capped(self):
        policy = DegradationPolicy(
            DegradationConfig(
                enabled=True, high_watermark=2, low_watermark=0, max_level=5,
                threshold_factor=10.0, max_threshold=0.5,
            ),
            EngineConfig.mnnfast(threshold=0.1),
            hops=1,
        )
        for _ in range(5):
            policy.observe(99)
        threshold, hops = policy.effective()
        assert threshold == 0.5
        assert hops == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ValueError):
            RetryConfig(max_retries=-1)
        with pytest.raises(ValueError):
            RetryConfig(backoff_factor=0.5)
        with pytest.raises(ValueError):
            DegradationConfig(high_watermark=1, low_watermark=1)
        with pytest.raises(ValueError):
            DegradationConfig(max_threshold=1.5)
        with pytest.raises(ValueError):
            ServerConfig(deadline=0.0)


class TestDeadlines:
    def test_queued_request_times_out(self):
        server = _server(workers=1)
        blocker = StoryRequest(arrival=0.0, sentences=100, words_per_sentence=7)
        # Per-request deadline: the question gives up after 40us queued;
        # the story inherits the server-wide None (no deadline).
        question = QuestionRequest(arrival=1e-6, words=6, deadline=40e-6)
        assert server.story_service_seconds(blocker) > 45e-6  # outlives the wait
        metrics = QaServer(server.config).run(
            Workload(requests=[blocker, question])
        )
        # The question timed out while queued; only the story was admitted.
        assert metrics.arrivals == 2
        assert metrics.admitted == 1
        assert metrics.timed_out == 1
        assert metrics.completed == 1
        question_trace = next(t for t in metrics.traces if t.kind == "question")
        assert question_trace.outcome == "timeout"
        (queue_span,) = question_trace.spans
        assert queue_span.stage == "queue"
        assert queue_span.duration == pytest.approx(40e-6)

    def test_in_service_timeout_releases_the_worker(self):
        server = _server(workers=1, deadline=70e-6)
        big_story = StoryRequest(arrival=0.0, sentences=150, words_per_sentence=7)
        assert server.story_service_seconds(big_story) > 75e-6
        late_question = QuestionRequest(arrival=300e-6, words=6)
        assert server.question_service_seconds(
            QuestionRequest(arrival=0.0, words=6)
        ) < 70e-6
        metrics = QaServer(server.config).run(
            Workload(requests=[big_story, late_question])
        )
        # The story was cancelled mid-service at its deadline; the freed
        # worker then served the late question to completion.
        story_trace, question_trace = metrics.traces
        assert story_trace.outcome == "timeout"
        assert question_trace.outcome == "completed"
        assert metrics.admitted == 2
        assert metrics.timed_out == 1
        assert metrics.completed == 1
        # The cancelled story's only span is its (deadline-truncated) queue
        # span; its service never produced an embed span.
        assert all(s.stage == "queue" for s in story_trace.spans)

    def test_no_deadline_serves_everything(self):
        server = _server(workers=1)
        requests = [QuestionRequest(arrival=i * 1e-6, words=6) for i in range(20)]
        metrics = QaServer(server.config).run(Workload(requests=requests))
        assert metrics.completed == 20
        assert metrics.timed_out == 0
        assert metrics.shed == 0


class TestSheddingAndRetries:
    def _burst(self):
        return [
            StoryRequest(arrival=0.0, sentences=100, words_per_sentence=7),
            QuestionRequest(arrival=1e-6, words=6),
            QuestionRequest(arrival=2e-6, words=6),
        ]

    def test_shed_under_overload(self):
        config = ServerConfig(
            network=_network(), engine=EngineConfig.mnnfast(), workers=1,
            admission=AdmissionConfig(max_queue=1),
        )
        metrics = QaServer(config).run(Workload(requests=self._burst()))
        # Story in service, first question queued (depth 1), second shed.
        assert metrics.shed == 1
        assert metrics.completed == 2
        assert metrics.shed_rate == pytest.approx(1 / 3)
        shed_trace = metrics.traces[2]
        assert shed_trace.outcome == "shed"
        assert shed_trace.spans == []  # never enqueued, never served

    def test_retry_then_succeed(self):
        config = ServerConfig(
            network=_network(), engine=EngineConfig.mnnfast(), workers=1,
            admission=AdmissionConfig(max_queue=1),
            retry=RetryConfig(max_retries=3, backoff_base=200e-6),
        )
        metrics = QaServer(config).run(Workload(requests=self._burst()))
        # The would-be-shed question backs off, retries, and completes.
        assert metrics.shed == 0
        assert metrics.completed == 3
        assert metrics.retries >= 1
        retried = metrics.traces[2]
        assert retried.outcome == "completed"
        assert retried.attempts == 2
        assert retried.spans[0].stage == "backoff"
        assert retried.spans[0].duration == pytest.approx(200e-6)

    def test_retry_budget_exhausted_is_shed(self):
        config = ServerConfig(
            network=_network(), engine=EngineConfig.mnnfast(), workers=1,
            admission=AdmissionConfig(max_queue=1),
            retry=RetryConfig(max_retries=2, backoff_base=1e-6),
        )
        # Backoff so short the queue is still full on every retry.
        metrics = QaServer(config).run(Workload(requests=self._burst()))
        assert metrics.shed == 1
        shed_trace = metrics.traces[2]
        assert shed_trace.outcome == "shed"
        assert shed_trace.attempts == 3  # 1 + 2 retries
        assert metrics.retries == 2


class TestDegradation:
    def _workload(self):
        burst = [QuestionRequest(arrival=i * 1e-6, words=6) for i in range(40)]
        tail = [
            QuestionRequest(arrival=10e-3 + i * 5e-3, words=6) for i in range(4)
        ]
        return Workload(requests=burst + tail)

    def _config(self, enabled: bool) -> ServerConfig:
        return ServerConfig(
            network=_network(hops=3), engine=EngineConfig.mnnfast(), workers=2,
            degradation=DegradationConfig(
                enabled=enabled, high_watermark=8, low_watermark=1,
                max_level=2, hop_step=1, min_hops=1,
            ),
        )

    def test_policy_kicks_in_and_recovers(self):
        metrics = QaServer(self._config(True)).run(self._workload())
        assert metrics.completed == 44
        assert metrics.degradation_peak_level == 2
        assert metrics.degradation_final_level == 0  # recovered on the tail
        degraded = [t for t in metrics.traces if t.degradation_level > 0]
        assert degraded
        # Degraded requests ran fewer hops than the configured 3.
        deepest = next(t for t in metrics.traces if t.degradation_level == 2)
        assert sum(1 for s in deepest.spans if s.stage.startswith("hop")) == 1

    def test_degradation_cuts_burst_latency(self):
        slow = QaServer(self._config(False)).run(self._workload())
        fast = QaServer(self._config(True)).run(self._workload())
        assert fast.latency_percentile(99) < slow.latency_percentile(99)
        assert fast.mean_latency() < slow.mean_latency()
        # At 2x saturation behind a bounded queue and a deadline, the
        # degraded server also sheds less, and the win is queueing time.
        result = run_overload_experiment(duration=0.05, load_factor=2.0)
        plain, degraded = result.no_policy, result.degraded
        assert degraded.shed_rate < plain.shed_rate
        assert degraded.latency_percentile(99) < plain.latency_percentile(99)
        assert degraded.degradation_peak_level > 0
        assert (
            degraded.stage_breakdown("question")["queueing"]
            < plain.stage_breakdown("question")["queueing"]
        )

    def test_full_fidelity_without_pressure(self):
        # An underloaded server never degrades.
        requests = [QuestionRequest(arrival=i * 1e-3, words=6) for i in range(10)]
        metrics = QaServer(self._config(True)).run(Workload(requests=requests))
        assert metrics.degradation_peak_level == 0
        assert all(t.degradation_level == 0 for t in metrics.traces)
        for trace in metrics.traces:
            hops = sum(1 for s in trace.spans if s.stage.startswith("hop"))
            assert hops == 3


class TestTraceInvariants:
    def test_spans_well_ordered_and_counts_reconcile(self):
        config = ServerConfig(
            network=_network(hops=2), engine=EngineConfig.mnnfast(), workers=2,
            deadline=500e-6,
            admission=AdmissionConfig(max_queue=4),
            retry=RetryConfig(max_retries=1, backoff_base=100e-6),
            degradation=DegradationConfig(
                enabled=True, high_watermark=3, low_watermark=1, max_level=1,
            ),
        )
        requests = [QuestionRequest(arrival=i * 20e-6, words=6) for i in range(60)]
        requests += [
            StoryRequest(arrival=i * 100e-6, sentences=20, words_per_sentence=7)
            for i in range(10)
        ]
        requests.sort(key=lambda r: r.arrival)
        metrics = QaServer(config).run(Workload(requests=requests))

        # run() already reconciles; re-assert the invariants explicitly.
        metrics.reconcile()
        assert metrics.arrivals == 70
        assert metrics.arrivals == metrics.completed + metrics.shed + metrics.timed_out
        assert len(metrics.samples) == metrics.completed
        for trace in metrics.traces:
            trace.validate()

        # Completed questions decompose into queue + embed + hop spans.
        for trace in metrics.traces:
            if trace.outcome == "completed" and trace.kind == "question":
                stages = [s.stage for s in trace.spans]
                assert "queue" in stages
                assert "embed" in stages
                assert any(s.startswith("hop") for s in stages)

        breakdown = metrics.stage_breakdown("question")
        assert set(breakdown) == {"queueing", "embed", "inference", "backoff"}
        assert breakdown["inference"] > 0
        assert breakdown["embed"] > 0

        summary = metrics.summary()
        assert summary["arrivals"] == 70.0
        assert summary["shed_rate"] == pytest.approx(metrics.shed / 70)
        assert summary["question_p99_latency"] >= summary["question_p50_latency"]

    def test_trace_validation_catches_disorder(self):
        trace = RequestTrace(0, "question", arrival=1.0, outcome="completed")
        trace.spans.append(Span("queue", 1.0, 2.0))
        trace.spans.append(Span("embed", 1.5, 3.0))  # overlaps the queue span
        with pytest.raises(ValueError):
            trace.validate()

    def test_trace_rejects_unknown_stage_and_backwards_span(self):
        with pytest.raises(ValueError):
            Span("warp", 0.0, 1.0)
        with pytest.raises(ValueError):
            Span("embed", 2.0, 1.0)
        with pytest.raises(ValueError):
            stage_group("nonsense")

    def test_double_finish_rejected(self):
        trace = RequestTrace(0, "question", arrival=0.0)
        trace.finish("completed")
        with pytest.raises(RuntimeError):
            trace.finish("shed")
