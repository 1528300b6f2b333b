"""The one request lifecycle of ``QaServer.run``, at every batch size.

Stories and question batches share admission (one backlog counter),
the deadline-aware wait for a worker, the mid-service watchdog and
retry/backoff; an unbatched server is the same loop serving batches of
one.  The unbatched behaviour is pinned by ``test_serving_robustness``;
these cases pin the rules on a *batched* server and the batch-of-one
equivalence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, MemNNConfig
from repro.serving import (
    AdmissionConfig,
    DegradationConfig,
    QaServer,
    QuestionRequest,
    RetryConfig,
    ServerConfig,
    StoryRequest,
    Workload,
    generate_workload,
)

US = 1e-6


def _network(hops: int = 1) -> MemNNConfig:
    return MemNNConfig(
        embedding_dim=48, num_sentences=20_000, num_questions=1,
        vocab_size=30_000, hops=hops,
    )


def _server(batch_size=4, max_wait=10 * US, hops=1, **kwargs) -> QaServer:
    kwargs.setdefault("workers", 1)
    return QaServer(
        ServerConfig(
            network=_network(hops),
            engine=EngineConfig.batched(batch_size, max_wait=max_wait),
            **kwargs,
        )
    )


def _run(server: QaServer, *requests):
    return server.run(Workload(requests=list(requests)))


def _story(arrival, sentences=100, **kwargs) -> StoryRequest:
    return StoryRequest(
        arrival=arrival, sentences=sentences, words_per_sentence=7, **kwargs
    )


def _question(arrival, **kwargs) -> QuestionRequest:
    return QuestionRequest(arrival=arrival, words=6, **kwargs)


class TestBatchOfOne:
    def test_every_admitted_question_is_its_own_batch(self):
        workload = generate_workload(30_000, 500, 0.01, seed=3)
        metrics = QaServer(ServerConfig(deadline=2e-3)).run(workload)
        questions = [t for t in metrics.traces if t.kind == "question"]
        served = [t for t in questions if any(s.stage == "embed" for s in t.spans)]
        assert served
        assert len(metrics.batches) == len(questions)
        assert all(b.size == 1 and b.capacity == 1 for b in metrics.batches)
        assert sum(b.served for b in metrics.batches) == len(served)
        # Batches of one dispatch on submit: nobody waits for batch-mates.
        assert metrics.batch_formation_wait == 0.0

    def test_batched_server_with_cap_one_matches_default_server(self):
        workload = generate_workload(30_000, 500, 0.01, seed=3)
        default = QaServer(ServerConfig(), seed=4).run(workload)
        capped = QaServer(
            ServerConfig(engine=EngineConfig.batched(1, max_wait=2e-3)), seed=4
        ).run(workload)
        assert [s.latency for s in capped.samples] == [
            s.latency for s in default.samples
        ]

    def test_malformed_request_rejected_before_the_run(self):
        for server in (QaServer(ServerConfig()), _server()):
            with pytest.raises(TypeError, match="unknown request type"):
                _run(server, _question(0.0), "not a request")


class TestStoriesOnABatchedServer:
    def test_story_deadline_cancels_mid_service_and_frees_the_worker(self):
        server = _server()
        big_story = _story(0.0, sentences=150, deadline=70 * US)
        assert server.story_service_seconds(big_story) > 75 * US
        metrics = _run(server, big_story, _question(60 * US))
        story_trace, question_trace = metrics.traces
        assert story_trace.outcome == "timeout"
        assert all(s.stage == "queue" for s in story_trace.spans)
        # The question's batch got the worker the moment the story's
        # deadline passed, not when the story would have finished.
        assert question_trace.outcome == "completed"
        assert question_trace.spans[0].stage == "queue"
        assert question_trace.spans[0].end == pytest.approx(70 * US)
        assert metrics.admitted == 2

    def test_stories_share_the_backlog_with_questions(self):
        server = _server(
            admission=AdmissionConfig(max_queue=2),
            degradation=DegradationConfig(
                enabled=True, high_watermark=1, low_watermark=0, max_level=1
            ),
        )
        metrics = _run(
            server,
            _story(0.0),       # in service
            _story(1 * US),    # backlog 1
            _question(2 * US),  # observes backlog 1 -> degrades; backlog 2
            _story(3 * US),    # backlog full -> shed
        )
        assert metrics.traces[3].outcome == "shed"
        assert metrics.traces[3].spans == []
        assert metrics.shed == 1
        assert metrics.completed == 3
        # Only a waiting *story* stood in the backlog the policy saw.
        assert metrics.degradation_peak_level == 1


class TestRetriesOnABatchedServer:
    def test_shed_question_backs_off_into_a_later_batch(self):
        server = _server(
            admission=AdmissionConfig(max_queue=1),
            retry=RetryConfig(max_retries=3, backoff_base=200 * US),
        )
        metrics = _run(
            server, _story(0.0), _question(1 * US), _question(2 * US)
        )
        assert metrics.shed == 0
        assert metrics.completed == 3
        assert metrics.retries == 1
        retried = metrics.traces[2]
        assert retried.outcome == "completed"
        assert retried.attempts == 2
        assert retried.spans[0].stage == "backoff"
        assert retried.spans[0].duration == pytest.approx(200 * US)
        first, later = metrics.batches
        assert first.size == later.size == 1
        # Re-admitted at 202us, held max_wait for batch-mates, then sent.
        assert later.formed_at == pytest.approx(212 * US)

    def test_queue_timeout_retries_with_a_fresh_deadline(self):
        server = _server(
            deadline=70 * US, retry=RetryConfig(max_retries=1, backoff_base=50 * US)
        )
        metrics = _run(
            server, _story(0.0, sentences=150, deadline=1.0), _question(1 * US)
        )
        retried = metrics.traces[1]
        # First attempt: dispatched at 11us, still queued behind the
        # ~87us story at its 71us deadline.  The second attempt
        # (enqueued 121us) finds the worker free.
        assert [s.stage for s in retried.spans[:2]] == ["queue", "backoff"]
        assert retried.spans[0].end == pytest.approx(71 * US)
        assert retried.attempts == 2
        assert retried.outcome == "completed"
        assert [b.served for b in metrics.batches] == [0, 1]


class TestBatchDeadlines:
    def test_all_members_expired_mid_service_releases_the_worker(self):
        server = _server(batch_size=2, hops=3)
        assert server.inference_seconds(batch_size=2) > 300 * US
        metrics = _run(
            server,
            _question(0.0, deadline=100 * US),
            _question(1 * US, deadline=150 * US),
            _question(120 * US),
        )
        assert [t.outcome for t in metrics.traces] == [
            "timeout", "timeout", "completed",
        ]
        doomed, survivor = metrics.batches
        # Cancelled at the *last* member's deadline, mid-hop ...
        assert doomed.served == 2
        assert doomed.service_end == pytest.approx(151 * US)
        # ... which is when the next batch got the worker.
        assert survivor.service_start == pytest.approx(151 * US)
        assert metrics.question_hops_run == 3  # the survivor's hops only

    def test_one_unexpired_member_carries_the_batch_to_completion(self):
        server = _server(batch_size=2, hops=3)
        metrics = _run(
            server, _question(0.0, deadline=100 * US), _question(1 * US)
        )
        lapsed, finished = metrics.traces
        assert lapsed.outcome == "timeout"
        assert finished.outcome == "completed"
        # The lapsed member stayed in the batch: that compute is spent.
        assert [s.stage for s in lapsed.spans] == [
            "queue", "embed", "hop0", "hop1", "hop2",
        ]
        (batch,) = metrics.batches
        assert batch.service_end - batch.service_start > 300 * US
        assert batch.hop_survivors == (2, 2, 2)

    def test_members_expired_at_the_grant_are_not_charged(self):
        server = _server(batch_size=2)
        metrics = _run(
            server,
            _story(0.0),  # holds the worker for ~58us
            _question(1 * US, deadline=30 * US),
            _question(2 * US),
        )
        expired, served = metrics.traces[1:]
        assert expired.outcome == "timeout"
        assert [s.stage for s in expired.spans] == ["queue"]
        assert expired.spans[0].end == pytest.approx(31 * US)
        assert served.outcome == "completed"
        (batch,) = metrics.batches
        assert (batch.size, batch.served) == (2, 1)
        assert batch.hop_survivors == (1,)


class TestSampledExits:
    def test_members_retire_per_question_and_finish_with_the_batch(self):
        server = QaServer(
            ServerConfig(
                network=_network(hops=4),
                engine=EngineConfig.batched(8, max_wait=10 * US).with_early_exit(
                    0.2, min_hops=1
                ),
                workers=2,
            ),
            seed=5,
        )
        workload = Workload(
            requests=[_question(i * US) for i in range(64)]
        )
        metrics = server.run(workload)
        assert metrics.completed == 64
        assert 0.0 < metrics.hops_saved_fraction < 1.0
        assert metrics.question_hops_run == sum(
            sum(b.hop_survivors) for b in metrics.batches
        )
        for batch in metrics.batches:
            assert batch.hop_survivors[0] == batch.served
            assert list(batch.hop_survivors) == sorted(
                batch.hop_survivors, reverse=True
            )
        # Each member's trace holds exactly the hops it ran.
        hop_spans = sum(
            1 for t in metrics.traces for s in t.spans if s.stage.startswith("hop")
        )
        assert hop_spans == metrics.question_hops_run


class TestLedger:
    @settings(max_examples=25, deadline=None)
    @given(
        batch_size=st.sampled_from([1, 2, 8]),
        deadline=st.sampled_from([None, 100 * US, 1e-3]),
        max_queue=st.sampled_from([None, 2, 16]),
        max_retries=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_every_arrival_gets_exactly_one_outcome(
        self, batch_size, deadline, max_queue, max_retries, seed
    ):
        server = QaServer(
            ServerConfig(
                network=_network(hops=2),
                engine=EngineConfig.batched(
                    batch_size, max_wait=200 * US
                ).with_early_exit(0.1, min_hops=1),
                workers=2,
                deadline=deadline,
                admission=AdmissionConfig(max_queue=max_queue),
                retry=RetryConfig(max_retries=max_retries, backoff_base=100 * US),
                degradation=DegradationConfig(
                    enabled=True, high_watermark=4, low_watermark=1
                ),
            ),
            seed=seed,
        )
        workload = generate_workload(60_000, 2_000, 0.004, seed=seed)
        metrics = server.run(workload)  # reconciles, or raises
        assert metrics.arrivals == len(workload.requests)
        assert metrics.arrivals == (
            metrics.completed + metrics.shed + metrics.timed_out
        )
        assert metrics.admitted >= metrics.completed
        assert sum(b.served for b in metrics.batches) <= metrics.admitted
        assert all(t.attempts <= 1 + max_retries for t in metrics.traces)
        assert metrics.retries == sum(t.retries for t in metrics.traces)
        assert metrics.simulated_seconds >= max(
            (t.end for t in metrics.traces), default=0.0
        )

    def test_run_ends_at_its_last_outcome(self):
        # The batch fills at 1us and is served in ~0.1 ms; neither its
        # unused 2 ms max_wait timer nor its 5 ms watchdog extends the run.
        server = _server(batch_size=2, max_wait=2e-3, deadline=5e-3)
        metrics = _run(server, _question(0.0), _question(1 * US))
        assert metrics.completed == 2
        assert metrics.simulated_seconds == metrics.samples[-1].finish < 200 * US
