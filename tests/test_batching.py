"""Continuous batching: batcher discipline, vectorized engine path,
batched service mode.

The correctness story has three layers:

* ``answer_batch()`` must equal a per-question ``answer()`` loop at
  the documented 1e-10 logit tolerance across the full
  ``algorithm × zero_skip × softmax`` grid (the lazy softmax is
  row-independent over questions), including ragged sizes and nq=1;
* the :class:`ContinuousBatcher` must honor its dispatch rules —
  full / max_wait / deadline — and never coalesce a request past its
  admission deadline;
* ``QaServer.run`` on a batched server must keep the lifecycle
  ledger consistent (``reconcile()``) while showing the amortization: higher batch caps
  buy strictly higher throughput past saturation.
"""

import itertools

import numpy as np
import pytest

from repro.batching import (
    BatcherStats,
    BatchFormation,
    ContinuousBatcher,
    form_batches,
)
from repro.core import (
    BatchConfig,
    ChunkConfig,
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    OpStats,
    ZeroSkipConfig,
)
from repro.serving import (
    AdmissionConfig,
    QaServer,
    QuestionRequest,
    RetryConfig,
    ServerConfig,
    Workload,
    generate_workload,
)

from .conftest import float64

LOGIT_TOLERANCE = 1e-10


# --------------------------------------------------------------------------
# answer_batch ≡ sequential answer loop
# --------------------------------------------------------------------------


def _engine_grid():
    """Every answer-producing path, at exact (th=0) settings and the
    float64 reference precision."""
    grid = {}
    for stable in (True, False):
        grid[("baseline", stable)] = EngineConfig(
            algorithm="baseline", stable_softmax=stable
        )
        grid[("column", stable)] = EngineConfig(
            algorithm="column", chunk=ChunkConfig(16), stable_softmax=stable
        )
        grid[("column+skip0", stable)] = EngineConfig(
            algorithm="column",
            chunk=ChunkConfig(16),
            zero_skip=ZeroSkipConfig(0.0, mode="exp"),
            stable_softmax=stable,
        )
        grid[("sharded", stable)] = EngineConfig(
            algorithm="sharded",
            num_shards=3,
            chunk=ChunkConfig(16),
            stable_softmax=stable,
        )
    return {key: float64(config) for key, config in grid.items()}


def _problem(seed, nq):
    rng = np.random.default_rng(seed)
    config = MemNNConfig(
        embedding_dim=16,
        num_sentences=200,
        num_questions=nq,
        vocab_size=60,
        max_words=6,
        hops=2,
    )
    weights = EngineWeights.random(config, rng=rng)
    story = rng.integers(1, 60, size=(53, 6))
    questions = rng.integers(1, 60, size=(nq, 6))
    return config, weights, story, questions


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("nq", (1, 4, 5))
def test_answer_batch_equals_sequential_loop(seed, nq):
    """The batched path is the sequential loop, at 1e-10, on every
    engine configuration — including nq=1 and a ragged nq=5."""
    config, weights, story, questions = _problem(seed, nq)
    for key, engine_config in _engine_grid().items():
        engine = MnnFastEngine(config, weights, engine_config=engine_config)
        engine.store_story(story)
        batched = engine.answer_batch(questions)
        assert batched.batch_size == nq
        assert len(batched.results) == nq
        for i, result in enumerate(batched.results):
            solo = engine.answer(questions[i : i + 1])
            np.testing.assert_allclose(
                result.logits,
                solo.logits,
                rtol=LOGIT_TOLERANCE,
                atol=LOGIT_TOLERANCE,
                err_msg=f"batched row {i} diverges from solo on {key}",
            )
            np.testing.assert_array_equal(
                result.answer_ids,
                solo.answer_ids,
                err_msg=f"argmax answer diverges on {key}",
            )


def test_answer_batch_views_slice_the_batch():
    """Per-question results are row views of the batch result, built
    when first read (a caller that only takes the answers pays for no
    views) and the same objects from then on."""
    config, weights, story, questions = _problem(3, 4)
    engine = MnnFastEngine(
        config, weights, engine_config=EngineConfig(algorithm="column")
    )
    engine.store_story(story)
    batched = engine.answer_batch(questions)
    assert batched.batch_size == 4 and "results" not in vars(batched)
    assert batched.results is batched.results
    assert all(r.logits.base is batched.batch.logits for r in batched.results)
    np.testing.assert_array_equal(
        np.concatenate([r.logits for r in batched.results]),
        batched.batch.logits,
    )
    np.testing.assert_array_equal(batched.answer_ids, batched.batch.answer_ids)
    assert batched.stats is batched.batch.stats


def test_answer_batch_amortizes_memory_traffic():
    """One batched pass streams the matrices once; a sequential loop
    streams them nq times (the §5 amortization, in bytes)."""
    config, weights, story, questions = _problem(0, 8)
    engine = MnnFastEngine(
        config, weights, engine_config=EngineConfig.batched(8)
    )
    engine.store_story(story)
    batched = engine.answer_batch(questions)
    solo_bytes = sum(
        engine.answer(questions[i : i + 1]).stats.bytes_read for i in range(8)
    )
    assert batched.batch.stats.bytes_read < solo_bytes / 2
    assert (
        batched.amortized_bytes_per_question
        == batched.batch.stats.bytes_read / 8
    )
    # Per-question shares carry the amortized accounting.
    share = batched.results[0].stats
    assert share.bytes_read == batched.batch.stats.bytes_read // 8


def test_answer_batch_with_cache_matches_uncached():
    class DictCache:
        def __init__(self):
            self.store = {}

        def lookup(self, word_id):
            return self.store.get(word_id)

        def insert(self, word_id, vector):
            self.store[word_id] = np.array(vector)

    config, weights, story, questions = _problem(2, 4)
    engine = MnnFastEngine(
        config, weights, engine_config=EngineConfig(algorithm="column")
    )
    engine.store_story(story)
    plain = engine.answer_batch(questions)
    cached = engine.answer_batch(questions, cache=DictCache())
    np.testing.assert_array_equal(plain.batch.logits, cached.batch.logits)


def test_opstats_amortized():
    stats = OpStats(
        flops=100, bytes_read=33, bytes_written=10, intermediate_bytes=7
    )
    share = stats.amortized(4)
    assert share.flops == 25
    assert share.bytes_read == 8
    assert share.bytes_written == 2
    assert share.intermediate_bytes == 7  # a peak, not additive
    with pytest.raises(ValueError):
        stats.amortized(0)


# --------------------------------------------------------------------------
# BatchConfig / ContinuousBatcher
# --------------------------------------------------------------------------


class TestBatchConfig:
    def test_defaults_disabled(self):
        config = BatchConfig()
        assert config.max_batch_size == 1
        assert not config.enabled
        assert BatchConfig(max_batch_size=2).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchConfig(max_wait=-1.0)

    def test_engineconfig_batched_constructor(self):
        engine = EngineConfig.batched(8, max_wait=5e-3)
        assert engine.batch.max_batch_size == 8
        assert engine.batch.max_wait == 5e-3
        assert engine.algorithm == "column"


class TestContinuousBatcher:
    def test_dispatches_when_full(self):
        batcher = ContinuousBatcher(BatchConfig(max_batch_size=3, max_wait=1.0))
        assert batcher.submit("a", now=0.0) is None
        assert batcher.submit("b", now=0.1) is None
        batch = batcher.submit("c", now=0.2)
        assert batch is not None
        assert batch.formation.reason == "full"
        assert batch.formation.fill_ratio == 1.0
        assert batch.items == ("a", "b", "c")  # FIFO, never reordered
        assert batch.formation.queue_waits == pytest.approx((0.2, 0.1, 0.0))
        assert batcher.queue_depth == 0

    def test_dispatches_on_max_wait(self):
        batcher = ContinuousBatcher(
            BatchConfig(max_batch_size=8, max_wait=0.01)
        )
        batcher.submit("a", now=1.0)
        assert batcher.next_forced_dispatch() == pytest.approx(1.01)
        assert batcher.poll(1.005) is None  # not yet
        batch = batcher.poll(1.01)
        assert batch is not None
        assert batch.formation.reason == "wait"
        assert batch.formation.size == 1

    def test_deadline_clamps_forced_dispatch(self):
        """A member's admission deadline preempts max_wait: the batch
        ships while the request can still make it."""
        batcher = ContinuousBatcher(
            BatchConfig(max_batch_size=8, max_wait=1.0)
        )
        batcher.submit("slack", now=0.0, deadline=10.0)
        batcher.submit("tight", now=0.1, deadline=0.25)
        assert batcher.next_forced_dispatch() == pytest.approx(0.25)
        batch = batcher.poll(0.25)
        assert batch is not None
        assert batch.formation.reason == "deadline"
        assert batch.formation.min_deadline_slack >= 0.0
        assert "tight" in batch.items

    def test_time_must_be_monotone(self):
        batcher = ContinuousBatcher(BatchConfig(max_batch_size=4))
        batcher.submit("a", now=1.0)
        with pytest.raises(ValueError):
            batcher.submit("b", now=0.5)

    def test_deadline_before_enqueue_rejected(self):
        batcher = ContinuousBatcher(BatchConfig(max_batch_size=4))
        with pytest.raises(ValueError):
            batcher.submit("a", now=1.0, deadline=0.5)

    def test_flush_drains_partial_batch(self):
        batcher = ContinuousBatcher(
            BatchConfig(max_batch_size=8, max_wait=1.0)
        )
        batcher.submit("a", now=0.0)
        batcher.submit("b", now=0.1)
        batch = batcher.flush(0.2)
        assert batch.formation.reason == "flush"
        assert batch.size == 2
        assert batcher.flush(0.3) is None  # empty queue

    def test_stats_aggregate_formations(self):
        batcher = ContinuousBatcher(
            BatchConfig(max_batch_size=2, max_wait=1.0)
        )
        for i in range(5):
            batcher.submit(i, now=float(i))
        batcher.flush(5.0)
        stats = batcher.stats
        assert isinstance(stats, BatcherStats)
        assert stats.submitted == 5
        assert stats.dispatched == 5
        assert stats.batches_formed == 3  # 2 + 2 + flush(1)
        assert stats.mean_batch_size == pytest.approx(5 / 3)
        assert 0.0 < stats.mean_fill_ratio <= 1.0

    def test_formation_rejects_unknown_reason(self):
        with pytest.raises(ValueError):
            BatchFormation(
                formed_at=0.0, size=1, capacity=1, reason="whim",
                queue_waits=(0.0,), deadline_slacks=(),
            )


class TestFormBatches:
    def test_partitions_the_stream_in_order(self):
        requests = [
            QuestionRequest(arrival=0.01 * i, words=4) for i in range(10)
        ]
        batches = form_batches(requests, BatchConfig(max_batch_size=4, max_wait=1.0))
        items = [item for b in batches for item in b.items]
        assert items == requests  # every request exactly once, in order
        assert [b.size for b in batches] == [4, 4, 2]

    def test_never_coalesces_past_deadline(self):
        requests = [
            QuestionRequest(arrival=0.001 * i, words=4, deadline=0.002)
            for i in range(20)
        ]
        batches = form_batches(
            requests, BatchConfig(max_batch_size=16, max_wait=10.0)
        )
        assert len(batches) > 1  # deadlines forced early dispatch
        for batch in batches:
            assert batch.formation.min_deadline_slack >= -1e-9

    def test_default_deadline_applies(self):
        requests = [QuestionRequest(arrival=0.0, words=4)]
        (batch,) = form_batches(
            requests,
            BatchConfig(max_batch_size=8, max_wait=5.0),
            default_deadline=0.5,
        )
        assert batch.formation.formed_at == pytest.approx(0.5)
        assert batch.formation.reason == "deadline"


# --------------------------------------------------------------------------
# QaServer.run on a batched server
# --------------------------------------------------------------------------


def _batched_server(batch_size, **config_kwargs):
    return QaServer(
        ServerConfig(
            engine=EngineConfig.batched(batch_size, max_wait=2e-3),
            workers=4,
            **config_kwargs,
        ),
        seed=9,
    )


def _workload(rate=40_000.0, duration=0.02, story_rate=50.0):
    return generate_workload(
        question_rate=rate, story_rate=story_rate, duration=duration, seed=7
    )


class TestRunBatched:
    def test_ledger_reconciles_and_occupancy_reported(self):
        metrics = _batched_server(4).run(_workload())
        # run() calls reconcile() itself; re-assert the invariant.
        metrics.reconcile()
        assert metrics.arrivals == (
            metrics.completed + metrics.shed + metrics.timed_out
        )
        assert metrics.batches
        assert 0.0 < metrics.batch_occupancy <= 1.0
        assert metrics.mean_batch_size >= 1.0
        summary = metrics.summary()
        assert summary["batches"] == len(metrics.batches)
        assert summary["queueing_p50"] <= summary["queueing_p99"]

    def test_batching_raises_saturated_throughput(self):
        """Past single-question saturation, a bigger batch cap means
        strictly more questions served per second (Fig. 12 style)."""
        solo = _batched_server(1).run(_workload())
        batched = _batched_server(8).run(_workload())
        assert batched.throughput("question") > 1.5 * solo.throughput("question")

    def test_queueing_percentiles_ordered(self):
        metrics = _batched_server(8).run(_workload())
        p = metrics.queueing_percentiles()
        assert p["p50"] <= p["p95"] <= p["p99"]

    def test_admission_sheds_at_bounded_batcher_queue(self):
        metrics = _batched_server(
            2, admission=AdmissionConfig(max_queue=4),
            retry=RetryConfig(max_retries=0),
        ).run(_workload(rate=80_000.0))
        assert metrics.shed > 0
        metrics.reconcile()

    def test_tight_deadlines_time_out_not_crash(self):
        metrics = _batched_server(8, deadline=1e-4).run(
            _workload(rate=80_000.0)
        )
        assert metrics.timed_out > 0
        metrics.reconcile()

    def test_deadline_members_never_coalesced_past_deadline(self):
        """Every formed batch ships with non-negative deadline slack."""
        metrics = _batched_server(8, deadline=5e-3).run(
            _workload(rate=20_000.0)
        )
        for batch in metrics.batches:
            assert all(s >= -1e-9 for s in batch.deadline_slacks)

    def test_questions_only_workload(self):
        metrics = _batched_server(4).run(
            _workload(story_rate=0.0)
        )
        assert metrics.completed == metrics.arrivals
        assert not metrics.of_kind("story")

    def test_empty_workload(self):
        metrics = _batched_server(4).run(Workload())
        assert metrics.arrivals == 0
        assert metrics.batches == []
        metrics.reconcile()
