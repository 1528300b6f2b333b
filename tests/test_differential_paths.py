"""Cross-path differential harness over every answer-producing engine.

Four paths can answer a question batch — baseline (Fig. 5a), column
(Fig. 5b), column+zero-skip (§3.2) and sharded (§3.1 scale-out) — and
the repo's correctness story is that they agree.  This harness sweeps
the full ``algorithm × zero_skip × stable_softmax × cache ×
execution-backend`` grid
through :meth:`MnnFastEngine.answer` on seeded random engines and
asserts pairwise agreement under the documented tolerance bounds:

* **logits**: all paths with ``th_skip = 0`` are algebraic
  rearrangements of the same expression — they agree to
  ``LOGIT_TOLERANCE`` (1e-10, observed ~1e-15).  Zero-skipping is
  only compared at ``th_skip = 0``, where it must be exact; a positive
  threshold legitimately changes the output.
* **argmax answers**: identical across every configuration pair.
* **cache**: attaching an embedding cache is a pure routing change —
  the embedded question (and hence every downstream number) is
  bitwise identical with and without it.
* **ingestion**: how the rows got into memory — one bulk
  ``store_story``, sentence by sentence, uneven slices that cross the
  append buffers' growth steps (with answers in between), or
  ``set_memories`` of the same rows — is invisible: bitwise-identical
  logits on every path, under layer-wise and adjacent tying.
"""

import itertools

import numpy as np
import pytest

from repro.core import (
    ChunkConfig,
    EngineConfig,
    EngineWeights,
    ExecutionConfig,
    MemNNConfig,
    MnnFastEngine,
    ZeroSkipConfig,
)

from .conftest import float64

#: Documented pairwise logit-agreement bound for exact paths.
LOGIT_TOLERANCE = 1e-10

SEEDS = (0, 1, 2)


def _engine_configs(pin=float64):
    """Every answer-producing engine path, at th_skip=0 (exact).
    ``pin`` fixes every cell's precision — the float64 reference here;
    ``tests/test_float32_grid.py`` passes the identity and gets the
    same cells at the default (float32) precision."""
    zero_skip_off = ZeroSkipConfig(0.0)
    zero_skip_zero_threshold = ZeroSkipConfig(0.0, mode="exp")
    configs = {}
    for stable in (True, False):
        configs[("baseline", stable)] = EngineConfig(
            algorithm="baseline", stable_softmax=stable
        )
        configs[("column", stable)] = EngineConfig(
            algorithm="column", chunk=ChunkConfig(16), stable_softmax=stable
        )
        configs[("column+skip0", stable)] = EngineConfig(
            algorithm="column",
            chunk=ChunkConfig(16),
            zero_skip=zero_skip_zero_threshold,
            stable_softmax=stable,
        )
        configs[("sharded-contig", stable)] = EngineConfig(
            algorithm="sharded",
            num_shards=3,
            shard_policy="contiguous",
            chunk=ChunkConfig(16),
            stable_softmax=stable,
        )
        configs[("sharded-strided", stable)] = EngineConfig(
            algorithm="sharded",
            num_shards=4,
            shard_policy="strided",
            chunk=ChunkConfig(16),
            stable_softmax=stable,
        )
        configs[("zero_skip_off", stable)] = EngineConfig(
            algorithm="column", zero_skip=zero_skip_off, stable_softmax=stable
        )
        configs[("sharded-process2", stable)] = EngineConfig(
            algorithm="sharded",
            num_shards=4,
            shard_policy="contiguous",
            chunk=ChunkConfig(16),
            stable_softmax=stable,
            execution=ExecutionConfig(backend="process", num_workers=2),
        )
        configs[("sharded-fused", stable)] = EngineConfig(
            algorithm="sharded",
            num_shards=3,
            shard_policy="strided",
            chunk=ChunkConfig(16),
            stable_softmax=stable,
            execution=ExecutionConfig(fused=True),
        )
    return {key: pin(config) for key, config in configs.items()}


def _full_grid(pin=float64):
    """The exact grid plus the store tier and the top-k tier."""
    grid = _engine_configs(lambda config: config)
    grid[("out-of-core", True)] = EngineConfig.out_of_core()
    grid[("topk", True)] = EngineConfig(algorithm="column").with_topk(
        nprobe=2, min_rows=0
    )
    grid[("sharded-topk", True)] = EngineConfig.sharded(
        3, chunk_size=16
    ).with_topk(nprobe=2, min_rows=0)
    return {key: pin(config) for key, config in grid.items()}


class DictCache:
    """Minimal VectorCache backed by a dict (always hits after insert)."""

    def __init__(self):
        self.store = {}

    def lookup(self, word_id):
        return self.store.get(word_id)

    def insert(self, word_id, vector):
        self.store[word_id] = np.array(vector)


def _random_problem(seed):
    rng = np.random.default_rng(seed)
    config = MemNNConfig(
        embedding_dim=16,
        num_sentences=200,
        num_questions=4,
        vocab_size=60,
        max_words=6,
        hops=2,
    )
    weights = EngineWeights.random(config, rng=rng)
    story = rng.integers(1, 60, size=(53, 6))
    questions = rng.integers(1, 60, size=(4, 6))
    return config, weights, story, questions


def _answers(seed, use_cache=False):
    config, weights, story, questions = _random_problem(seed)
    results = {}
    for key, engine_config in _engine_configs().items():
        engine = MnnFastEngine(config, weights, engine_config=engine_config)
        engine.store_story(story)
        cache = DictCache() if use_cache else None
        results[key] = engine.answer(questions, cache=cache)
        # Process-backed engines own worker pools; release them rather
        # than leaving teardown to GC while the grid keeps growing.
        engine.close()
    return results


@pytest.mark.parametrize("seed", SEEDS)
class TestAllPathsAgree:
    def test_every_pair_of_paths_agrees(self, seed):
        results = _answers(seed)
        for (ka, ra), (kb, rb) in itertools.combinations(results.items(), 2):
            np.testing.assert_allclose(
                ra.logits,
                rb.logits,
                rtol=LOGIT_TOLERANCE,
                atol=LOGIT_TOLERANCE,
                err_msg=f"logits diverge between {ka} and {kb}",
            )
            np.testing.assert_array_equal(
                ra.answer_ids,
                rb.answer_ids,
                err_msg=f"argmax answers diverge between {ka} and {kb}",
            )

    def test_responses_and_probabilities_agree(self, seed):
        results = _answers(seed)
        reference = results[("baseline", True)]
        for key, result in results.items():
            np.testing.assert_allclose(
                result.response,
                reference.response,
                rtol=LOGIT_TOLERANCE,
                atol=LOGIT_TOLERANCE,
                err_msg=f"response diverges on {key}",
            )
            np.testing.assert_allclose(
                result.answer_probabilities,
                reference.answer_probabilities,
                rtol=LOGIT_TOLERANCE,
                atol=LOGIT_TOLERANCE,
                err_msg=f"answer probabilities diverge on {key}",
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_embedding_cache_is_pure_routing(seed):
    """The cache changes where vectors come from, never their values:
    every path's logits are bitwise identical with and without it."""
    without = _answers(seed, use_cache=False)
    with_cache = _answers(seed, use_cache=True)
    for key in without:
        np.testing.assert_array_equal(
            without[key].logits,
            with_cache[key].logits,
            err_msg=f"cache changed the numbers on {key}",
        )
    assert all(r.cache_misses > 0 for r in with_cache.values())


@pytest.mark.parametrize("mode", ("probability", "exp"))
def test_positive_threshold_still_agrees_on_answers(mode):
    """A small positive th_skip may perturb logits (documented: it
    drops sub-threshold mass) but must not flip the argmax answer on
    well-separated problems."""
    config, weights, story, questions = _random_problem(0)
    exact = MnnFastEngine(
        config, weights, engine_config=EngineConfig(algorithm="column")
    )
    exact.store_story(story)
    skipping = MnnFastEngine(
        config,
        weights,
        engine_config=EngineConfig(
            algorithm="column", zero_skip=ZeroSkipConfig(0.001, mode=mode)
        ),
    )
    skipping.store_story(story)
    np.testing.assert_array_equal(
        skipping.answer(questions).answer_ids,
        exact.answer(questions).answer_ids,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_disabled_gate_is_bit_identical_across_grid(seed):
    """The early-exit gate at threshold 0 is OFF, not "on with an
    unreachable bar": every engine path — the full algorithm ×
    zero-skip × sharded × execution grid plus the store tier and the
    top-k tier — produces bitwise-identical logits with and without
    ``with_early_exit(0.0)``, and the emitted trace records zero
    exits."""
    config, weights, story, questions = _random_problem(seed)
    for key, engine_config in _full_grid().items():
        plain = MnnFastEngine(config, weights, engine_config=engine_config)
        gated = MnnFastEngine(
            config, weights,
            engine_config=engine_config.with_early_exit(0.0),
        )
        for engine in (plain, gated):
            engine.store_story(story)
        reference = plain.answer(questions)
        result = gated.answer(questions)
        plain.close()
        gated.close()
        np.testing.assert_array_equal(
            reference.logits,
            result.logits,
            err_msg=f"threshold-0 gate changed the numbers on {key}",
        )
        trace = result.hop_trace
        assert trace.num_exited == 0, key
        assert list(trace.hops_run) == [config.hops] * len(questions), key
        assert trace.confidence == [], key


def test_sharded_zero_skip_exact_at_zero_threshold():
    """Sharding composes with the zero-skip flag: at th=0 the skip
    mask keeps every row, so sharded+skip equals plain baseline."""
    config, weights, story, questions = _random_problem(1)
    engine_config = float64(
        EngineConfig(
            algorithm="sharded",
            num_shards=4,
            zero_skip=ZeroSkipConfig(0.0, mode="exp"),
        )
    )
    sharded = MnnFastEngine(config, weights, engine_config=engine_config)
    sharded.store_story(story)
    baseline = MnnFastEngine(
        config, weights, engine_config=EngineConfig.baseline()
    )
    baseline.store_story(story)
    np.testing.assert_allclose(
        sharded.answer(questions).logits,
        baseline.answer(questions).logits,
        rtol=LOGIT_TOLERANCE,
        atol=LOGIT_TOLERANCE,
    )


# --- ingestion axis: append-then-answer == build-from-scratch -----------------

#: Slice lengths of the 159-row long story.  The append buffers start
#: at 64 rows: call 2 fills them exactly, call 3 grows them to 128,
#: call 4 lands in spare rows, call 5 grows them to the configured
#: 200-row cap.
UNEVEN_SLICES = (4, 60, 1, 41, 53)


def _long_story(story):
    return np.vstack([story, story[::-1], story])


def _ingest_sentence_by_sentence(engine, story):
    for sentence in story:
        engine.store_story(sentence)


def _ingest_uneven_slices(engine, story, questions):
    """Answers between the writes, so every append invalidates a solver
    that was really built over the shorter memory."""
    start = 0
    for length in UNEVEN_SLICES:
        engine.store_story(story[start : start + length])
        start += length
        if start in (64, 106):
            engine.answer(questions)
    assert start == len(story)
    # The slices really crossed both growth steps.
    assert len(engine.memories[0].base) == engine.config.num_sentences


@pytest.mark.parametrize("seed", SEEDS)
def test_append_then_answer_is_bit_identical_to_bulk_ingest(seed):
    config, weights, story, questions = _random_problem(seed)
    story = _long_story(story)
    for key, engine_config in _full_grid().items():
        def engine():
            return MnnFastEngine(config, weights, engine_config=engine_config)

        bulk, by_sentence, by_slices, installed = (engine() for _ in range(4))
        bulk.store_story(story)
        _ingest_sentence_by_sentence(by_sentence, story)
        _ingest_uneven_slices(by_slices, story, questions)
        installed.set_memories(*bulk.memories)
        reference = bulk.answer(questions)
        for name, other in (
            ("sentence by sentence", by_sentence),
            ("uneven slices", by_slices),
            ("set_memories", installed),
        ):
            for grown, stacked in zip(other.memories, bulk.memories):
                np.testing.assert_array_equal(grown, stacked)
            np.testing.assert_array_equal(
                other.answer(questions).logits,
                reference.logits,
                err_msg=f"{name} ingestion changed the numbers on {key}",
            )
            other.close()
        bulk.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_append_then_answer_under_adjacent_tying(seed):
    """One (M_IN, M_OUT) pair per hop: every pair's buffers grow in
    step and each hop reads its own."""
    config, _, story, questions = _random_problem(seed)
    story = _long_story(story)
    rng = np.random.default_rng(seed + 100)
    weights = EngineWeights.adjacent(
        [
            rng.normal(0.0, 0.1, (config.vocab_size, config.embedding_dim))
            for _ in range(config.hops + 1)
        ]
    )
    grid = _engine_configs()
    for key in (
        ("baseline", True),
        ("column", True),
        ("column", False),
        ("sharded-strided", True),
        ("sharded-fused", True),
    ):
        def engine():
            return MnnFastEngine(config, weights, engine_config=grid[key])

        bulk, by_sentence, by_slices = engine(), engine(), engine()
        assert bulk._num_pairs == config.hops > 1
        bulk.store_story(story)
        _ingest_sentence_by_sentence(by_sentence, story)
        _ingest_uneven_slices(by_slices, story, questions)
        reference = bulk.answer(questions)
        for other in (by_sentence, by_slices):
            for pair, bulk_pair in zip(other._memories, bulk._memories):
                for grown, stacked in zip(pair, bulk_pair):
                    np.testing.assert_array_equal(grown, stacked)
            np.testing.assert_array_equal(
                other.answer(questions).logits,
                reference.logits,
                err_msg=f"append changed the numbers on {key}",
            )


def test_overflowing_append_raises_before_any_row_is_written():
    config, weights, story, questions = _random_problem(0)
    engine = MnnFastEngine(config, weights)
    for _ in range(3):
        engine.store_story(story)  # 159 of 200 rows
    before = engine.answer(questions)
    with pytest.raises(ValueError, match="overflows"):
        engine.store_story(story[:42])
    assert engine.num_stored_sentences == 159
    np.testing.assert_array_equal(engine.answer(questions).logits, before.logits)
    engine.store_story(story[:41])  # exactly full is fine
    assert engine.num_stored_sentences == config.num_sentences
