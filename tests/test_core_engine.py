"""End-to-end tests for MnnFastEngine."""

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    expected_hop_survivors,
    plan_inference,
)
from repro.core.numerics import PAD_ID, softmax

from .conftest import float64
from .test_float32_bytes import _peak_bytes


@pytest.fixture
def config():
    return MemNNConfig(
        embedding_dim=16,
        num_sentences=100,
        num_questions=4,
        vocab_size=50,
        max_words=6,
        hops=1,
    )


@pytest.fixture
def engine(config, rng):
    eng = MnnFastEngine(config, EngineWeights.random(config, rng=rng))
    story = rng.integers(1, 50, size=(40, 6))
    eng.store_story(story)
    return eng


class TestStoryStorage:
    def test_store_appends(self, config, rng):
        eng = MnnFastEngine(config)
        eng.store_story(rng.integers(1, 50, size=(10, 6)))
        eng.store_story(rng.integers(1, 50, size=(5, 6)))
        assert eng.num_stored_sentences == 15

    def test_overflow_raises(self, config, rng):
        eng = MnnFastEngine(config)
        with pytest.raises(ValueError, match="overflows"):
            eng.store_story(rng.integers(1, 50, size=(101, 6)))

    def test_short_sentences_padded(self, config, rng):
        eng = MnnFastEngine(config)
        eng.store_story(rng.integers(1, 50, size=(3, 2)))
        assert eng.num_stored_sentences == 3

    def test_too_wide_sentence_rejected(self, config, rng):
        eng = MnnFastEngine(config)
        with pytest.raises(ValueError, match="nw"):
            eng.store_story(rng.integers(1, 50, size=(3, 7)))

    def test_clear(self, engine):
        engine.clear_memories()
        assert engine.num_stored_sentences == 0

    def test_set_memories_direct(self, config, rng):
        eng = MnnFastEngine(config)
        m = rng.normal(size=(20, 16))
        eng.set_memories(m, m.copy())
        assert eng.num_stored_sentences == 20

    def test_set_memories_validates_width(self, config, rng):
        eng = MnnFastEngine(config)
        m = rng.normal(size=(20, 8))
        with pytest.raises(ValueError, match="ed"):
            eng.set_memories(m, m.copy())


class TestAppendBuffers:
    """The engine owns the buffers ``store_story`` appends into; nobody
    else's arrays are written and no view handed out changes later."""

    def test_ingest_in_slices_copies_each_row_a_bounded_number_of_times(
        self, rng
    ):
        """N rows in N single-row slices: O(log N) reallocations and
        O(N) rows copied between buffers — not the O(N^2) of re-stacking
        the memory on every call."""
        rows = 512
        config = MemNNConfig(
            embedding_dim=8, num_sentences=rows, vocab_size=50, max_words=4
        )
        eng = MnnFastEngine(config)
        story = rng.integers(1, 50, size=(rows, 4))
        buffers, copied = [], 0
        for stored, sentence in enumerate(story):
            eng.store_story(sentence[None, :])
            buffer = eng.memories[0].base
            if not buffers or buffer is not buffers[-1]:
                buffers.append(buffer)  # kept alive: identities stay distinct
                copied += stored
        assert len(buffers) <= np.log2(rows) + 1
        assert copied <= 2 * rows
        assert len(buffers[-1]) == config.num_sentences  # growth is capped
        bulk = MnnFastEngine(config, eng.weights)
        bulk.store_story(story)
        for grown, stacked in zip(eng.memories, bulk.memories):
            np.testing.assert_array_equal(grown, stacked)

    def test_append_after_set_memories_leaves_the_callers_arrays_alone(
        self, config, rng
    ):
        # Views into larger arrays: an append that trusted spare room
        # behind the installed rows would write into backing[20].
        backing_in = rng.normal(size=(30, 16))
        backing_out = rng.normal(size=(30, 16))
        before_in, before_out = backing_in.copy(), backing_out.copy()
        eng = MnnFastEngine(config, engine_config=float64())
        eng.set_memories(backing_in[:20], backing_out[:20])
        eng.store_story(rng.integers(1, 50, size=(3, 6)))
        np.testing.assert_array_equal(backing_in, before_in)
        np.testing.assert_array_equal(backing_out, before_out)
        m_in, m_out = eng.memories
        assert m_in.shape == m_out.shape == (23, 16)
        np.testing.assert_array_equal(m_in[:20], before_in[:20])
        np.testing.assert_array_equal(m_out[:20], before_out[:20])
        assert not np.shares_memory(m_in, backing_in)

    def test_views_handed_out_do_not_change_after_clear_and_append(
        self, engine, rng
    ):
        m_in, m_out = engine.memories
        held_in, held_out = m_in.copy(), m_out.copy()
        engine.clear_memories()
        engine.store_story(rng.integers(1, 50, size=(40, 6)))
        np.testing.assert_array_equal(m_in, held_in)
        np.testing.assert_array_equal(m_out, held_out)
        assert not np.shares_memory(engine.memories[0], m_in)

    def test_memories_are_read_only(self, engine, config, rng):
        for memory in engine.memories:
            assert not memory.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                memory[0, 0] = 1.0
        installed = rng.normal(size=(5, 16))
        engine.set_memories(installed, installed.copy())
        assert not engine.memories[0].flags.writeable
        assert installed.flags.writeable  # the caller's own array is untouched
        engine.clear_memories()
        assert not engine.memories[0].flags.writeable

    def test_empty_story_is_a_no_op_that_keeps_the_solver(self, engine, rng):
        questions = rng.integers(1, 50, size=(2, 6))
        before = engine.answer(questions)
        solver = engine._solver(0)
        engine.store_story(np.zeros((0, 6), dtype=np.int64))
        assert engine.num_stored_sentences == 40
        assert engine._solver(0) is solver
        np.testing.assert_array_equal(
            engine.answer(questions).logits, before.logits
        )

    def test_a_clear_with_no_view_handed_out_keeps_the_buffers(self, config, rng):
        """A clear resets the row count and keeps the append buffers:
        the next write allocates no more than a later one (the NumPy
        embedding's temporaries: nothing with the compiled one) and lands
        in the same buffers, and the answers are a fresh engine's."""
        eng = MnnFastEngine(config)
        story = rng.integers(1, 50, size=(30, 6))
        questions = rng.integers(1, 50, size=(2, 6))
        eng.store_story(story[:12])
        eng.answer(questions)
        buffers = [matrix for pair in eng._buffers for matrix in pair]
        eng.clear_memories()
        assert eng.num_stored_sentences == 0
        first = _peak_bytes(lambda: eng.store_story(story[12:13]))
        later = _peak_bytes(lambda: eng.store_story(story[13:14]))
        assert first < later + buffers[0].nbytes
        eng.store_story(story[14:20])
        kept = [matrix for pair in eng._buffers for matrix in pair]
        assert all(now is before for now, before in zip(kept, buffers))
        fresh = MnnFastEngine(config, eng.weights)
        fresh.store_story(story[12:20])
        want = fresh.answer(questions).logits
        assert eng.answer(questions).logits.tobytes() == want.tobytes()

    def test_a_view_handed_out_keeps_its_bytes_through_writes_and_clears(
        self, config, rng
    ):
        """``memories`` taken between writes, and right before a clear,
        read the same bytes after later writes and clears: the clear
        after a hand-out leaves the viewed buffers alone, and the next
        write allocates new ones."""
        eng = MnnFastEngine(config)
        story = rng.integers(1, 50, size=(80, 6))
        eng.store_story(story[:4])
        between = eng.memories
        eng.store_story(story[4:9])
        before_clear = eng.memories
        views = (*between, *before_clear)
        held = [view.tobytes() for view in views]
        for turn in range(3):
            eng.clear_memories()
            eng.store_story(story[10 + 20 * turn : 20 + 20 * turn])
            eng.store_story(story[20 + 20 * turn : 30 + 20 * turn])
        assert [view.tobytes() for view in views] == held
        assert not np.shares_memory(eng._buffers[0][0], before_clear[0])

    def test_rejected_story_writes_no_row(self, config, rng):
        """Overflow and out-of-range word IDs raise before any row
        reaches the buffers."""
        eng = MnnFastEngine(config)
        eng.store_story(rng.integers(1, 50, size=(90, 6)))
        held = [memory.copy() for memory in eng.memories]
        with pytest.raises(ValueError, match="overflows"):
            eng.store_story(rng.integers(1, 50, size=(11, 6)))
        bad = rng.integers(1, 50, size=(5, 6))
        bad[3, 2] = 50
        with pytest.raises(ValueError, match="out of range"):
            eng.store_story(bad)
        assert eng.num_stored_sentences == 90
        for memory, kept in zip(eng.memories, held):
            np.testing.assert_array_equal(memory, kept)
        eng.store_story(rng.integers(1, 50, size=(10, 6)))  # exactly full
        assert eng.num_stored_sentences == config.num_sentences


class TestAnswering:
    def test_answer_shapes(self, engine, rng):
        questions = rng.integers(1, 50, size=(4, 6))
        result = engine.answer(questions)
        assert result.answer_ids.shape == (4,)
        assert result.logits.shape == (4, 50)
        assert result.response.shape == (4, 16)
        np.testing.assert_allclose(result.answer_probabilities.sum(axis=1), 1.0)

    def test_answer_probabilities_are_computed_on_first_read(self, engine, rng):
        """Nothing on the serving path reads the answer softmax, so it
        is a cached property of the logits, on the batch result and on
        each per-question view."""
        batch = engine.answer_batch(rng.integers(1, 50, size=(3, 6)))
        assert "answer_probabilities" not in vars(batch.batch)
        probabilities = batch.batch.answer_probabilities
        np.testing.assert_array_equal(probabilities, softmax(batch.batch.logits))
        assert batch.batch.answer_probabilities is probabilities
        for i, view in enumerate(batch.results):
            np.testing.assert_array_equal(
                view.answer_probabilities, probabilities[i : i + 1]
            )

    def test_answer_without_story_raises(self, config, rng):
        eng = MnnFastEngine(config)
        with pytest.raises(ValueError, match="story"):
            eng.answer(rng.integers(1, 50, size=(1, 6)))

    def test_baseline_and_column_agree(self, config, rng):
        weights = EngineWeights.random(config, rng=np.random.default_rng(7))
        story = rng.integers(1, 50, size=(30, 6))
        questions = rng.integers(1, 50, size=(4, 6))

        outputs = {}
        for name, ecfg in {
            "baseline": EngineConfig.baseline(),
            "column": float64(),
        }.items():
            eng = MnnFastEngine(config, weights, engine_config=ecfg)
            eng.store_story(story)
            outputs[name] = eng.answer(questions)
        np.testing.assert_allclose(
            outputs["column"].logits, outputs["baseline"].logits, rtol=1e-10
        )
        np.testing.assert_array_equal(
            outputs["column"].answer_ids, outputs["baseline"].answer_ids
        )

    def test_multi_hop_changes_response(self, config, rng):
        weights = EngineWeights.random(config, rng=np.random.default_rng(7))
        story = rng.integers(1, 50, size=(30, 6))
        questions = rng.integers(1, 50, size=(2, 6))

        responses = {}
        for hops in (1, 3):
            cfg = MemNNConfig(
                embedding_dim=16, num_sentences=100, vocab_size=50,
                max_words=6, hops=hops,
            )
            eng = MnnFastEngine(cfg, weights)
            eng.store_story(story)
            responses[hops] = eng.answer(questions).response
        assert not np.allclose(responses[1], responses[3])

    def test_zero_skip_engine_close_to_exact(self, config, rng):
        weights = EngineWeights.random(config, rng=np.random.default_rng(7))
        story = rng.integers(1, 50, size=(30, 6))
        questions = rng.integers(1, 50, size=(4, 6))

        exact = MnnFastEngine(config, weights)
        exact.store_story(story)
        skipping = MnnFastEngine(
            config, weights, engine_config=EngineConfig.mnnfast(threshold=0.001)
        )
        skipping.store_story(story)
        r_exact = exact.answer(questions)
        r_skip = skipping.answer(questions)
        # A tiny threshold keeps all meaningful mass: answers must agree.
        np.testing.assert_array_equal(r_skip.answer_ids, r_exact.answer_ids)

    def test_stats_accumulated(self, engine, rng):
        result = engine.answer(rng.integers(1, 50, size=(4, 6)))
        assert result.stats.flops > 0
        assert result.stats.exp_calls == 4 * 40


class TestAttention:
    def test_attention_rows_are_distributions(self, engine, rng):
        probs = engine.attention(rng.integers(1, 50, size=(3, 6)))
        assert probs.shape == (3, 40)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_attention_parity_across_algorithms(self, config, rng):
        """The column/sharded attention() reconstruction shortcut must
        reproduce the baseline's explicit softmax — first-hop
        probabilities are path-independent."""
        weights = EngineWeights.random(config, rng=np.random.default_rng(7))
        story = rng.integers(1, 50, size=(30, 6))
        questions = rng.integers(1, 50, size=(3, 6))

        probs = {}
        for name, ecfg in {
            "baseline": EngineConfig(algorithm="baseline"),
            "column": EngineConfig(algorithm="column"),
            "sharded-contig": EngineConfig(algorithm="sharded", num_shards=4),
            "sharded-strided": EngineConfig(
                algorithm="sharded", num_shards=3, shard_policy="strided"
            ),
        }.items():
            eng = MnnFastEngine(config, weights, engine_config=ecfg)
            eng.store_story(story)
            probs[name] = eng.attention(questions)

        for name, p in probs.items():
            np.testing.assert_allclose(
                p,
                probs["baseline"],
                rtol=1e-10,
                atol=1e-12,
                err_msg=f"attention diverges on {name}",
            )

    def test_attention_with_cache_is_identical(self, engine, rng):
        questions = rng.integers(1, 50, size=(3, 6))
        plain = engine.attention(questions)
        cached = engine.attention(questions, cache=FakeCache())
        np.testing.assert_array_equal(plain, cached)


class FakeCache:
    """Minimal VectorCache recording lookups."""

    def __init__(self):
        self.store = {}

    def lookup(self, word_id):
        return self.store.get(word_id)

    def insert(self, word_id, vector):
        self.store[word_id] = np.array(vector)


class TestEmbeddingCachePath:
    def test_cache_miss_then_hit(self, engine):
        cache = FakeCache()
        q = np.array([[3, 4, 3, PAD_ID, PAD_ID, PAD_ID]])
        _, hits, misses = engine.embed_question(q, cache)
        # Word 3 appears twice: first a miss, then a hit.
        assert misses == 2
        assert hits == 1

    def test_cached_embedding_is_exact(self, engine, rng):
        cache = FakeCache()
        q = rng.integers(1, 50, size=(2, 6))
        u_cold, _, _ = engine.embed_question(q, cache)
        u_warm, hits, misses = engine.embed_question(q, cache)
        assert misses == 0 and hits > 0
        np.testing.assert_allclose(u_warm, u_cold)
        u_plain, _, _ = engine.embed_question(q)
        np.testing.assert_allclose(u_warm, u_plain)

    def test_answer_reports_cache_stats(self, engine, rng):
        cache = FakeCache()
        q = rng.integers(1, 50, size=(2, 6))
        result = engine.answer(q, cache=cache)
        assert result.cache_misses > 0
        result2 = engine.answer(q, cache=cache)
        assert result2.cache_misses == 0


class TestEngineWeights:
    def test_pad_row_forced_to_zero(self, config, rng):
        w = EngineWeights.random(config, rng=rng)
        np.testing.assert_array_equal(w.embedding_a[PAD_ID], 0.0)
        np.testing.assert_array_equal(w.embedding_c[PAD_ID], 0.0)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="share a shape"):
            EngineWeights(
                embedding_a=rng.normal(size=(10, 4)),
                embedding_c=rng.normal(size=(11, 4)),
                answer_weight=rng.normal(size=(10, 4)),
            )

    def test_answer_width_validated(self, rng):
        with pytest.raises(ValueError, match="answer weight"):
            EngineWeights(
                embedding_a=rng.normal(size=(10, 4)),
                embedding_c=rng.normal(size=(10, 4)),
                answer_weight=rng.normal(size=(10, 5)),
            )

    def test_engine_validates_weight_config_match(self, config, rng):
        other = MemNNConfig(embedding_dim=8, vocab_size=20, max_words=6)
        with pytest.raises(ValueError, match="vocabulary"):
            MnnFastEngine(config, EngineWeights.random(other, rng=rng))


class TestTierStats:
    """The unified ``tier_stats()`` accessor (ISSUE 6).  The historical
    per-tier attributes went through two PRs of ``DeprecationWarning``
    and are now removed (ISSUE 8) — reading them is an AttributeError,
    while the constructor keywords remain the engines' write surface."""

    def test_tier_stats_keys(self, engine, rng):
        result = engine.answer(rng.integers(1, 50, size=(2, 6)))
        tiers = result.tier_stats()
        assert set(tiers) == {"shards", "store", "index", "hops"}
        # Unsharded, resident, no top-k: shard lists empty, store and
        # index entries None, one entry per hop.
        assert tiers["shards"] == [[]]
        assert tiers["store"] == [None]
        assert tiers["index"] == [None]
        # Gate disabled by default: the hop record shows every
        # question running to full depth with no exits.
        assert tiers["hops"].num_exited == 0
        assert list(tiers["hops"].hops_run) == [1, 1]

    def test_tier_stats_does_not_warn(self, engine, rng):
        import warnings

        result = engine.answer(rng.integers(1, 50, size=(2, 6)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result.tier_stats()

    def test_old_answer_attribute_is_gone(self, engine, rng):
        result = engine.answer(rng.integers(1, 50, size=(2, 6)))
        with pytest.raises(AttributeError):
            _ = result.hop_shard_stats

    def test_old_inference_attributes_are_gone(self, config, rng):
        from repro.core import ColumnMemNN

        m_in = rng.normal(size=(30, config.embedding_dim))
        m_out = rng.normal(size=(30, config.embedding_dim))
        result = ColumnMemNN(m_in, m_out).output(
            rng.normal(size=(2, config.embedding_dim))
        )
        with pytest.raises(AttributeError):
            _ = result.shard_stats
        with pytest.raises(AttributeError):
            _ = result.store_stats

    def test_constructor_keywords_feed_tier_stats(self):
        """The old field names survive as constructor keywords (the
        engines' write surface) and land in ``tier_stats()``."""
        from repro.core import InferenceResult, OpStats
        from repro.store.base import StoreStats

        shards = [OpStats(flops=1), OpStats(flops=2)]
        ledger = StoreStats(ram_bytes=64, chunks_served=1)
        result = InferenceResult(
            output=np.zeros((1, 4)),
            stats=OpStats(),
            shard_stats=shards,
            store_stats=ledger,
        )
        tiers = result.tier_stats()
        assert tiers["shards"] == shards
        assert tiers["store"] == ledger

    def test_sharded_results_populate_shards_tier(self, config, rng):
        eng = MnnFastEngine(
            config,
            EngineWeights.random(config, rng=rng),
            engine_config=EngineConfig.sharded(3),
        )
        eng.store_story(rng.integers(1, 50, size=(40, 6)))
        result = eng.answer(rng.integers(1, 50, size=(2, 6)))
        shards = result.tier_stats()["shards"]
        assert len(shards) == config.hops
        assert all(len(per_hop) == 3 for per_hop in shards)


class TestInferencePlan:
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

    def test_validation(self):
        with pytest.raises(ValueError, match="exit_rate"):
            expected_hop_survivors(8, 2, exit_rate=1.5)
        with pytest.raises(ValueError, match="batch_size"):
            expected_hop_survivors(0, 2)

    def test_engine_plan_describes_engine_state(self, rng):
        config = MemNNConfig(
            embedding_dim=16, num_sentences=100, num_questions=1,
            vocab_size=50, max_words=6, hops=2,
        )
        engine = MnnFastEngine(config)
        engine.store_story(rng.integers(1, 50, size=(40, 6)))
        plan = engine.plan(batch_size=4)
        assert plan.num_rows == 40
        assert plan.hops == 2
        assert plan.batch_size == 4
