"""Differential tests for sharded lazy-softmax attention (ISSUE 2).

The sharded path must be *exact*: for any shard count the merged
output equals single-shard column mode (and the baseline) to 1e-10, the
merge must be associative/commutative up to max-rescaling
round-off, and degenerate partitions (more shards than rows, empty
shards, single-row shards) must still cover every row exactly once.
"""

import numpy as np
import pytest

from repro.core import (
    BaselineMemNN,
    ChunkConfig,
    ColumnMemNN,
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    ShardedMemNN,
    ShardPlan,
)
from repro.core.column import PartialOutput
from repro.core.zero_skip import probability_mode_mask

from .conftest import contiguous, float64, kept_rows

#: Documented agreement bound between answer-producing paths.
TOLERANCE = 1e-10

SHARD_COUNTS = (1, 2, 3, 8)


@pytest.fixture
def memories(rng):
    ns, ed = 97, 8  # prime row count: uneven shards
    return rng.normal(size=(ns, ed)), rng.normal(size=(ns, ed))


@pytest.fixture
def u(rng):
    return rng.normal(size=(5, 8))


class TestShardPlan:
    @pytest.mark.parametrize("num_shards", (1, 2, 3, 8, 97, 150), ids=contiguous)
    def test_covers_every_row_exactly_once(self, num_shards):
        plan = ShardPlan(97, num_shards)
        seen = np.concatenate([plan.indices(k) for k in range(num_shards)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(97))

    def test_contiguous_shards_are_runs(self):
        plan = ShardPlan(10, 3)
        for k in range(3):
            idx = plan.indices(k)
            np.testing.assert_array_equal(idx, np.arange(idx[0], idx[-1] + 1))

    def test_more_shards_than_rows_leaves_empty_shards(self):
        plan = ShardPlan(3, 8)
        assert sum(plan.shard_sizes) == 3
        assert plan.num_nonempty <= 3
        assert 0 in plan.shard_sizes

    def test_max_shard_rows(self):
        assert ShardPlan(10, 3).max_shard_rows == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardPlan(10, 0)
        with pytest.raises(ValueError, match="num_rows"):
            ShardPlan(-1, 2)
        with pytest.raises(ValueError, match="shard must be"):
            ShardPlan(10, 2).indices(2)


class TestShardedMatchesSingleShard:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS, ids=contiguous)
    def test_output_matches_column_and_baseline(self, memories, u, num_shards):
        m_in, m_out = memories
        chunk = ChunkConfig(16)
        column = ColumnMemNN(m_in, m_out, chunk=chunk).output(u)
        baseline = BaselineMemNN(m_in, m_out).output(u)
        sharded = ShardedMemNN(
            m_in, m_out, num_shards=num_shards, chunk=chunk
        ).output(u)
        np.testing.assert_allclose(
            sharded.output, column.output, rtol=TOLERANCE, atol=TOLERANCE
        )
        np.testing.assert_allclose(
            sharded.output, baseline.output, rtol=TOLERANCE, atol=TOLERANCE
        )

    @pytest.mark.parametrize("num_shards", (4,), ids=["contiguous"])
    def test_zero_skip_keeps_exact_rows(self, memories, u, num_shards):
        # A shard decides against its own running denominator, never
        # larger than the merged one: it keeps every row the exact rule
        # keeps (and, the merge being exact, nothing else changes).
        m_in, _ = memories
        exact = probability_mode_mask(u @ m_in.T, 0.01)
        kept = kept_rows(
            lambda a, b: ShardedMemNN(a, b, num_shards=num_shards),
            m_in, u, 0.01,
        )
        assert exact.any() and not (exact & ~kept).any()

    def test_shard_stats_reported_per_shard(self, memories, u):
        m_in, m_out = memories
        result = ShardedMemNN(m_in, m_out, num_shards=4).output(u)
        shard_stats = result.tier_stats()["shards"]
        assert shard_stats is not None
        assert len(shard_stats) == 4
        rows = sum(s.rows_computed for s in shard_stats)
        assert rows == u.shape[0] * m_in.shape[0]
        # Aggregate counters include the shards plus the merge cost.
        assert result.stats.flops > sum(s.flops for s in shard_stats)

    def test_partial_output_composes_with_column_partials(self, memories, u):
        # A sharded node's merged partial merges against a plain column
        # partial from elsewhere — the cluster-reduction contract.
        m_in, m_out = memories
        left_rows = 60
        node = ShardedMemNN(m_in[:left_rows], m_out[:left_rows], num_shards=3)
        remote = ColumnMemNN(m_in[left_rows:], m_out[left_rows:])
        partial, _ = node.partial_output(u)
        remote_partial, _ = remote.partial_output(u)
        merged = partial.merge(remote_partial)
        full = ColumnMemNN(m_in, m_out).output(u)
        np.testing.assert_allclose(
            merged.finalize(), full.output, rtol=TOLERANCE, atol=TOLERANCE
        )


class TestMergeAssociativity:
    def _partials(self, memories, u, num_shards=6):
        m_in, m_out = memories
        solver = ShardedMemNN(m_in, m_out, num_shards=num_shards)
        return [p for p, _ in solver.shard_partials(u)]

    def test_merge_order_invariant(self, memories, u, rng):
        partials = self._partials(memories, u)
        reference = partials[0]
        for p in partials[1:]:
            reference = reference.merge(p)
        for _ in range(5):
            order = rng.permutation(len(partials))
            merged = partials[order[0]]
            for i in order[1:]:
                merged = merged.merge(partials[i])
            np.testing.assert_allclose(
                merged.finalize(),
                reference.finalize(),
                rtol=TOLERANCE,
                atol=TOLERANCE,
            )

    def test_merge_grouping_invariant(self, memories, u):
        partials = self._partials(memories, u)
        left_fold = partials[0]
        for p in partials[1:]:
            left_fold = left_fold.merge(p)
        # Balanced tree reduction, the shape a coordinator really uses.
        level = list(partials)
        while len(level) > 1:
            level = [
                level[i].merge(level[i + 1]) if i + 1 < len(level) else level[i]
                for i in range(0, len(level), 2)
            ]
        np.testing.assert_allclose(
            level[0].finalize(),
            left_fold.finalize(),
            rtol=TOLERANCE,
            atol=TOLERANCE,
        )

    def test_empty_partial_is_identity(self, memories, u):
        partials = self._partials(memories, u, num_shards=2)
        merged = partials[0].merge(partials[1])
        identity = PartialOutput.empty(u.shape[0], memories[0].shape[1])
        with_identity = identity.merge(partials[0]).merge(partials[1])
        np.testing.assert_allclose(
            with_identity.finalize(), merged.finalize(), rtol=1e-15
        )


class TestEdgeCases:
    def test_more_shards_than_sentences(self, rng, u):
        m_in, m_out = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
        sharded = ShardedMemNN(m_in, m_out, num_shards=8)
        column = ColumnMemNN(m_in, m_out)
        np.testing.assert_allclose(
            sharded.output(u).output,
            column.output(u).output,
            rtol=TOLERANCE,
            atol=TOLERANCE,
        )

    def test_empty_shard_contributes_identity(self, rng, u):
        m_in, m_out = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
        solver = ShardedMemNN(m_in, m_out, num_shards=8)
        pairs = solver.shard_partials(u)
        empties = [p for p, _ in pairs if np.all(np.isneginf(p.log_max))]
        assert empties, "expected at least one empty shard"
        for partial in empties:
            assert np.all(partial.denom == 0.0)
            assert np.all(partial.weighted == 0.0)

    def test_single_row_shards(self, rng, u):
        ns = 8
        m_in, m_out = rng.normal(size=(ns, 8)), rng.normal(size=(ns, 8))
        sharded = ShardedMemNN(m_in, m_out, num_shards=ns)
        assert all(size == 1 for size in sharded.plan.shard_sizes)
        column = ColumnMemNN(m_in, m_out)
        np.testing.assert_allclose(
            sharded.output(u).output,
            column.output(u).output,
            rtol=TOLERANCE,
            atol=TOLERANCE,
        )

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError, match="shapes differ"):
            ShardedMemNN(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))
        with pytest.raises(ValueError, match="2-D"):
            ShardedMemNN(rng.normal(size=(4,)), rng.normal(size=(4,)))


class TestEngineSharded:
    @pytest.fixture
    def setup(self, rng):
        config = MemNNConfig(
            embedding_dim=16, num_sentences=100, num_questions=4,
            vocab_size=50, max_words=6, hops=2,
        )
        weights = EngineWeights.random(config, rng=np.random.default_rng(7))
        story = rng.integers(1, 50, size=(33, 6))
        questions = rng.integers(1, 50, size=(4, 6))
        return config, weights, story, questions

    def _answer(self, setup, engine_config):
        config, weights, story, questions = setup
        engine = MnnFastEngine(config, weights, engine_config=engine_config)
        engine.store_story(story)
        return engine.answer(questions)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS, ids=contiguous)
    def test_engine_logits_match_all_paths(self, setup, num_shards):
        baseline = self._answer(setup, EngineConfig.baseline())
        column = self._answer(setup, float64())
        sharded = self._answer(
            setup, float64(EngineConfig.sharded(num_shards))
        )
        np.testing.assert_allclose(
            sharded.logits, column.logits, rtol=TOLERANCE, atol=TOLERANCE
        )
        np.testing.assert_allclose(
            sharded.logits, baseline.logits, rtol=TOLERANCE, atol=TOLERANCE
        )
        np.testing.assert_array_equal(sharded.answer_ids, baseline.answer_ids)

    def test_contiguous_resident_shards_alias_the_engine_buffer(self, setup):
        """Range shards are slice views of the engine's memory — no
        per-shard copy at solver build — and a view computes the same
        bits as the gathered copy it replaced."""
        config, weights, story, questions = setup
        engine = MnnFastEngine(config, weights, engine_config=EngineConfig.sharded(3))
        engine.store_story(story)
        m_in, m_out = engine.memories
        solver = engine._solver(0)
        assert [shard.num_sentences for shard in solver._shards] == [11, 11, 11]
        u, _, _ = engine.embed_question(questions)
        for shard, idx in zip(solver._shards, solver.plan):
            assert np.shares_memory(shard.m_in, m_in)
            assert np.shares_memory(shard.m_out, m_out)
            copied = ColumnMemNN(
                m_in[idx], m_out[idx], chunk=solver.chunk, dtype=m_in.dtype
            )
            assert not np.shares_memory(copied.m_in, m_in)
            got, _ = shard.partial_output(u)
            want, _ = copied.partial_output(u)
            assert got.weighted.tobytes() == want.weighted.tobytes()
            assert got.denom.tobytes() == want.denom.tobytes()

    def test_engine_reports_per_hop_shard_stats(self, setup):
        result = self._answer(setup, EngineConfig.sharded(3))
        per_hop_shards = result.tier_stats()["shards"]
        assert len(per_hop_shards) == 2  # hops
        assert all(len(per_hop) == 3 for per_hop in per_hop_shards)
        unsharded = self._answer(setup, EngineConfig(algorithm="column"))
        assert all(not per_hop for per_hop in unsharded.tier_stats()["shards"])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            EngineConfig(algorithm="sharded", num_shards=0)
        # Cross-field coupling surfaces at validate() time, so builder
        # chains can pass through the intermediate state.
        with pytest.raises(ValueError, match="requires algorithm='sharded'"):
            EngineConfig(algorithm="column", num_shards=2).validate()
