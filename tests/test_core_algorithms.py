"""Baseline vs column-based algorithm: equivalence and behaviour.

The central correctness claim of §3.1 is that the column-based
algorithm with lazy softmax "generates the same results as the
baseline"; these tests verify that claim across chunk sizes, against
the paper's raw-exponential form, and in sharded (scale-out)
execution.
"""

import numpy as np
import pytest

from repro.core import (
    BaselineMemNN,
    ChunkConfig,
    ColumnMemNN,
    PartialOutput,
    ShardedMemNN,
    ZeroSkipConfig,
    merge_partials,
    softmax,
    unstable_softmax,
)


class TestBaseline:
    def test_output_matches_equation_3(self, small_memories, questions):
        m_in, m_out = small_memories
        result = BaselineMemNN(m_in, m_out).output(questions)
        expected = softmax(questions @ m_in.T) @ m_out
        np.testing.assert_allclose(result.output, expected)

    def test_probabilities_returned_on_request(self, small_memories, questions):
        m_in, m_out = small_memories
        engine = BaselineMemNN(m_in, m_out)
        assert engine.output(questions).probabilities is None
        probs = engine.output(questions, return_probabilities=True).probabilities
        assert probs is not None and probs.shape == (5, 64)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_single_question_vector_promoted(self, small_memories, rng):
        m_in, m_out = small_memories
        u = rng.normal(size=8)
        result = BaselineMemNN(m_in, m_out).output(u)
        assert result.output.shape == (1, 8)

    def test_rejects_mismatched_memories(self, rng):
        with pytest.raises(ValueError, match="differ"):
            BaselineMemNN(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)))

    def test_rejects_wrong_question_width(self, small_memories, rng):
        m_in, m_out = small_memories
        with pytest.raises(ValueError, match="questions"):
            BaselineMemNN(m_in, m_out).output(rng.normal(size=(2, 9)))

    def test_division_count_scales_with_ns(self, small_memories, questions):
        # §3.1: baseline divisions are proportional to ns.
        m_in, m_out = small_memories
        stats = BaselineMemNN(m_in, m_out).output(questions).stats
        assert stats.divisions == 5 * 64


class TestColumnEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 3, 16, 64, 100])
    def test_matches_baseline_any_chunking(self, small_memories, questions, chunk_size):
        m_in, m_out = small_memories
        baseline = BaselineMemNN(m_in, m_out).output(questions).output
        column = ColumnMemNN(
            m_in, m_out, chunk=ChunkConfig(chunk_size=chunk_size)
        ).output(questions).output
        np.testing.assert_allclose(column, baseline, rtol=1e-10)

    def test_paper_faithful_mode_matches_in_safe_range(
        self, small_memories, questions
    ):
        # Eq. (4) with raw exponentials, where they cannot overflow.
        m_in, m_out = small_memories
        paper = unstable_softmax(questions @ m_in.T) @ m_out
        column = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=7)).output(
            questions
        )
        np.testing.assert_allclose(column.output, paper, rtol=1e-10)

    def test_stable_mode_survives_huge_scores(self, rng):
        # The paper-faithful Eq. (4) overflows here; the online-softmax
        # variant must not (DESIGN.md ablation: lazy-softmax stability).
        m_in = rng.normal(size=(32, 4)) * 200.0
        m_out = rng.normal(size=(32, 4))
        u = rng.normal(size=(2, 4)) * 10.0
        stable = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=8)).output(u)
        assert np.all(np.isfinite(stable.output))
        expected = softmax(u @ m_in.T) @ m_out
        np.testing.assert_allclose(stable.output, expected, rtol=1e-8)

    def test_unstable_mode_overflows_on_huge_scores(self, rng):
        m_in = rng.normal(size=(32, 4)) * 200.0
        m_out = rng.normal(size=(32, 4))
        u = rng.normal(size=(2, 4)) * 10.0
        with np.errstate(over="ignore", invalid="ignore"):
            unstable = unstable_softmax(u @ m_in.T) @ m_out
        assert not np.all(np.isfinite(unstable))
        assert np.all(np.isfinite(ColumnMemNN(m_in, m_out).output(u).output))

    def test_division_count_scales_with_ed_not_ns(self, small_memories, questions):
        # §3.1: column divisions are proportional to ed, not ns.
        m_in, m_out = small_memories
        stats = ColumnMemNN(m_in, m_out).output(questions).stats
        assert stats.divisions == 5 * 8

    def test_intermediate_footprint_is_chunk_sized(self, small_memories, questions):
        m_in, m_out = small_memories
        small = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=4))
        big = BaselineMemNN(m_in, m_out)
        col_stats = small.output(questions).stats
        base_stats = big.output(questions).stats
        assert col_stats.intermediate_bytes == 2 * 5 * 4 * 4
        assert base_stats.intermediate_bytes == 3 * 5 * 64 * 4
        assert col_stats.intermediate_bytes < base_stats.intermediate_bytes

    def test_chunk_larger_than_memory_is_fine(self, small_memories, questions):
        m_in, m_out = small_memories
        result = ColumnMemNN(
            m_in, m_out, chunk=ChunkConfig(chunk_size=10_000)
        ).output(questions)
        expected = softmax(questions @ m_in.T) @ m_out
        np.testing.assert_allclose(result.output, expected)


class TestPartialOutput:
    def test_merge_of_shards_equals_whole(self, small_memories, questions):
        m_in, m_out = small_memories
        whole = ColumnMemNN(m_in, m_out).output(questions).output
        solver = ShardedMemNN(m_in, m_out, num_shards=4)
        partials = [partial for partial, _ in solver.shard_partials(questions)]
        merged = merge_partials(partials)
        np.testing.assert_allclose(merged.finalize(), whole, rtol=1e-10)

    def test_merge_is_commutative(self, small_memories, questions):
        m_in, m_out = small_memories
        solver = ShardedMemNN(m_in, m_out, num_shards=2)
        (a, _), (b, _) = solver.shard_partials(questions)
        np.testing.assert_allclose(
            a.merge(b).finalize(), b.merge(a).finalize(), rtol=1e-12
        )

    def test_merge_with_identity(self, small_memories, questions):
        m_in, m_out = small_memories
        partial, _ = ColumnMemNN(m_in, m_out).partial_output(questions)
        identity = PartialOutput.empty(5, 8)
        np.testing.assert_allclose(
            identity.merge(partial).finalize(), partial.finalize()
        )

    def test_finalize_empty_raises(self):
        with pytest.raises(ValueError, match="denominator"):
            PartialOutput.empty(2, 3).finalize()

    def test_merge_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shapes"):
            PartialOutput.empty(2, 3).merge(PartialOutput.empty(2, 4))

    def test_partition_covers_all_sentences(self, small_memories, questions):
        m_in, m_out = small_memories
        pairs = ShardedMemNN(m_in, m_out, num_shards=3).shard_partials(questions)
        scanned = sum(stats.rows_computed + stats.rows_skipped for _, stats in pairs)
        assert scanned == len(questions) * 64

    def test_merge_partials_requires_input(self):
        with pytest.raises(ValueError):
            merge_partials([])


class TestColumnZeroSkip:
    def test_running_probability_mode_is_conservative(
        self, small_memories, questions
    ):
        # The single-pass running denominator can only under-skip
        # relative to the exact probability rule.
        m_in, m_out = small_memories
        cfg = ZeroSkipConfig(threshold=0.05)
        base = BaselineMemNN(m_in, m_out).output(questions, zero_skip=cfg)
        col = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=8)).output(
            questions, zero_skip=cfg
        )
        assert col.stats.rows_skipped <= base.stats.rows_skipped

    def test_zero_threshold_is_identity(self, small_memories, questions):
        m_in, m_out = small_memories
        engine = ColumnMemNN(m_in, m_out)
        plain = engine.output(questions).output
        skipped = engine.output(questions, zero_skip=ZeroSkipConfig(0.0)).output
        np.testing.assert_allclose(plain, skipped)

    def test_skipping_reduces_rows_computed(self, small_memories, questions):
        m_in, m_out = small_memories
        engine = ColumnMemNN(m_in, m_out)
        full = engine.output(questions).stats
        skipped = engine.output(
            questions, zero_skip=ZeroSkipConfig(0.05)
        ).stats
        assert skipped.rows_computed < full.rows_computed
        assert skipped.rows_computed + skipped.rows_skipped == full.rows_computed
