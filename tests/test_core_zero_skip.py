"""Unit tests for the zero-skipping masks (§3.2)."""

import numpy as np
import pytest

from repro.core import ChunkConfig, ColumnMemNN, ZeroSkipConfig
from repro.core.column import TileState
from repro.core.numerics import softmax
from repro.core.zero_skip import exp_mode_mask, probability_mode_mask, reduction_ratio


class TestExpModeMask:
    def test_keeps_scores_above_log_threshold(self):
        scores = np.array([[-3.0, 0.0, 2.0]])
        mask = exp_mode_mask(scores, threshold=0.5)  # log(0.5) ~ -0.69
        np.testing.assert_array_equal(mask, [[False, True, True]])

    def test_zero_threshold_keeps_all(self, rng):
        scores = rng.normal(size=(3, 10))
        assert exp_mode_mask(scores, 0.0).all()

    def test_no_overflow_for_huge_scores(self):
        # e^{5000} is not representable; the log-space compare is exact.
        mask = exp_mode_mask(np.array([5000.0, -5000.0]), threshold=0.1)
        np.testing.assert_array_equal(mask, [True, False])

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            exp_mode_mask(np.zeros(3), 1.5)


class TestProbabilityModeMask:
    def test_matches_direct_softmax_threshold(self, rng):
        scores = rng.normal(size=(4, 20))
        p = softmax(scores)
        mask = probability_mode_mask(scores, threshold=0.1)
        np.testing.assert_array_equal(mask, p >= 0.1)

    def test_uniform_scores_all_kept_below_uniform_threshold(self):
        scores = np.zeros((1, 10))  # p_i = 0.1 each
        assert probability_mode_mask(scores, threshold=0.05).all()

    def test_peaked_distribution_keeps_only_peak(self):
        scores = np.array([[10.0] + [0.0] * 9])
        mask = probability_mode_mask(scores, threshold=0.1)
        assert mask[0, 0]
        assert not mask[0, 1:].any()


class TestRunningProbabilityMask:
    """The single-pass rule of ``TileState.fold``: a tile's rows are
    decided against the denominator accumulated so far, which is never
    larger than the final one."""

    NS, ED, NQ = 3000, 16, 4
    CHUNKS = (7, 64, 1000)

    def problem(self, rng):
        m_in = rng.normal(size=(self.NS, self.ED))
        m_out = rng.normal(size=(self.NS, self.ED))
        u = rng.normal(size=(self.NQ, self.ED))
        return m_in, m_out, u

    @staticmethod
    def kept_rows(scores, chunk):
        """The ``(nq, ns)`` kept set of a scan in tiles of ``chunk``
        columns.  One-hot output rows: column i of the weighted sum is
        row i's masked exponential, so the kept set is its support."""
        nq, ns = scores.shape
        state = TileState(nq, ns, ZeroSkipConfig(0.1), stable=True)
        one_hot = np.eye(ns)
        for lo in range(0, ns, chunk):
            state.fold(scores[:, lo : lo + chunk].copy(), one_hot[lo : lo + chunk])
        kept = state.partial().weighted != 0
        assert state.rows_kept == kept.sum()
        return kept

    def test_equals_exact_mask_when_sum_is_final(self, rng):
        scores = rng.normal(size=(2, 12))
        exact = probability_mode_mask(scores, 0.1)
        np.testing.assert_array_equal(self.kept_rows(scores, chunk=12), exact)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_keeps_a_superset_of_the_exact_mask(self, rng, chunk):
        m_in, _, u = self.problem(rng)
        scores = u @ m_in.T
        kept = self.kept_rows(scores, chunk)
        exact = probability_mode_mask(scores, 0.1)
        assert exact.any() and not (exact & ~kept).any()
        assert kept.sum() > exact.sum()

    def test_smaller_denominator_keeps_more(self, rng):
        """The same rows folded after a larger prefix meet a larger
        running sum and keep fewer."""
        m_in, m_out, u = self.problem(rng)
        tail = np.arange(self.NS - 1000, self.NS)

        def rows_kept(rows, chunk):
            solver = ColumnMemNN(m_in[rows], m_out[rows], chunk=ChunkConfig(chunk))
            _, stats = solver.partial_output(u, zero_skip=ZeroSkipConfig(0.1))
            return stats.rows_computed

        for chunk in self.CHUNKS:
            # Prefixes of whole chunks, so the tail's tiles are the
            # same; its kept rows are the scan's minus the prefix's own.
            kept = [
                rows_kept(np.r_[prefix, tail], chunk) - rows_kept(prefix, chunk)
                for prefix in (np.arange(chunk * tiles) for tiles in (0, 1, 2))
            ]
            assert kept[0] >= kept[1] >= kept[2] > 0, chunk
            assert kept[0] > kept[2], chunk


class TestReductionRatio:
    def test_all_kept_is_zero(self):
        assert reduction_ratio(np.ones(10, dtype=bool)) == 0.0

    def test_all_skipped_is_one(self):
        assert reduction_ratio(np.zeros(10, dtype=bool)) == 1.0

    def test_half(self):
        mask = np.array([True, False, True, False])
        assert reduction_ratio(mask) == pytest.approx(0.5)

    def test_empty_mask(self):
        assert reduction_ratio(np.zeros((0,), dtype=bool)) == 0.0
