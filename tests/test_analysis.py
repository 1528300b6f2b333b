"""Tests for the per-figure analysis drivers."""

import numpy as np
import pytest

from repro.analysis import (
    algorithm_scalability,
    bandwidth_scalability,
    contention_experiment,
    contention_sweep,
    embedding_cache_effectiveness,
    energy_comparison,
    fpga_latency_breakdown,
    gpu_multi_gpu_scaling,
    gpu_stream_scaling,
    offchip_accesses,
    operation_breakdown,
    probability_distribution,
    speedup_over_baseline,
    threshold_sweep,
)
from repro.analysis.contention import DEFAULT_SCALES


class TestScalabilityDrivers:
    def test_fig3_channels_ordering(self):
        curves = bandwidth_scalability(max_threads=16)
        # At the highest thread count more channels means more speedup.
        assert curves[2][16] <= curves[4][16] <= curves[8][16]

    def test_fig10_all_algorithms_present(self):
        curves = algorithm_scalability(max_threads=8)
        assert set(curves) == {"baseline", "column", "column_streaming", "mnnfast"}

    def test_fig9a_column_cuts_softmax(self):
        breakdown = operation_breakdown(threads=20)
        assert breakdown["column"]["softmax"] < breakdown["baseline"]["softmax"]

    def test_fig9a_streaming_cuts_inner_product(self):
        breakdown = operation_breakdown(threads=20)
        assert (
            breakdown["column_streaming"]["inner_product"]
            < breakdown["baseline"]["inner_product"]
        )

    def test_fig9b_speedups_above_one(self):
        speedups = speedup_over_baseline(max_threads=8)
        assert all(v >= 1.0 for curve in speedups.values() for v in curve.values())


class TestContention:
    def test_degradation_grows_with_threads(self):
        config = DEFAULT_SCALES["medium"]
        few = contention_experiment(config, 1, lookups_per_thread=5000)
        many = contention_experiment(config, 8, lookups_per_thread=5000)
        assert many.relative_performance < few.relative_performance < 1.01

    def test_zero_threads_is_unit(self):
        config = DEFAULT_SCALES["small"]
        result = contention_experiment(config, 0)
        assert result.relative_performance == 1.0

    def test_embedding_cache_removes_contention(self):
        config = DEFAULT_SCALES["medium"]
        shared = contention_experiment(config, 8, lookups_per_thread=5000)
        isolated = contention_experiment(
            config, 8, lookups_per_thread=5000, mode="embedding_cache"
        )
        assert isolated.relative_performance > shared.relative_performance
        assert isolated.relative_performance == pytest.approx(1.0, abs=0.02)

    def test_bypass_also_removes_contention(self):
        config = DEFAULT_SCALES["small"]
        isolated = contention_experiment(
            config, 4, lookups_per_thread=5000, mode="bypass"
        )
        assert isolated.relative_performance == pytest.approx(1.0, abs=0.02)

    def test_sweep_structure(self):
        grid = contention_sweep(
            scales={"tiny": DEFAULT_SCALES["small"]},
            thread_counts=(1, 2),
        )
        assert set(grid) == {"tiny"}
        assert set(grid["tiny"]) == {1, 2}

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            contention_experiment(DEFAULT_SCALES["small"], 1, mode="wrong")

    def test_negative_threads_rejected(self):
        with pytest.raises(ValueError):
            contention_experiment(DEFAULT_SCALES["small"], -1)


class TestOffchip:
    def test_fig11_ordering_and_band(self):
        result = offchip_accesses()
        normalized = result.normalized
        assert normalized["baseline"] == 1.0
        assert normalized["column"] < 1.0
        assert normalized["column_streaming"] < normalized["column"]
        # Paper: streaming eliminates >60% of off-chip accesses.
        assert normalized["column_streaming"] < 0.4

    def test_dram_bytes_reported(self):
        result = offchip_accesses()
        assert result.dram_bytes["baseline"] > result.dram_bytes["column"]


class TestPlatformDrivers:
    def test_fig12a_structure(self):
        result = gpu_stream_scaling(stream_counts=(1, 2, 4))
        assert result["speedup"][4] > result["speedup"][1]

    def test_fig12b_gap_monotone(self):
        points = gpu_multi_gpu_scaling(gpu_counts=(1, 2, 4))
        gaps = [p.h2d_contention_gap for p in points]
        assert gaps == sorted(gaps)

    def test_fig13_normalized_to_baseline(self):
        table = fpga_latency_breakdown()
        assert table["baseline"] == pytest.approx(1.0)
        assert table["mnnfast"] < 0.6

    def test_fig14_paper_band(self):
        reductions = embedding_cache_effectiveness(num_lookups=30_000)
        values = list(reductions.values())
        assert values == sorted(values)
        # Paper ladder: 34.5% / 41.7% / 47.7% / 53.1%; accept +-8 points.
        paper = [0.345, 0.417, 0.477, 0.531]
        for measured, expected in zip(values, paper):
            assert measured == pytest.approx(expected, abs=0.08)

    def test_energy_comparison_band(self):
        comparison = energy_comparison()
        assert 5.0 <= comparison.efficiency_ratio <= 8.0


@pytest.mark.slow
class TestTrainedAnalyses:
    """Drivers that require training (kept small; full runs in benches)."""

    def test_fig6_sparsity(self):
        result = probability_distribution(
            task_id=1, num_questions=30, train_examples=200, epochs=15,
            max_sentences=20,
        )
        np.testing.assert_allclose(result.probabilities.sum(axis=1), 1.0)
        # The trained attention is sparse: few entries above 0.1.
        assert result.fraction_above[0.1] < 0.4
        assert result.mean_max > 0.2

    def test_fig7_tradeoff_monotone(self):
        curve = threshold_sweep(
            task_ids=(1,), thresholds=(0.01, 0.1, 0.5),
            train_examples=200, test_examples=50, epochs=15,
        )
        reductions = [p.computation_reduction for p in curve.points]
        assert reductions == sorted(reductions)
        losses = [p.accuracy_loss for p in curve.points]
        assert all(0.0 <= loss <= 1.0 for loss in losses)

    def test_fig7_requires_tasks(self):
        with pytest.raises(ValueError):
            threshold_sweep(task_ids=())
