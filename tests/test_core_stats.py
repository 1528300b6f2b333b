"""Unit tests for the closed-form phase-cost accounting."""

import pytest

from repro.core.config import ChunkConfig, MemNNConfig
from repro.core.stats import (
    PHASES,
    OpStats,
    baseline_phase_costs,
    column_phase_costs,
)


@pytest.fixture
def cfg():
    return MemNNConfig(
        embedding_dim=48, num_sentences=100_000, num_questions=16, vocab_size=1000
    )


class TestOpStats:
    def test_addition_sums_counters(self):
        a = OpStats(flops=10, bytes_read=5, rows_computed=3)
        b = OpStats(flops=1, bytes_read=2, rows_skipped=4)
        c = a + b
        assert c.flops == 11
        assert c.bytes_read == 7
        assert c.rows_computed == 3
        assert c.rows_skipped == 4

    def test_addition_takes_peak_intermediate(self):
        a = OpStats(intermediate_bytes=100)
        b = OpStats(intermediate_bytes=70)
        assert (a + b).intermediate_bytes == 100

    def test_accumulate_is_addition_in_place(self):
        parts = [
            OpStats(1, 2, 3, 4, 5, 60, 7, 8),
            OpStats(10, 20, 30, 40, 50, 600, 70, 80),
            OpStats(5, 5, 5, 5, 5, 5, 5, 5),
        ]
        total = OpStats()
        for part in parts:
            total.accumulate(part)
        assert total == parts[0] + parts[1] + parts[2]
        assert parts[0] == OpStats(1, 2, 3, 4, 5, 60, 7, 8)  # terms untouched

    def test_skip_ratio(self):
        s = OpStats(rows_computed=25, rows_skipped=75)
        assert s.skip_ratio == pytest.approx(0.75)

    def test_skip_ratio_empty(self):
        assert OpStats().skip_ratio == 0.0

    def test_total_bytes(self):
        assert OpStats(bytes_read=3, bytes_written=4).total_bytes == 7


class TestBaselineCosts:
    def test_all_phases_present(self, cfg):
        costs = baseline_phase_costs(cfg)
        assert set(costs) == set(PHASES)

    def test_matmul_flops(self, cfg):
        costs = baseline_phase_costs(cfg)
        expected = 2.0 * 16 * 100_000 * 48
        assert costs["inner_product"].flops == expected
        assert costs["weighted_sum"].flops == expected

    def test_softmax_spill_traffic_dominated_by_intermediates(self, cfg):
        # Baseline softmax traffic is pure intermediate spill (4 passes).
        costs = baseline_phase_costs(cfg)
        inter = cfg.intermediate_bytes
        assert costs["softmax"].dram_bytes == 4 * inter

    def test_total_dram_includes_both_memories(self, cfg):
        costs = baseline_phase_costs(cfg)
        total = sum(c.dram_bytes for c in costs.values())
        assert total >= 2 * cfg.memory_bytes


class TestColumnCosts:
    def test_no_dram_spills_for_intermediates(self, cfg):
        costs = column_phase_costs(cfg, ChunkConfig(chunk_size=1000))
        assert costs["softmax"].dram_bytes == 0.0
        assert costs["softmax"].cache_bytes > 0.0

    def test_total_dram_less_than_baseline(self, cfg):
        base = sum(c.dram_bytes for c in baseline_phase_costs(cfg).values())
        col = sum(
            c.dram_bytes
            for c in column_phase_costs(cfg, ChunkConfig(chunk_size=1000)).values()
        )
        assert col < base

    def test_zero_skip_reduces_weighted_sum(self, cfg):
        chunk = ChunkConfig(chunk_size=1000)
        full = column_phase_costs(cfg, chunk, skip_ratio=0.0)
        skip = column_phase_costs(cfg, chunk, skip_ratio=0.97)
        assert skip["weighted_sum"].flops == pytest.approx(
            full["weighted_sum"].flops * 0.03
        )
        assert skip["inner_product"].flops == full["inner_product"].flops

    def test_skip_ratio_validated(self, cfg):
        with pytest.raises(ValueError):
            column_phase_costs(cfg, ChunkConfig(), skip_ratio=1.5)

    def test_division_reduction_ns_to_ed(self, cfg):
        # §3.1: divisions drop from O(ns) (baseline softmax includes a
        # division per element) to O(ed) per question.
        base = baseline_phase_costs(cfg)["softmax"].flops
        col = column_phase_costs(cfg, ChunkConfig())["softmax"].flops
        assert col < base

    def test_phase_cost_addition(self, cfg):
        costs = column_phase_costs(cfg, ChunkConfig())
        total = costs["inner_product"] + costs["softmax"] + costs["weighted_sum"]
        assert total.flops == sum(c.flops for c in costs.values())
        assert total.dram_bytes == sum(c.dram_bytes for c in costs.values())
