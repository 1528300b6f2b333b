"""CPU performance-model tests: the shapes of Figs. 3, 9 and 10."""

import pytest

from repro.core.config import CPU_CONFIG, MemNNConfig
from repro.core.stats import PHASES
from repro.perf.cpu import ALGORITHMS, CpuModel
from repro.perf.roofline import MachineRates, phase_time
from repro.core.stats import PhaseCost


@pytest.fixture
def cpu():
    return CpuModel()


class TestRoofline:
    def test_compute_bound_phase(self):
        rates = MachineRates(flops_per_second=1e9, dram_bandwidth=1e12)
        cost = PhaseCost(flops=1e9, dram_bytes=1.0)
        assert phase_time(cost, rates, overlap=False) == pytest.approx(1.0, rel=1e-3)

    def test_memory_bound_phase(self):
        rates = MachineRates(flops_per_second=1e15, dram_bandwidth=1e9)
        cost = PhaseCost(flops=1.0, dram_bytes=1e9)
        assert phase_time(cost, rates, overlap=False) == pytest.approx(1.0, rel=1e-3)

    def test_overlap_takes_max(self):
        rates = MachineRates(flops_per_second=1e9, dram_bandwidth=1e9)
        cost = PhaseCost(flops=1e9, dram_bytes=1e9)
        assert phase_time(cost, rates, overlap=True) == pytest.approx(1.0)
        assert phase_time(cost, rates, overlap=False) == pytest.approx(2.0)

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            MachineRates(flops_per_second=0, dram_bandwidth=1)


class TestCpuModel:
    def test_all_algorithms_run(self, cpu):
        for algorithm in ALGORITHMS:
            result = cpu.run(CPU_CONFIG, algorithm, threads=4)
            assert result.total_seconds > 0
            assert set(result.phase_seconds) == set(PHASES)

    def test_unknown_algorithm_rejected(self, cpu):
        with pytest.raises(ValueError, match="algorithm"):
            cpu.run(CPU_CONFIG, "magic", threads=1)

    def test_thread_bounds_validated(self, cpu):
        with pytest.raises(ValueError, match="threads"):
            cpu.run(CPU_CONFIG, "baseline", threads=0)
        with pytest.raises(ValueError, match="threads"):
            cpu.run(CPU_CONFIG, "baseline", threads=25)

    def test_variant_ordering_at_high_thread_count(self, cpu):
        """Fig. 9: baseline > column > column+streaming > MnnFast."""
        times = {
            a: cpu.run(CPU_CONFIG, a, threads=20).total_seconds for a in ALGORITHMS
        }
        assert (
            times["baseline"]
            > times["column"]
            > times["column_streaming"]
            > times["mnnfast"]
        )

    def test_mnnfast_speedup_matches_paper_band(self, cpu):
        """§5.2.1: 5.38x at 20 threads, 4.02x on average."""
        speedups = [
            cpu.speedup_vs_baseline(CPU_CONFIG, "mnnfast", t) for t in range(1, 21)
        ]
        assert 4.0 <= speedups[-1] <= 6.0
        average = sum(speedups) / len(speedups)
        assert 3.0 <= average <= 5.0

    def test_more_threads_never_slower(self, cpu):
        for algorithm in ALGORITHMS:
            times = [
                cpu.run(CPU_CONFIG, algorithm, threads=t).total_seconds
                for t in range(1, 25)
            ]
            assert all(a >= b - 1e-15 for a, b in zip(times, times[1:]))

    def test_column_zero_skip_reduces_weighted_sum_only(self, cpu):
        full = cpu.run(CPU_CONFIG, "column_streaming", threads=8).phase_seconds
        skip = cpu.run(CPU_CONFIG, "mnnfast", threads=8).phase_seconds
        assert skip["weighted_sum"] < full["weighted_sum"]
        assert skip["inner_product"] == pytest.approx(full["inner_product"])

    def test_chunk_granularity_limits_threads(self, cpu):
        """§4.1.1: one worker per chunk — a single-chunk database cannot
        use more than one thread in the column implementation."""
        tiny = MemNNConfig(embedding_dim=25, num_sentences=1000, num_questions=3)
        one = cpu.run(tiny, "column_streaming", threads=1).total_seconds
        twenty = cpu.run(tiny, "column_streaming", threads=20).total_seconds
        assert twenty == pytest.approx(one)
        # The baseline (BLAS row parallelism) is not limited this way.
        base_1 = cpu.run(tiny, "baseline", threads=1).total_seconds
        base_20 = cpu.run(tiny, "baseline", threads=20).total_seconds
        assert base_20 < base_1


class TestScalability:
    def test_fig3_fewer_channels_saturate_earlier(self):
        """Fig. 3: the baseline saturates earlier as channels shrink."""
        points = {
            ch: CpuModel().with_channels(ch).saturation_point(CPU_CONFIG, "baseline")
            for ch in (2, 4, 8)
        }
        assert points[2] <= points[4] <= points[8]
        assert points[2] < points[8]

    def test_fig10_column_saturates_later_than_baseline(self):
        cpu = CpuModel().with_channels(4)
        assert cpu.saturation_point(CPU_CONFIG, "column") > cpu.saturation_point(
            CPU_CONFIG, "baseline"
        )

    def test_fig10_streaming_close_to_ideal(self):
        """Fig. 10(b): streaming reaches near-ideal speedup at 8 channels."""
        cpu = CpuModel().with_channels(8)
        curve = cpu.speedup_curve(CPU_CONFIG, "column_streaming", max_threads=20)
        assert curve[20] >= 0.9 * 20

    def test_baseline_far_from_ideal(self):
        cpu = CpuModel().with_channels(2)
        curve = cpu.speedup_curve(CPU_CONFIG, "baseline", max_threads=20)
        assert curve[20] < 0.5 * 20

    def test_speedup_curve_starts_at_one(self, cpu):
        curve = cpu.speedup_curve(CPU_CONFIG, "baseline", max_threads=4)
        assert curve[1] == pytest.approx(1.0)

    def test_with_channels_does_not_mutate(self, cpu):
        other = cpu.with_channels(2)
        assert cpu.dram.channels == 4
        assert other.dram.channels == 2
