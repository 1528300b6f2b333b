"""GPU and FPGA model tests: the shapes of Figs. 12, 13 and 14, §5.5."""

import pytest

from repro.core.config import GPU_CONFIG
from repro.perf import EnergyModel, FpgaModel, GpuModel


@pytest.fixture
def gpu():
    return GpuModel()


@pytest.fixture
def fpga():
    return FpgaModel()


class TestGpuStreams:
    def test_single_stream_equals_no_overlap_shape(self, gpu):
        base = gpu.run_baseline(GPU_CONFIG)
        one = gpu.run_streams(GPU_CONFIG, 1)
        assert one.total_seconds == pytest.approx(base.total_seconds, rel=0.01)

    def test_streams_overlap_copies_with_kernels(self, gpu):
        """Fig. 12(a): multi-stream gives ~1.33x and then plateaus."""
        base = gpu.run_baseline(GPU_CONFIG).total_seconds
        speedups = {
            k: base / gpu.run_streams(GPU_CONFIG, k).total_seconds
            for k in (1, 2, 4, 8, 16)
        }
        assert 1.1 <= speedups[4] <= 1.5
        # Plateau: going 8 -> 16 streams barely helps (copy critical path).
        assert speedups[16] - speedups[8] < 0.05
        assert speedups[16] < 1.45

    def test_copies_serialize_within_one_gpu(self, gpu):
        """memcpy/memcpy does not overlap: total H2D time is at least the
        full payload at link rate no matter how many streams."""
        result = gpu.run_streams(GPU_CONFIG, 4)
        copy_floor = gpu.copy_bytes(GPU_CONFIG) / gpu.pcie_link_bandwidth
        assert result.total_seconds >= copy_floor

    def test_stream_count_validated(self, gpu):
        with pytest.raises(ValueError):
            gpu.run_streams(GPU_CONFIG, 0)


class TestMultiGpu:
    def test_multi_gpu_scales_better_than_streams(self, gpu):
        """§5.3: multiple GPUs overlap copies with copies; streams cannot."""
        base = gpu.run_baseline(GPU_CONFIG).total_seconds
        four_streams = base / gpu.run_streams(GPU_CONFIG, 4).total_seconds
        four_gpus = base / gpu.run_multi_gpu(GPU_CONFIG, 4).total_seconds
        assert four_gpus > 2 * four_streams

    def test_four_gpu_speedup_band(self, gpu):
        """Paper: 4.34x on four GPUs (we accept the 3-5x band)."""
        base = gpu.run_baseline(GPU_CONFIG).total_seconds
        speedup = base / gpu.run_multi_gpu(GPU_CONFIG, 4).total_seconds
        assert 3.0 <= speedup <= 5.0

    def test_h2d_contention_gap_grows_with_gpus(self, gpu):
        """Fig. 12(b): worst-vs-ideal H2D difference grows with #GPUs."""
        gaps = []
        for g in (1, 2, 4):
            shared = gpu.run_multi_gpu(GPU_CONFIG, g).worst_h2d
            ideal = gpu.run_multi_gpu(GPU_CONFIG, g, ideal_pcie=True).worst_h2d
            gaps.append(shared - ideal)
        assert gaps[0] == pytest.approx(0.0, abs=1e-9)
        assert gaps[-1] > gaps[0]
        assert gaps == sorted(gaps)

    def test_ideal_pcie_never_slower(self, gpu):
        for g in (1, 2, 3, 4):
            shared = gpu.run_multi_gpu(GPU_CONFIG, g).total_seconds
            ideal = gpu.run_multi_gpu(GPU_CONFIG, g, ideal_pcie=True).total_seconds
            assert ideal <= shared + 1e-12

    def test_gpu_count_validated(self, gpu):
        with pytest.raises(ValueError):
            gpu.run_multi_gpu(GPU_CONFIG, 0)


class TestGpuZeroSkip:
    def test_compaction_negates_pruning(self, gpu):
        """§4.1.2: the compaction cost eats the pruning gain on GPUs."""
        estimate = gpu.zero_skip_estimate(GPU_CONFIG)
        assert estimate["net_speedup"] <= 1.0
        assert estimate["pruned_seconds"] < estimate["weighted_sum_seconds"]

    def test_skip_ratio_validated(self, gpu):
        with pytest.raises(ValueError):
            gpu.zero_skip_estimate(GPU_CONFIG, skip_ratio=1.5)


class TestFpgaLatency:
    def test_fig13_ordering(self, fpga):
        table = fpga.latency_table()
        assert (
            table["baseline"]
            > table["column"]
            > table["column_streaming"]
            > table["mnnfast"]
        )

    def test_fig13_bands(self, fpga):
        """Paper: column -27.6%, +streaming -38.2%, MnnFast up to 2.01x."""
        table = fpga.latency_table()
        assert 0.62 <= table["column"] <= 0.82
        assert 0.52 <= table["column_streaming"] <= 0.72
        speedup = 1.0 / table["mnnfast"]
        assert 1.7 <= speedup <= 2.5

    def test_streaming_overlaps(self, fpga):
        col = fpga.run(variant="column")
        streamed = fpga.run(variant="column_streaming")
        assert not col.overlapped and streamed.overlapped
        assert streamed.total_seconds < col.total_seconds

    def test_chunk_skip_fraction(self, fpga):
        # keep 3% per row, chunk of 25: skip ~ 0.97^25 ~ 0.47.
        assert fpga.chunk_skip_fraction(0.03) == pytest.approx(0.97**25)
        assert fpga.chunk_skip_fraction(0.0) == 1.0
        assert fpga.chunk_skip_fraction(1.0) == 0.0

    def test_higher_keep_rate_means_higher_latency(self, fpga):
        sparse = fpga.run(variant="mnnfast", keep_rate=0.01).total_seconds
        dense = fpga.run(variant="mnnfast", keep_rate=0.5).total_seconds
        assert sparse < dense

    def test_variant_validated(self, fpga):
        with pytest.raises(ValueError, match="variant"):
            fpga.run(variant="warp")

    def test_burst_efficiency_validated(self):
        with pytest.raises(ValueError):
            FpgaModel(baseline_burst_efficiency=0.0)


class TestFpgaEmbedding:
    def test_no_cache_latency_linear_in_words(self, fpga):
        short = fpga.embedding_latency(list(range(10)))
        long = fpga.embedding_latency(list(range(20)))
        assert long.total_seconds == pytest.approx(2 * short.total_seconds)

    def test_cache_reduces_latency_on_reuse(self, fpga):
        from repro.core.config import EmbeddingCacheConfig
        from repro.memsim import EmbeddingCache

        words = [1, 2, 3] * 100
        cache = EmbeddingCache(
            EmbeddingCacheConfig(size_bytes=32 * 1024, embedding_dim=256)
        )
        cached = fpga.embedding_latency(words, cache=cache)
        uncached = fpga.embedding_latency(words)
        assert cached.total_seconds < 0.5 * uncached.total_seconds
        assert cached.hit_rate > 0.9

    def test_sweep_monotone_in_cache_size(self, fpga, rng):
        # A heavier-tailed-than-uniform stream: bigger cache, bigger win.
        words = rng.zipf(1.3, size=4000) % 10_000
        reductions = fpga.embedding_cache_sweep(words)
        values = list(reductions.values())
        assert values == sorted(values)
        assert all(0.0 <= v < 1.0 for v in values)


class TestEnergy:
    def test_paper_ratio_band(self):
        """§5.5: FPGA-MnnFast up to 6.54x more energy-efficient."""
        ratio = EnergyModel().compare().efficiency_ratio
        assert 5.0 <= ratio <= 8.0

    def test_fpga_slower_but_cheaper(self):
        comparison = EnergyModel().compare()
        assert comparison.fpga_seconds > comparison.cpu_seconds
        assert comparison.fpga_joules < comparison.cpu_joules

    def test_power_validated(self):
        with pytest.raises(ValueError):
            EnergyModel(cpu_power_watts=0)
        with pytest.raises(ValueError):
            EnergyModel(cpu_bandwidth_efficiency=1.5)

    def test_ratio_scales_with_cpu_power(self):
        low = EnergyModel(cpu_power_watts=50).compare().efficiency_ratio
        high = EnergyModel(cpu_power_watts=200).compare().efficiency_ratio
        assert high == pytest.approx(4 * low)
