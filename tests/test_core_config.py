"""Unit tests for repro.core.config."""

import pytest

from repro.core.config import (
    CPU_CONFIG,
    FPGA_CONFIG,
    GPU_CONFIG,
    TABLE1,
    ChunkConfig,
    EarlyExitConfig,
    EmbeddingCacheConfig,
    EngineConfig,
    ExecutionConfig,
    MemNNConfig,
    ZeroSkipConfig,
)


class TestMemNNConfig:
    def test_defaults_are_positive(self):
        cfg = MemNNConfig()
        assert cfg.embedding_dim > 0
        assert cfg.num_sentences > 0

    @pytest.mark.parametrize(
        "field",
        ["embedding_dim", "num_sentences", "num_questions", "vocab_size",
         "max_words", "hops"],
    )
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=field):
            MemNNConfig(**{field: 0})

    def test_memory_bytes(self):
        cfg = MemNNConfig(embedding_dim=48, num_sentences=1000)
        assert cfg.memory_bytes == 1000 * 48 * 4

    def test_intermediate_bytes_matches_paper_example(self):
        # §3.1: 200M sentences -> 800 MB per intermediate vector per question.
        cfg = MemNNConfig(num_sentences=200_000_000, num_questions=1)
        assert cfg.intermediate_bytes == 800_000_000

    def test_scaled_changes_only_ns(self):
        cfg = CPU_CONFIG.scaled(42)
        assert cfg.num_sentences == 42
        assert cfg.embedding_dim == CPU_CONFIG.embedding_dim

    def test_embedding_matrix_bytes(self):
        cfg = MemNNConfig(embedding_dim=10, vocab_size=100)
        assert cfg.embedding_matrix_bytes == 10 * 100 * 4


class TestChunkConfig:
    def test_num_chunks_exact_division(self):
        assert ChunkConfig(chunk_size=100).num_chunks(1000) == 10

    def test_num_chunks_rounds_up(self):
        assert ChunkConfig(chunk_size=100).num_chunks(1001) == 11

    def test_rejects_zero_chunk(self):
        with pytest.raises(ValueError):
            ChunkConfig(chunk_size=0)


class TestZeroSkipConfig:
    def test_threshold_zero_disables(self):
        assert not ZeroSkipConfig(0.0).enabled

    def test_threshold_enables(self):
        assert ZeroSkipConfig(0.1).enabled

    def test_rejects_threshold_one(self):
        with pytest.raises(ValueError):
            ZeroSkipConfig(1.0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            ZeroSkipConfig(-0.1)

    def test_rejects_unknown_mode(self):
        # One skip rule: the raw-score mode is gone, and so is the field.
        with pytest.raises(TypeError, match="mode"):
            ZeroSkipConfig(0.1, mode="exp")
        with pytest.raises(TypeError, match="mode"):
            EngineConfig().with_zero_skip(0.1, mode="exp")


class TestEmbeddingCacheConfig:
    def test_entries_from_geometry(self):
        # §4.2: entry word size is the embedding dimension (32 * ed bits).
        cfg = EmbeddingCacheConfig(size_bytes=64 * 1024, embedding_dim=256)
        assert cfg.entry_bytes == 1024
        assert cfg.num_entries == 64

    def test_rejects_cache_smaller_than_one_entry(self):
        with pytest.raises(ValueError, match="too small"):
            EmbeddingCacheConfig(size_bytes=512, embedding_dim=256)


class TestEngineConfig:
    def test_baseline_preset(self):
        cfg = EngineConfig.baseline()
        assert cfg.algorithm == "baseline"
        assert not cfg.chunk.streaming

    def test_mnnfast_preset_enables_everything(self):
        cfg = EngineConfig.mnnfast()
        assert cfg.algorithm == "column"
        assert cfg.chunk.streaming
        assert cfg.zero_skip.enabled

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            EngineConfig(algorithm="quantum")

    def test_removed_knobs_are_gone(self):
        # One softmax and no alias presets: the builders spell them out.
        with pytest.raises(TypeError, match="stable_softmax"):
            EngineConfig(stable_softmax=True)
        assert not hasattr(EngineConfig, "batched")
        assert not hasattr(EngineConfig, "parallel")
        # One early-exit signal (the logit margin) and one BLAS-thread
        # policy (worker_blas_threads): neither is a setting.
        with pytest.raises(TypeError, match="metric"):
            EarlyExitConfig(metric="logit_margin")
        with pytest.raises(TypeError, match="attention_top_k"):
            EarlyExitConfig(attention_top_k=4)
        with pytest.raises(TypeError, match="blas_threads"):
            ExecutionConfig(blas_threads=1)
        with pytest.raises(TypeError, match="dtype"):
            EngineConfig.fused(4, dtype="float64")


class TestBuilders:
    """The preset classmethods are thin wrappers over the ``with_*``
    builders (ISSUE 6): each preset must equal the equivalent explicit
    builder chain — structural equality on frozen dataclasses is
    byte-identity here."""

    def test_baseline_equals_builder_chain(self):
        assert EngineConfig.baseline() == (
            EngineConfig()
            .with_algorithm("baseline")
            .with_chunking(streaming=False)
            .with_execution(dtype="float64")
        )

    def test_mnnfast_equals_builder_chain(self):
        assert EngineConfig.mnnfast() == (
            EngineConfig()
            .with_chunking(chunk_size=1000, streaming=True)
            .with_zero_skip(0.1)
        )
        assert EngineConfig.mnnfast(chunk_size=500, threshold=0.2) == (
            EngineConfig()
            .with_chunking(chunk_size=500, streaming=True)
            .with_zero_skip(0.2)
        )

    def test_sharded_equals_builder_chain(self):
        assert EngineConfig.sharded(4, 500) == (
            EngineConfig()
            .with_chunking(chunk_size=500, streaming=True)
            .with_zero_skip(0.0)
            .with_sharding(4)
        )

    def test_out_of_core_equals_builder_chain(self):
        assert EngineConfig.out_of_core(path="/tmp/m", num_shards=2) == (
            EngineConfig()
            .with_chunking(chunk_size=1000, streaming=True)
            .with_zero_skip(0.0)
            .with_store(
                backend="mmap",
                path="/tmp/m",
                resident_bytes=32 * 1024 * 1024,
                prefetch_depth=2,
            )
            .with_sharding(2)
        )

    def test_builders_return_new_frozen_configs(self):
        base = EngineConfig()
        derived = base.with_zero_skip(0.1)
        assert derived is not base
        assert base.zero_skip.threshold == 0.0  # original untouched
        with pytest.raises(Exception):
            derived.algorithm = "sharded"  # frozen

    def test_with_sharding_sets_algorithm(self):
        config = EngineConfig().with_sharding(8)
        assert config.algorithm == "sharded"
        assert config.num_shards == 8

    def test_with_execution_upgrades_serial_to_process(self):
        # Multiple workers without an explicit backend pick the process
        # backend — the only one that fans out.
        config = EngineConfig().with_execution(num_workers=4)
        assert config.execution.backend == "process"
        assert config.execution.num_workers == 4
        # num_workers=1 stays serial; an explicit serial backend with
        # multiple workers is contradictory and rejected outright.
        assert EngineConfig().with_execution(num_workers=1).execution.backend == "serial"
        with pytest.raises(ValueError, match="num_workers"):
            EngineConfig().with_execution(backend="serial", num_workers=4)

    def test_with_store_preserves_omitted_knobs(self):
        config = EngineConfig().with_store(backend="mmap", path="/tmp/x")
        again = config.with_store(resident_bytes=1024)
        assert again.store.backend == "mmap"
        assert again.store.path == "/tmp/x"
        assert again.store.resident_bytes == 1024

    def test_builders_reject_unknown_fields_and_keep_none_real(self):
        # The multi-field builders are dataclasses.replace over their
        # sub-config: a misspelt field is a TypeError, None is a value.
        with pytest.raises(TypeError, match="chunk_rows"):
            EngineConfig().with_chunking(chunk_rows=10)
        with pytest.raises(TypeError, match="depth"):
            EngineConfig().with_early_exit(0.2, depth=2)
        spilled = EngineConfig.out_of_core(path="/tmp/m")
        cleared = spilled.with_store(path=None, resident_bytes=None)
        assert cleared.store.path is None
        assert cleared.store.resident_bytes is None
        assert cleared.store.prefetch_depth == spilled.store.prefetch_depth
        assert EngineConfig().with_topk().topk.nprobe == 8

    def test_validate_returns_self_on_valid_configs(self):
        for config in (
            EngineConfig.baseline(),
            EngineConfig.mnnfast(),
            EngineConfig.sharded(4),
            EngineConfig.sharded(2).with_execution(num_workers=2),
            EngineConfig.out_of_core(),
            EngineConfig.mnnfast().with_topk(nprobe=8),
        ):
            assert config.validate() is config

    def test_validate_rejects_cross_field_violations(self):
        with pytest.raises(ValueError, match="baseline"):
            EngineConfig.baseline().with_topk(nprobe=8).validate()
        with pytest.raises(ValueError, match="num_shards"):
            EngineConfig(algorithm="column", num_shards=4).validate()


class TestTable1:
    def test_platform_embedding_dims(self):
        # Paper Table 1: ed = 48 / 64 / 25 for CPU / GPU / FPGA.
        assert CPU_CONFIG.embedding_dim == 48
        assert GPU_CONFIG.embedding_dim == 64
        assert FPGA_CONFIG.embedding_dim == 25

    def test_fpga_database_is_1000_sentences(self):
        assert TABLE1["FPGA"]["database_sentences"] == 1000
        assert FPGA_CONFIG.num_sentences == 1000

    def test_cpu_chunk_is_1000(self):
        assert TABLE1["CPU"]["chunk_size"] == 1000

    def test_paper_database_scale_preserved(self):
        assert TABLE1["CPU"]["database_sentences"] == 100_000_000
        assert TABLE1["GPU"]["database_sentences"] == 100_000_000
