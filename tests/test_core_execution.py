"""Execution-backend invariance: parallelism and precision are pure
execution choices, never numeric ones.

The contract under test (the process backend's bit-identity with
serial lives in ``tests/test_core_multicore.py``):

* float32 is an accuracy/throughput trade documented by
  :data:`FLOAT32_LOGIT_TOLERANCE`, holding across every algorithm;
* the kernel short-circuits (skip-free keep mask, no-op rescale in
  :meth:`PartialOutput.merge`) are exact, not approximations.
"""

import numpy as np
import pytest

from repro.core import (
    ChunkConfig,
    ColumnMemNN,
    EngineConfig,
    EngineWeights,
    ExecutionConfig,
    FLOAT32_LOGIT_TOLERANCE,
    MemNNConfig,
    MnnFastEngine,
    PartialOutput,
    ShardedMemNN,
)
from repro.core.column import exp_floor

from .conftest import float64

#: Exact-path agreement bound (same as the differential harness).
LOGIT_TOLERANCE = 1e-10


def _problem(seed=0):
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


def _answer(engine_config, seed=0):
    config, weights, story, questions = _problem(seed)
    engine = MnnFastEngine(config, weights, engine_config=engine_config)
    engine.store_story(story)
    return engine.answer(questions)


def _random_memories(seed=0, ns=300, ed=12, nq=5):
    rng = np.random.default_rng(seed)
    m_in = rng.normal(size=(ns, ed))
    m_out = rng.normal(size=(ns, ed))
    u = rng.normal(size=(nq, ed))
    return m_in, m_out, u


# --- float32 compute path ---------------------------------------------------


class TestFloat32Path:
    @pytest.mark.parametrize("algorithm", ("baseline", "column", "sharded"))
    def test_float32_matches_float64(self, algorithm):
        kwargs = dict(algorithm=algorithm, chunk=ChunkConfig(16))
        if algorithm == "sharded":
            kwargs["num_shards"] = 3
        reference = _answer(float64(EngineConfig(**kwargs)))
        f32 = _answer(
            EngineConfig(**kwargs, execution=ExecutionConfig(dtype="float32"))
        )
        np.testing.assert_allclose(
            f32.logits,
            reference.logits,
            rtol=FLOAT32_LOGIT_TOLERANCE,
            atol=FLOAT32_LOGIT_TOLERANCE,
        )
        np.testing.assert_array_equal(f32.answer_ids, reference.answer_ids)

    def test_float32_halves_streamed_bytes(self):
        m_in, m_out, u = _random_memories()
        f64 = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(32))
        f32 = ColumnMemNN(
            m_in, m_out, chunk=ChunkConfig(32), dtype=np.float32
        )
        reads64 = f64.output(u).stats.bytes_read
        reads32 = f32.output(u).stats.bytes_read
        assert reads32 < reads64

    def test_exp_floor_output_is_normal(self):
        """The pre-exp clamp lands safely above the subnormal range
        (subnormal operands stall x86 pipelines ~100x per element)."""
        for dtype in (np.float32, np.float64):
            floored = np.exp(exp_floor(np.dtype(dtype)))
            assert floored >= np.finfo(dtype).tiny

    def test_rejects_unsupported_dtype(self):
        m_in, m_out, _ = _random_memories()
        with pytest.raises(ValueError, match="dtype"):
            ColumnMemNN(m_in, m_out, dtype=np.int32)


# --- ExecutionConfig validation ---------------------------------------------


class TestExecutionConfigValidation:
    def test_defaults_are_serial_float32(self):
        config = ExecutionConfig()
        assert config.backend == "serial"
        assert config.num_workers == 1
        assert config.dtype == "float32"
        assert not config.parallel
        # The referee stays the float64 reference.
        assert EngineConfig.baseline().execution.dtype == "float64"

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionConfig(backend="mpi")

    def test_removed_thread_backend_names_the_remaining_two(self):
        with pytest.raises(ValueError, match=r"\('serial', 'process'\)"):
            ExecutionConfig(backend="thread")

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            ExecutionConfig(dtype="float16")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            ExecutionConfig(num_workers=0)

    def test_rejects_workers_on_serial_backend(self):
        with pytest.raises(ValueError, match="num_workers"):
            ExecutionConfig(backend="serial", num_workers=2)

    def test_parallel_requires_sharded_algorithm(self):
        # Cross-field coupling is checked on the *composed* config, not
        # at construction — a builder chain may set the shards later.
        config = EngineConfig(
            algorithm="column",
            execution=ExecutionConfig(backend="process", num_workers=2),
        )
        with pytest.raises(ValueError, match="sharded"):
            config.validate()
        assert config.with_sharding(2).validate().num_shards == 2


# --- Measured wall-clock ----------------------------------------------------


class TestElapsedSeconds:
    def test_answer_result_reports_wall_clock(self):
        result = _answer(EngineConfig())
        assert result.elapsed_seconds > 0.0

    def test_inference_result_reports_wall_clock(self):
        m_in, m_out, u = _random_memories()
        for solver in (
            ColumnMemNN(m_in, m_out, chunk=ChunkConfig(32)),
            ShardedMemNN(m_in, m_out, num_shards=2),
        ):
            assert solver.output(u).elapsed_seconds > 0.0


# --- Kernel short-circuit exactness -----------------------------------------


class TestShortCircuits:
    def test_merge_equal_log_max_is_plain_sum(self):
        """When both partials share a running max the rescale factors
        are exactly 1.0, so the short-circuit (plain addition) is
        bit-identical to the general rescaled path."""
        rng = np.random.default_rng(7)
        log_max = rng.normal(size=4)
        a = PartialOutput(
            weighted=rng.normal(size=(4, 8)),
            denom=rng.uniform(1.0, 2.0, size=4),
            log_max=log_max.copy(),
        )
        b = PartialOutput(
            weighted=rng.normal(size=(4, 8)),
            denom=rng.uniform(1.0, 2.0, size=4),
            log_max=log_max.copy(),
        )
        merged = a.merge(b)
        np.testing.assert_array_equal(merged.weighted, a.weighted + b.weighted)
        np.testing.assert_array_equal(merged.denom, a.denom + b.denom)
        np.testing.assert_array_equal(merged.log_max, log_max)

    def test_merge_with_empty_partial_is_exact(self):
        """An empty partial carries -inf log_max and zero mass, so
        merging it in is a no-op on the finalized output."""
        m_in, m_out, u = _random_memories()
        full, _ = ColumnMemNN(m_in, m_out).partial_output(u)
        empty = PartialOutput.empty(u.shape[0], m_in.shape[1])
        np.testing.assert_array_equal(
            empty.merge(full).finalize(), full.finalize()
        )
        np.testing.assert_array_equal(
            full.merge(empty).finalize(), full.finalize()
        )

    def test_skip_free_path_counts_every_row(self):
        """With zero-skip off, the keep mask is elided entirely but the
        stats still account every row as computed."""
        m_in, m_out, u = _random_memories()
        nq, ns = u.shape[0], m_in.shape[0]
        result = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(32)).output(u)
        assert result.stats.rows_computed == nq * ns
        assert result.stats.rows_skipped == 0
