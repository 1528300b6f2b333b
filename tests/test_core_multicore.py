"""The multicore execution tier: process-parallel shards and the fused
batchxshard tile kernel.

Two contracts, held at different strengths:

* **Process backend == serial, bitwise.**  Every worker runs the exact
  per-shard ``ColumnMemNN`` kernel on the exact shard bytes (the
  spilled store holds the dtype-converted memories; a GEMM over a
  memmap view equals one over a contiguous copy bit for bit), and
  results are collected in shard order — so at *every* worker count
  the merged output is ``array_equal`` to serial, not merely close.
* **Fused kernel == per-shard loop, 1e-10.**  The tile sweep regroups
  the chunk geometry (tile boundaries are not shard-chunk
  boundaries), which reorders the running-max rescales — the same
  1e-10 class of difference as any chunk-size change.  Zero-skip masks
  read the running denominator and are geometry-dependent by
  construction, so under skipping each arrangement is held to the
  exact rule instead: it keeps every row that rule keeps.

Plus the failure mode: a worker process dying mid-computation must
surface as a clean ``RuntimeError`` — never a hang — and the next
request must transparently rebuild the pool.
"""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChunkConfig,
    EngineConfig,
    EngineWeights,
    ExecutionConfig,
    MemNNConfig,
    MnnFastEngine,
    ShardedMemNN,
    ZeroSkipConfig,
)
from repro.core.thread_limits import apply_blas_limit, blas_thread_info
from repro.core.zero_skip import probability_mode_mask
from repro.store import MmapStore

from .conftest import float64, kept_rows

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
    try:
        return engine.answer(questions)
    finally:
        engine.close()


def _random_memories(seed=0, ns=300, ed=12, nq=5):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(ns, ed)),
        rng.normal(size=(ns, ed)),
        rng.normal(size=(nq, ed)),
    )


# --- process backend: bit-identity ------------------------------------------


@pytest.mark.process_pool
class TestProcessBackendBitIdentity:
    @pytest.mark.parametrize("num_workers", (1, 2, 4))
    @pytest.mark.parametrize("policy", ("contiguous", "strided"))
    def test_process_solver_matches_serial_bitwise(self, num_workers, policy):
        m_in, m_out, u = _random_memories()
        serial = ShardedMemNN(
            m_in, m_out, num_shards=4, policy=policy, chunk=ChunkConfig(32)
        )
        process = ShardedMemNN(
            m_in,
            m_out,
            num_shards=4,
            policy=policy,
            chunk=ChunkConfig(32),
            execution=ExecutionConfig(backend="process", num_workers=num_workers),
        )
        try:
            np.testing.assert_array_equal(
                process.output(u).output, serial.output(u).output
            )
        finally:
            process.close()

    @pytest.mark.parametrize("num_workers", (1, 2, 4))
    def test_process_engine_matches_serial_bitwise(self, num_workers):
        serial = _answer(EngineConfig.sharded(4, chunk_size=16))
        process = _answer(
            EngineConfig.sharded(4, chunk_size=16).with_execution(
                backend="process", num_workers=num_workers
            )
        )
        np.testing.assert_array_equal(process.logits, serial.logits)
        np.testing.assert_array_equal(process.answer_ids, serial.answer_ids)

    def test_process_per_shard_partials_match_serial_bitwise(self):
        """Shard order, not completion order: every per-shard triple is
        identical, so any downstream fold sees identical inputs."""
        m_in, m_out, u = _random_memories(seed=3)
        serial = ShardedMemNN(m_in, m_out, num_shards=4, chunk=ChunkConfig(32))
        process = ShardedMemNN(
            m_in,
            m_out,
            num_shards=4,
            chunk=ChunkConfig(32),
            execution=ExecutionConfig(backend="process", num_workers=4),
        )
        try:
            for (pa, sa), (pb, sb) in zip(
                serial.shard_partials(u), process.shard_partials(u)
            ):
                np.testing.assert_array_equal(pa.weighted, pb.weighted)
                np.testing.assert_array_equal(pa.denom, pb.denom)
                np.testing.assert_array_equal(pa.log_max, pb.log_max)
                assert sa == sb
        finally:
            process.close()

    @pytest.mark.parametrize("zero_skip", (ZeroSkipConfig(1e-4), ZeroSkipConfig(0.1)))
    def test_process_zero_skip_matches_serial_bitwise(self, zero_skip):
        """The workers run the identical per-shard kernel, so even the
        geometry-sensitive skip rule makes the identical keep
        decisions."""
        m_in, m_out, u = _random_memories(seed=5)
        serial = ShardedMemNN(m_in, m_out, num_shards=3, chunk=ChunkConfig(32))
        process = ShardedMemNN(
            m_in,
            m_out,
            num_shards=3,
            chunk=ChunkConfig(32),
            execution=ExecutionConfig(backend="process", num_workers=2),
        )
        try:
            np.testing.assert_array_equal(
                process.output(u, zero_skip=zero_skip).output,
                serial.output(u, zero_skip=zero_skip).output,
            )
        finally:
            process.close()

    def test_process_float32_matches_serial_float32_bitwise(self):
        m_in, m_out, u = _random_memories(seed=7)
        serial = ShardedMemNN(
            m_in, m_out, num_shards=3, chunk=ChunkConfig(32), dtype=np.float32
        )
        process = ShardedMemNN(
            m_in,
            m_out,
            num_shards=3,
            chunk=ChunkConfig(32),
            dtype=np.float32,
            execution=ExecutionConfig(
                backend="process", num_workers=2, dtype="float32"
            ),
        )
        try:
            np.testing.assert_array_equal(
                process.output(u).output, serial.output(u).output
            )
        finally:
            process.close()

    def test_process_over_spilled_store_matches_out_of_core_serial(self, tmp_path):
        """Engine-level: mmap store + process backend reuses the spill
        (no second copy) and still equals the serial out-of-core path
        bitwise."""
        base = EngineConfig.out_of_core(
            path=str(tmp_path / "store"), num_shards=3, chunk_size=16
        )
        serial = _answer(base)
        process = _answer(
            base.with_execution(backend="process", num_workers=2)
        )
        np.testing.assert_array_equal(process.logits, serial.logits)

    def test_mutation_invalidates_process_solver(self):
        """store_story after a process answer closes the old pool and
        the next answer reflects the new memories."""
        config, weights, story, questions = _problem()
        engine_config = EngineConfig.sharded(2, chunk_size=16).with_execution(
            backend="process", num_workers=2
        )
        engine = MnnFastEngine(config, weights, engine_config=engine_config)
        engine.store_story(story)
        first = engine.answer(questions)
        engine.store_story(story[:10])
        second = engine.answer(questions)
        assert not np.array_equal(first.logits, second.logits)
        reference = MnnFastEngine(
            config, weights, engine_config=EngineConfig.sharded(2, chunk_size=16)
        )
        reference.store_story(story)
        reference.store_story(story[:10])
        np.testing.assert_array_equal(
            second.logits, reference.answer(questions).logits
        )
        engine.close()


# --- process backend: failure surface ----------------------------------------


@pytest.mark.process_pool
class TestProcessWorkerCrash:
    def test_dead_worker_raises_cleanly_and_pool_recovers(self):
        m_in, m_out, u = _random_memories()
        solver = ShardedMemNN(
            m_in,
            m_out,
            num_shards=4,
            chunk=ChunkConfig(32),
            execution=ExecutionConfig(backend="process", num_workers=2),
        )
        try:
            expected = solver.output(u).output  # warm the pool
            assert solver._runner is not None
            pool = solver._runner._pool
            assert pool is not None
            for process in pool._processes.values():
                os.kill(process.pid, signal.SIGKILL)
            # Give the OS a moment to reap so the pool notices.
            time.sleep(0.1)
            with pytest.raises(RuntimeError, match="worker process died"):
                solver.output(u)
            # The spill survives the pool teardown: the next request
            # rebuilds the pool and answers identically.
            np.testing.assert_array_equal(solver.output(u).output, expected)
        finally:
            solver.close()

    def test_process_backend_rejects_unmappable_store(self):
        from repro.store import ResidentStore

        m_in, m_out, _ = _random_memories()
        with pytest.raises(ValueError, match="MmapStore"):
            ShardedMemNN(
                store=ResidentStore(m_in, m_out),
                num_shards=2,
                execution=ExecutionConfig(backend="process", num_workers=2),
            )


# --- fused tile kernel --------------------------------------------------------


class TestFusedKernel:
    @pytest.mark.parametrize("policy", ("contiguous", "strided"))
    @pytest.mark.parametrize("num_shards", (1, 3, 4))
    def test_fused_matches_per_shard(self, policy, num_shards):
        m_in, m_out, u = _random_memories()
        serial = ShardedMemNN(
            m_in, m_out, num_shards=num_shards, policy=policy, chunk=ChunkConfig(32)
        )
        fused = ShardedMemNN(
            m_in,
            m_out,
            num_shards=num_shards,
            policy=policy,
            chunk=ChunkConfig(32),
            execution=ExecutionConfig(fused=True),
        )
        ref = serial.output(u)
        got = fused.output(u)
        np.testing.assert_allclose(
            got.output, ref.output, rtol=LOGIT_TOLERANCE, atol=LOGIT_TOLERANCE
        )
        # The op ledger is arrangement-independent.
        assert got.stats.flops == ref.stats.flops
        assert got.stats.rows_computed == ref.stats.rows_computed

    @pytest.mark.parametrize("policy", ("contiguous", "strided"))
    @pytest.mark.parametrize("num_shards", (1, 3, 4))
    def test_fused_zero_skip_keeps_exact_rows(self, policy, num_shards):
        # The skip rule reads each tile's running denominator, so the
        # fused and per-shard arrangements may keep different rows; both
        # keep every row the exact rule keeps.
        m_in, _, u = _random_memories()
        exact = probability_mode_mask(u @ m_in.T, 1e-2)
        assert exact.any()
        for fused in (False, True):
            kept = kept_rows(
                lambda a, b: ShardedMemNN(
                    a, b, num_shards=num_shards, policy=policy,
                    chunk=ChunkConfig(32), execution=ExecutionConfig(fused=fused),
                ),
                m_in, u, 1e-2,
            )  # fmt: skip
            assert not (exact & ~kept).any()

    @pytest.mark.parametrize(
        "dtype,tolerance", ((np.float64, LOGIT_TOLERANCE), (np.float32, 1e-5))
    )
    def test_first_segment_narrower_than_later_ones(self, dtype, tolerance):
        """Range shards whose boundary falls just before a tile edge:
        shard 1 owns rows [31, 62) and the tiles are 16 rows, so its
        first segment is one row wide and its next sixteen — the
        state's workspaces must not assume the first width, skipping
        or not."""
        m_in, m_out, u = _random_memories(ns=62)
        kwargs = dict(num_shards=2, chunk=ChunkConfig(8), dtype=dtype)
        fused = dict(kwargs, execution=ExecutionConfig(fused=True))
        ref = ShardedMemNN(m_in, m_out, **kwargs).output(u)
        got = ShardedMemNN(m_in, m_out, **fused).output(u)
        # The one deferred divide is float64 whatever the memory is.
        assert got.output.dtype == np.float64
        np.testing.assert_allclose(
            got.output, ref.output, rtol=tolerance, atol=tolerance
        )
        kept = kept_rows(lambda a, b: ShardedMemNN(a, b, **fused), m_in, u, 0.5)
        exact = probability_mode_mask(u @ m_in.T, 0.5)
        assert 0 < kept.sum() < kept.size and not (exact & ~kept).any()

    def test_fused_over_mmap_store_matches_resident_fused(self, tmp_path):
        m_in, m_out, u = _random_memories()
        store = MmapStore.save(tmp_path / "store", m_in, m_out)
        resident = ShardedMemNN(
            m_in,
            m_out,
            num_shards=3,
            chunk=ChunkConfig(32),
            execution=ExecutionConfig(fused=True),
        )
        streamed = ShardedMemNN(
            store=store,
            num_shards=3,
            chunk=ChunkConfig(32),
            execution=ExecutionConfig(fused=True),
        )
        np.testing.assert_array_equal(
            streamed.output(u).output, resident.output(u).output
        )
        assert streamed.store_stats is not None
        assert streamed.store_stats.disk_bytes > 0

    @pytest.mark.parametrize("dtype", ("float64", "float32"))
    def test_fused_engine_matches_serial_engine(self, dtype):
        serial = _answer(
            EngineConfig.sharded(4, chunk_size=16).with_execution(dtype=dtype)
        )
        fused = _answer(
            EngineConfig.fused(4, chunk_size=16).with_execution(dtype=dtype)
        )
        tolerance = 1e-4 if dtype == "float32" else LOGIT_TOLERANCE
        np.testing.assert_allclose(
            fused.logits, serial.logits, rtol=tolerance, atol=tolerance
        )
        np.testing.assert_array_equal(fused.answer_ids, serial.answer_ids)

    def test_fused_with_topk_tier_matches_serial_topk(self):
        base = float64(EngineConfig.sharded(3, chunk_size=16)).with_topk(
            nprobe=2, min_rows=16
        )
        serial = _answer(base)
        fused = _answer(base.with_execution(fused=True))
        np.testing.assert_allclose(
            fused.logits, serial.logits, rtol=LOGIT_TOLERANCE, atol=LOGIT_TOLERANCE
        )

    def test_fused_empty_shards_contribute_identity(self):
        """K > ns leaves trailing shards empty; their partials are the
        merge identity and the output is unchanged."""
        m_in, m_out, u = _random_memories(ns=5)
        serial = ShardedMemNN(m_in, m_out, num_shards=8, chunk=ChunkConfig(4))
        fused = ShardedMemNN(
            m_in,
            m_out,
            num_shards=8,
            chunk=ChunkConfig(4),
            execution=ExecutionConfig(fused=True),
        )
        np.testing.assert_allclose(
            fused.output(u).output,
            serial.output(u).output,
            rtol=LOGIT_TOLERANCE,
            atol=LOGIT_TOLERANCE,
        )


class TestFusedTileRows:
    """The global tile is ``chunk_size x num_shards`` rows; the chunk
    size is the only thing that moves it."""

    @pytest.mark.parametrize("chunk_size", (1, 7, 64, 10_000))
    def test_tile_size_only_moves_rescale_boundaries(self, chunk_size):
        """Any tile size agrees with any other to the documented 1e-10
        (same class of difference as a chunk-size change), including a
        one-row-per-shard tile and one larger than the whole memory."""
        m_in, m_out, u = _random_memories()
        reference = ShardedMemNN(
            m_in,
            m_out,
            num_shards=3,
            chunk=ChunkConfig(32),
            execution=ExecutionConfig(fused=True),
        ).output(u)
        got = ShardedMemNN(
            m_in,
            m_out,
            num_shards=3,
            chunk=ChunkConfig(chunk_size),
            execution=ExecutionConfig(fused=True),
        ).output(u)
        np.testing.assert_allclose(
            got.output,
            reference.output,
            rtol=LOGIT_TOLERANCE,
            atol=LOGIT_TOLERANCE,
        )
        assert got.stats.flops == reference.stats.flops

    def test_tile_rows_engine_answer_matches_default(self):
        default = _answer(float64(EngineConfig.fused(4, chunk_size=16)))
        tiled = _answer(float64(EngineConfig.fused(4, chunk_size=12)))
        np.testing.assert_allclose(
            tiled.logits,
            default.logits,
            rtol=LOGIT_TOLERANCE,
            atol=LOGIT_TOLERANCE,
        )
        np.testing.assert_array_equal(tiled.answer_ids, default.answer_ids)


# --- fold-order invariance (property) ----------------------------------------


class TestFoldOrderInvariance:
    @given(
        seed=st.integers(0, 2**16),
        num_shards=st.integers(1, 6),
        policy=st.sampled_from(("contiguous", "strided")),
        backend=st.sampled_from(("serial", "fused")),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fold_order_invariant_under_backend(
        self, seed, num_shards, policy, backend, data
    ):
        """Folding the per-shard partials in any order agrees with the
        shard-order fold to 1e-10, whichever backend produced them —
        the associativity/commutativity the scale-out story rests on.
        (The process backend produces bitwise-identical partials to
        serial — asserted by the differential tests — so it inherits
        this property without paying a pool per hypothesis example.)
        """
        rng = np.random.default_rng(seed)
        ns = int(rng.integers(1, 40))
        ed = int(rng.integers(1, 8))
        nq = int(rng.integers(1, 4))
        m_in = rng.uniform(-5, 5, size=(ns, ed))
        m_out = rng.uniform(-5, 5, size=(ns, ed))
        u = rng.uniform(-5, 5, size=(nq, ed))
        execution = ExecutionConfig(fused=backend == "fused")
        solver = ShardedMemNN(
            m_in,
            m_out,
            num_shards=num_shards,
            policy=policy,
            chunk=ChunkConfig(8),
            execution=execution,
        )
        pairs = solver.shard_partials(u)
        assert len(pairs) == num_shards
        order = data.draw(st.permutations(range(num_shards)))
        merged = pairs[0][0]
        for partial, _ in pairs[1:]:
            merged = merged.merge(partial)
        shuffled = pairs[order[0]][0]
        for index in order[1:]:
            shuffled = shuffled.merge(pairs[index][0])
        np.testing.assert_allclose(
            shuffled.finalize(),
            merged.finalize(),
            rtol=LOGIT_TOLERANCE,
            atol=LOGIT_TOLERANCE,
        )


# --- configuration surface ----------------------------------------------------


class TestMulticoreConfig:
    def test_fused_requires_serial_backend(self):
        with pytest.raises(ValueError, match="fused"):
            ExecutionConfig(backend="process", num_workers=2, fused=True)

    def test_fused_requires_sharded_algorithm(self):
        config = EngineConfig(
            algorithm="column", execution=ExecutionConfig(fused=True)
        )
        with pytest.raises(ValueError, match="sharded"):
            config.validate()

    def test_worker_blas_threads_default_pins_process_workers(self):
        """Parallel process workers pin BLAS to 1 thread — P workers
        never fan out P x T BLAS threads; everything else keeps the
        library default."""
        parallel = ExecutionConfig(backend="process", num_workers=4)
        assert parallel.worker_blas_threads() == 1
        solo = ExecutionConfig(backend="process", num_workers=1)
        assert solo.worker_blas_threads() is None
        assert ExecutionConfig().worker_blas_threads() is None

    def test_shard_concurrency_reflects_measured_backends(self):
        assert ExecutionConfig().shard_concurrency() == 1
        assert ExecutionConfig(fused=True).shard_concurrency() == 1
        assert (
            ExecutionConfig(backend="process", num_workers=4).shard_concurrency()
            == 4
        )

    def test_multicore_preset_composition(self):
        config = EngineConfig.sharded(4).with_execution(num_workers=4)
        assert config.algorithm == "sharded"
        assert config.execution.backend == "process"
        assert config.execution.num_workers == 4
        assert config.execution.dtype == "float32"

    def test_fused_preset_composition(self):
        config = EngineConfig.fused(4)
        assert config.algorithm == "sharded"
        assert config.num_shards == 4
        assert config.execution.fused
        assert config.execution.backend == "serial"


# --- BLAS thread-limit shim ---------------------------------------------------


class TestThreadLimits:
    def test_apply_blas_limit_reports_control_layer(self):
        layer = apply_blas_limit(1)
        assert layer in ("threadpoolctl", "openblas-ctypes", "env", "noop")
        assert os.environ.get("OMP_NUM_THREADS") == "1"

    def test_blas_thread_info_shape(self):
        info = blas_thread_info()
        assert set(info) == {"implementation", "max_threads", "control"}
