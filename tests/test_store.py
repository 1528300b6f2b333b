"""Tests for the tiered memory store (``repro.store``).

Covers the store backends (resident / mmap round-trips, boundary
geometry, error cleanup), the chunk pipeline's accounting, the
differential grid that pins the out-of-core paths to the resident
reference at 1e-10, and the engine/config integration.
"""

import gc
import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.core import (
    ColumnMemNN,
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    ShardedMemNN,
    StoreConfig,
)
from repro.core.config import ChunkConfig
from repro.store import (
    ChunkPrefetcher,
    MmapStore,
    ResidentStore,
    RowSubsetStore,
    iter_chunk_spans,
)

from .conftest import float64

NS, ED, NQ = 257, 24, 5

_HAS_PROC_FD = os.path.isdir("/proc/self/fd")


def _open_fds() -> int:
    """Open descriptors of this process (0 where /proc is missing)."""
    return len(os.listdir("/proc/self/fd")) if _HAS_PROC_FD else 0


@pytest.fixture
def memories():
    rng = np.random.default_rng(42)
    return rng.normal(size=(NS, ED)), rng.normal(size=(NS, ED))


@pytest.fixture
def questions(memories):
    rng = np.random.default_rng(7)
    return memories[0][rng.integers(0, NS, size=NQ)] * 2.0


@pytest.fixture
def mmap_store(memories, tmp_path):
    return MmapStore.save(tmp_path / "store", *memories)


class TestResidentStore:
    def test_metadata_and_chunks(self, memories):
        store = ResidentStore(*memories)
        assert store.num_rows == NS
        assert store.embedding_dim == ED
        assert store.dtype == np.float64
        assert store.resident
        chunk_in, chunk_out = store.read_chunk(10, 20)
        np.testing.assert_array_equal(chunk_in, memories[0][10:20])
        np.testing.assert_array_equal(chunk_out, memories[1][10:20])
        # Resident chunk reads are zero-copy views.
        assert np.shares_memory(chunk_in, store.m_in)

    def test_dtype_conversion(self, memories):
        store = ResidentStore(*memories, dtype=np.float32)
        assert store.dtype == np.float32
        assert store.m_in.dtype == np.float32

    def test_select_covers_rows(self, memories):
        store = ResidentStore(*memories)
        sub = store.select(np.arange(3, 60, 7))
        np.testing.assert_array_equal(sub.m_in, memories[0][3:60:7])

    def test_row_subset_is_a_view(self, memories):
        store = ResidentStore(*memories)
        sub = RowSubsetStore(store, [5, 2, 9])
        assert sub.num_rows == 3
        chunk_in, _ = sub.read_chunk(0, 2)
        np.testing.assert_array_equal(chunk_in, memories[0][[5, 2]])

    def test_rejects_bad_shapes(self, memories):
        with pytest.raises(ValueError, match="2-D"):
            ResidentStore(memories[0][0], memories[1][0])
        with pytest.raises(ValueError, match="shapes differ"):
            ResidentStore(memories[0], memories[1][:-1])


class TestMmapStoreRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_save_open_round_trip(self, memories, tmp_path, dtype):
        saved = MmapStore.save(tmp_path / "s", *memories, dtype=dtype)
        reopened = MmapStore.open(tmp_path / "s")
        assert reopened.dtype == np.dtype(dtype)
        assert reopened.num_rows == NS
        assert reopened.embedding_dim == ED
        assert not reopened.resident
        np.testing.assert_array_equal(
            np.asarray(reopened.m_in), memories[0].astype(dtype)
        )
        np.testing.assert_array_equal(
            np.asarray(reopened.m_out), memories[1].astype(dtype)
        )
        np.testing.assert_array_equal(
            np.asarray(saved.m_in), np.asarray(reopened.m_in)
        )

    def test_chunk_boundaries_with_ragged_tail(self, mmap_store, memories):
        # NS = 257 is deliberately not divisible by the chunk size.
        spans = list(iter_chunk_spans(mmap_store.num_rows, 64))
        assert spans[-1] == (256, 257)
        pieces = [mmap_store.read_chunk(*span)[0] for span in spans]
        assert [len(p) for p in pieces] == [64, 64, 64, 64, 1]
        np.testing.assert_array_equal(np.vstack(pieces), memories[0])

    def test_chunk_read_clamps_past_the_end(self, mmap_store, memories):
        chunk_in, chunk_out = mmap_store.read_chunk(250, 400)
        assert chunk_in.shape == (7, ED)
        np.testing.assert_array_equal(chunk_in, memories[0][250:])
        np.testing.assert_array_equal(chunk_out, memories[1][250:])

    def test_store_smaller_than_one_chunk(self, memories, tmp_path):
        store = MmapStore.save(
            tmp_path / "tiny", memories[0][:3], memories[1][:3]
        )
        assert list(iter_chunk_spans(store.num_rows, 64)) == [(0, 3)]
        chunk_in, _ = store.read_chunk(0, 64)
        np.testing.assert_array_equal(chunk_in, memories[0][:3])

    def test_read_rows_gathers(self, mmap_store, memories):
        rows_in, rows_out = mmap_store.read_rows(np.array([0, 256, 17]))
        np.testing.assert_array_equal(rows_in, memories[0][[0, 256, 17]])
        np.testing.assert_array_equal(rows_out, memories[1][[0, 256, 17]])

    def test_save_refuses_existing_dir(self, memories, tmp_path):
        MmapStore.save(tmp_path / "s", *memories)
        with pytest.raises(FileExistsError):
            MmapStore.save(tmp_path / "s", *memories)
        # overwrite=True replaces it.
        MmapStore.save(tmp_path / "s", memories[0][:5], memories[1][:5],
                       overwrite=True)
        assert MmapStore.open(tmp_path / "s").num_rows == 5

    def test_save_cleans_up_on_error(self, memories, tmp_path, monkeypatch):
        calls = []
        original = MmapStore._write_matrix

        def failing(target, matrix, dtype):
            calls.append(target)
            if len(calls) == 2:  # fail while writing m_out.bin
                raise OSError("disk full")
            original(target, matrix, dtype)

        monkeypatch.setattr(MmapStore, "_write_matrix", staticmethod(failing))
        with pytest.raises(OSError, match="disk full"):
            MmapStore.save(tmp_path / "partial", *memories)
        # No half-written store directory left behind.
        assert not (tmp_path / "partial").exists()

    def test_open_rejects_missing_and_corrupt(self, memories, tmp_path):
        with pytest.raises(FileNotFoundError):
            MmapStore.open(tmp_path / "nowhere")
        MmapStore.save(tmp_path / "s", *memories)
        meta_path = tmp_path / "s" / "store.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format"):
            MmapStore.open(tmp_path / "s")
        meta["format"] = 1
        meta["rows"] = NS + 1  # size mismatch vs the .bin files
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="bytes"):
            MmapStore.open(tmp_path / "s")

    def test_empty_store_is_rejected(self, memories, tmp_path):
        with pytest.raises(ValueError, match="0 rows"):
            MmapStore.save(
                tmp_path / "empty", memories[0][:0], memories[1][:0]
            )
        assert not (tmp_path / "empty").exists()


class TestMmapStoreDescriptors:
    def test_truncated_file_is_an_error_not_a_short_chunk(
        self, mmap_store, memories
    ):
        """ROADMAP correctness (d): a file that shrinks after open()
        used to come back as fewer rows, and the kernel computed on
        them without complaint."""
        row_bytes = ED * 8
        with open(mmap_store.path / "m_out.bin", "r+b") as handle:
            handle.truncate(NS * row_bytes - 100)
        chunk_in, _ = mmap_store.read_chunk(0, 64)  # before the hole
        np.testing.assert_array_equal(chunk_in, memories[0][:64])
        offset = 256 * row_bytes
        with pytest.raises(
            OSError, match=rf"m_out\.bin.*offset {offset}.*100 of {row_bytes}"
        ):
            mmap_store.read_chunk(256, NS)

    def test_closed_store_refuses_chunk_reads(self, mmap_store, memories):
        mmap_store.read_chunk(0, 8)
        mmap_store.close()
        mmap_store.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            mmap_store.read_chunk(0, 8)
        # The mappings are independent of the read descriptors.
        np.testing.assert_array_equal(
            mmap_store.read_rows([3])[0], memories[0][[3]]
        )

    @pytest.mark.skipif(not _HAS_PROC_FD, reason="needs /proc/self/fd")
    def test_close_releases_both_descriptors(self, memories, tmp_path):
        before = _open_fds()
        store = MmapStore.save(tmp_path / "fds", *memories)
        opened = _open_fds()
        store.close()
        assert _open_fds() == opened - 2
        del store  # the two mappings hold a descriptor each
        assert _open_fds() == before


class TestChunkPrefetcher:
    def test_demand_path_accounting(self, mmap_store):
        pipeline = ChunkPrefetcher(mmap_store, chunk_size=64)
        chunks = list(pipeline.chunks())
        assert len(chunks) == 5
        stats = pipeline.stats
        assert stats.chunks_served == 5
        assert stats.demand_fetches == 5
        assert stats.prefetch_coverage == 0.0
        assert stats.disk_bytes == sum(
            c[0].nbytes + c[1].nbytes for c in chunks
        )
        assert stats.ram_bytes == 0

    def test_prefetch_covers_every_chunk(self, mmap_store):
        pipeline = ChunkPrefetcher(mmap_store, chunk_size=64, prefetch_depth=2)
        list(pipeline.chunks())
        stats = pipeline.stats
        assert stats.chunks_served == 5
        assert stats.demand_fetches == 0
        assert stats.prefetch_coverage == 1.0
        assert stats.prefetch_hits + stats.prefetch_late == 5

    def test_lru_serves_second_pass_from_ram(self, mmap_store):
        pipeline = ChunkPrefetcher(
            mmap_store, chunk_size=64, resident_bytes=1 << 30
        )
        list(pipeline.chunks())
        first_disk = pipeline.stats.disk_bytes
        assert pipeline.cached_bytes > 0
        list(pipeline.chunks())
        assert pipeline.stats.disk_bytes == first_disk  # no new disk bytes
        assert pipeline.stats.ram_bytes == first_disk

    def test_lru_respects_budget(self, mmap_store):
        chunk_bytes = 2 * 64 * ED * 8
        pipeline = ChunkPrefetcher(
            mmap_store, chunk_size=64, resident_bytes=2 * chunk_bytes
        )
        list(pipeline.chunks())
        assert pipeline.cached_bytes <= 2 * chunk_bytes

    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    def test_budget_below_footprint_keeps_what_fits(
        self, mmap_store, prefetch_depth
    ):
        """The regression test for hit share 0: under LRU a cyclic
        scan one chunk larger than the budget never hit."""
        chunk_bytes = 2 * 64 * ED * 8
        budget = 2 * chunk_bytes + chunk_bytes // 2
        pipeline = ChunkPrefetcher(
            mmap_store, chunk_size=64, resident_bytes=budget,
            prefetch_depth=prefetch_depth,
        )
        list(pipeline.chunks())
        assert pipeline.stats.ram_bytes == 0
        # Chunks 0 and 1 fill the budget; 2 and 3 do not fit; the
        # one-row tail still does.
        tail = ((256, 257),)
        resident = ((0, 64), (64, 128)) + tail
        assert pipeline.resident_spans() == resident
        for _ in range(3):
            before = pipeline.stats.snapshot()
            list(pipeline.chunks())
            ram = pipeline.stats.ram_bytes - before.ram_bytes
            assert ram // chunk_bytes == budget // chunk_bytes == 2
            assert pipeline.stats.disk_bytes - before.disk_bytes == 2 * chunk_bytes
            assert pipeline.cached_bytes <= budget
            assert pipeline.resident_spans() == resident
        pipeline.close()

    def test_fetch_still_evicts_lru_first(self, mmap_store):
        chunk_bytes = 2 * 64 * ED * 8
        pipeline = ChunkPrefetcher(
            mmap_store, chunk_size=64, resident_bytes=2 * chunk_bytes
        )
        list(pipeline.chunks())  # admits chunks 0 and 1, then is full
        assert pipeline.resident_spans() == ((0, 64), (64, 128))
        _, hit = pipeline.fetch((192, 256))
        assert not hit
        assert pipeline.resident_spans() == ((64, 128), (192, 256))
        assert pipeline.cached_bytes <= 2 * chunk_bytes

    @staticmethod
    def _resident_store(rows=2_000, ed=8):
        rng = np.random.default_rng(1)
        return ResidentStore(
            rng.standard_normal((rows, ed)), rng.standard_normal((rows, ed))
        )

    def test_fetch_reports_lru_hits(self):
        pair_bytes = 2 * 500 * 8 * 8
        fetcher = ChunkPrefetcher(
            self._resident_store(), 500, resident_bytes=2 * pair_bytes
        )
        _, hit = fetcher.fetch((0, 500))
        assert not hit
        _, hit = fetcher.fetch((0, 500))
        assert hit

    def test_resident_spans_track_lru(self):
        pair_bytes = 2 * 500 * 8 * 8
        fetcher = ChunkPrefetcher(
            self._resident_store(), 500, resident_bytes=2 * pair_bytes
        )
        fetcher.fetch((0, 500))
        fetcher.fetch((500, 1000))
        assert fetcher.resident_spans() == ((0, 500), (500, 1000))
        # A third chunk evicts the coldest.
        fetcher.fetch((1000, 1500))
        assert fetcher.resident_spans() == ((500, 1000), (1000, 1500))

    def test_fetch_accounts_in_ledger(self):
        fetcher = ChunkPrefetcher(
            self._resident_store(), 500, resident_bytes=10 * 2 * 500 * 32 * 8
        )
        fetcher.fetch((0, 500))
        assert fetcher.stats.chunks_served == 1
        assert fetcher.stats.demand_fetches == 1

    def test_no_lru_means_no_hits(self):
        fetcher = ChunkPrefetcher(self._resident_store(), 500, resident_bytes=None)
        _, hit = fetcher.fetch((0, 500))
        _, hit2 = fetcher.fetch((0, 500))
        assert not hit and not hit2
        assert fetcher.resident_spans() == ()

    def test_fetch_thread_lives_until_close(self, mmap_store):
        started = threading.active_count()
        pipeline = ChunkPrefetcher(mmap_store, chunk_size=64, prefetch_depth=2)
        for _ in range(3):
            list(pipeline.chunks())
        assert threading.active_count() == started + 1  # one, not one per pass
        pipeline.close()
        pipeline.close()  # idempotent
        assert threading.active_count() == started
        assert len(list(pipeline.chunks())) == 5  # still usable
        pipeline.close()

    def test_resident_chunks_need_no_fetch_thread(self, mmap_store):
        started = threading.active_count()
        pipeline = ChunkPrefetcher(
            mmap_store, chunk_size=64, resident_bytes=1 << 30, prefetch_depth=2
        )
        list(pipeline.chunks())  # fills the tier through the fetch thread
        pipeline.close()
        before = pipeline.stats.snapshot()
        list(pipeline.chunks())  # every chunk is taken inline
        assert threading.active_count() == started
        stats = pipeline.stats
        assert stats.prefetch_hits - before.prefetch_hits == 5
        assert stats.prefetch_late == before.prefetch_late
        assert stats.ram_bytes == stats.disk_bytes == before.disk_bytes

    def test_fetch_thread_and_inline_hits_share_the_tier(
        self, mmap_store, memories
    ):
        """The consumer reads the tier for inline hits while the fetch
        thread admits misses into it: the byte count must stay the sum
        of what is held, under an aggressive switch interval."""
        row_pair_bytes = 2 * ED * 8
        budget = int(5.5 * 16 * row_pair_bytes)
        pipeline = ChunkPrefetcher(
            mmap_store, chunk_size=16, resident_bytes=budget, prefetch_depth=3
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                served = np.vstack([c[0] for c in pipeline.chunks()])
                np.testing.assert_array_equal(served, memories[0])
                held = sum(
                    (stop - start) * row_pair_bytes
                    for start, stop in pipeline.resident_spans()
                )
                assert pipeline.cached_bytes == held <= budget
        finally:
            sys.setswitchinterval(interval)
            pipeline.close()
        assert len(pipeline.resident_spans()) == 6  # five chunks + the tail

    def test_chunks_match_the_store(self, mmap_store, memories):
        pipeline = ChunkPrefetcher(
            mmap_store, chunk_size=100, prefetch_depth=1
        )
        served = np.vstack([c[0] for c in pipeline.chunks()])
        np.testing.assert_array_equal(served, memories[0])

    def test_validation(self, mmap_store):
        with pytest.raises(ValueError, match="chunk_size"):
            ChunkPrefetcher(mmap_store, chunk_size=0)
        with pytest.raises(ValueError, match="prefetch_depth"):
            ChunkPrefetcher(mmap_store, chunk_size=64, prefetch_depth=-1)
        with pytest.raises(ValueError, match="resident_bytes"):
            ChunkPrefetcher(mmap_store, chunk_size=64, resident_bytes=0)


#: One chunk pair at chunk_size=64: the "tiny" budget holds one chunk,
#: the "partial" budget three of the five (smaller than the footprint,
#: so later passes mix resident and streamed chunks), the "large"
#: budget the whole store.
_CHUNK_PAIR_BYTES = 2 * 64 * ED * 8


class TestDifferentialGrid:
    """Store-backed inference must match resident inference exactly:
    1e-10 against the one-chunk reference, and ``tobytes``-identical
    to the resident path of the same chunk geometry on every pass
    (the third is the first a warm, partly-resident tier serves)."""

    @pytest.mark.parametrize("prefetch_depth", [0, 1, 2])
    @pytest.mark.parametrize(
        "resident_bytes",
        [None, _CHUNK_PAIR_BYTES, 3 * _CHUNK_PAIR_BYTES, 1 << 30],
    )
    def test_column_mmap_grid(
        self, memories, questions, mmap_store, prefetch_depth, resident_bytes
    ):
        chunk = ChunkConfig(chunk_size=64)
        reference = ColumnMemNN(*memories).output(questions).output
        same_geometry = ColumnMemNN(*memories, chunk=chunk).output(questions)
        solver = ColumnMemNN(
            store=mmap_store,
            chunk=chunk,
            resident_bytes=resident_bytes,
            prefetch_depth=prefetch_depth,
        )
        for served in (5, 10, 15):
            result = solver.output(questions)
            assert result.output.tobytes() == same_geometry.output.tobytes()
            store_stats = result.tier_stats()["store"]
            assert store_stats is not None
            assert store_stats.chunks_served == served
        solver.close()
        np.testing.assert_allclose(
            result.output, reference, rtol=1e-10, atol=1e-10
        )

    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    def test_column_resident_pipeline_grid(
        self, memories, questions, prefetch_depth
    ):
        reference = ColumnMemNN(*memories).output(questions).output
        solver = ColumnMemNN(
            *memories,
            chunk=ChunkConfig(chunk_size=64),
            resident_bytes=1 << 20,
            prefetch_depth=prefetch_depth,
        )
        np.testing.assert_allclose(
            solver.output(questions).output, reference, rtol=1e-10, atol=1e-10
        )

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("num_shards", [1, 3, 4])
    def test_sharded_mmap_grid(
        self, memories, questions, mmap_store, num_shards, policy
    ):
        self._check_sharded(
            memories, questions, mmap_store, num_shards, policy,
            resident_bytes=1 << 20, prefetch_depth=2,
        )

    @pytest.mark.parametrize("policy", ["contiguous", "strided"])
    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    @pytest.mark.parametrize("resident_bytes", [None, 3 * _CHUNK_PAIR_BYTES])
    def test_sharded_mmap_budget_grid(
        self, memories, questions, mmap_store, policy, prefetch_depth,
        resident_bytes,
    ):
        # 3 * _CHUNK_PAIR_BYTES over two shards of ~2 chunks each: one
        # chunk and the tail of every shard stay resident.
        self._check_sharded(
            memories, questions, mmap_store, 2, policy,
            resident_bytes=resident_bytes, prefetch_depth=prefetch_depth,
        )

    @staticmethod
    def _check_sharded(
        memories, questions, mmap_store, num_shards, policy,
        resident_bytes, prefetch_depth,
    ):
        chunk = ChunkConfig(chunk_size=64)
        reference = ColumnMemNN(*memories).output(questions).output
        same_geometry = ShardedMemNN(
            *memories, num_shards=num_shards, policy=policy, chunk=chunk
        ).output(questions)
        solver = ShardedMemNN(
            store=mmap_store,
            num_shards=num_shards,
            policy=policy,
            chunk=chunk,
            resident_bytes=resident_bytes,
            prefetch_depth=prefetch_depth,
        )
        for _ in range(3):
            result = solver.output(questions)
            assert result.output.tobytes() == same_geometry.output.tobytes()
        solver.close()
        np.testing.assert_allclose(
            result.output, reference, rtol=1e-10, atol=1e-10
        )
        store_stats = result.tier_stats()["store"]
        assert store_stats is not None
        assert store_stats.chunks_served > 0
        if resident_bytes is not None:
            assert 0 < store_stats.ram_bytes

    def test_float32_store_matches_float32_resident(
        self, memories, questions, tmp_path
    ):
        store = MmapStore.save(
            tmp_path / "f32", *memories, dtype=np.float32
        )
        resident = ColumnMemNN(*memories, dtype=np.float32)
        streamed = ColumnMemNN(store=store, prefetch_depth=1)
        np.testing.assert_allclose(
            streamed.output(questions.astype(np.float32)).output,
            resident.output(questions.astype(np.float32)).output,
            rtol=1e-6, atol=1e-6,
        )

    def test_store_and_arrays_are_exclusive(self, memories, mmap_store):
        with pytest.raises(ValueError, match="not both"):
            ColumnMemNN(*memories, store=mmap_store)
        with pytest.raises(ValueError, match="not both"):
            ShardedMemNN(*memories, store=mmap_store)
        with pytest.raises(ValueError, match="memories required"):
            ColumnMemNN()


class TestStoreConfig:
    def test_defaults_are_disabled(self):
        config = StoreConfig()
        assert not config.enabled
        assert not config.out_of_core

    def test_validation(self):
        with pytest.raises(ValueError, match="backend"):
            StoreConfig(backend="tape")
        with pytest.raises(ValueError, match="prefetch_depth"):
            StoreConfig(prefetch_depth=-1)
        with pytest.raises(ValueError, match="resident_bytes"):
            StoreConfig(resident_bytes=0)
        with pytest.raises(ValueError, match="mmap"):
            StoreConfig(backend="resident", path="/tmp/somewhere")

    def test_baseline_engine_rejects_store(self):
        config = EngineConfig(
            algorithm="baseline",
            store=StoreConfig(backend="mmap"),
        )
        with pytest.raises(ValueError, match="baseline"):
            config.validate()

    def test_out_of_core_preset(self):
        config = EngineConfig.out_of_core()
        assert config.algorithm == "column"
        assert config.store.out_of_core
        assert config.store.prefetch_depth == 2
        sharded = EngineConfig.out_of_core(num_shards=4)
        assert sharded.algorithm == "sharded"
        assert sharded.num_shards == 4


class TestEngineOutOfCore:
    def _setup(self, engine_config):
        config = MemNNConfig(
            vocab_size=60, embedding_dim=ED, num_sentences=NS,
            max_words=6, hops=2,
        )
        rng = np.random.default_rng(3)
        weights = EngineWeights.random(config, rng=rng)
        engine = MnnFastEngine(config, weights, engine_config=engine_config)
        story = rng.integers(1, 60, size=(50, 6))
        questions = rng.integers(1, 60, size=(4, 6))
        engine.store_story(story)
        return engine, questions

    def test_out_of_core_matches_resident(self):
        resident, questions = self._setup(EngineConfig())
        streamed, _ = self._setup(EngineConfig.out_of_core())
        expected = resident.answer(questions)
        actual = streamed.answer(questions)
        np.testing.assert_allclose(
            actual.logits, expected.logits, rtol=1e-10, atol=1e-10
        )
        np.testing.assert_array_equal(
            actual.answer_ids, expected.answer_ids
        )

    def test_sharded_out_of_core_matches_resident(self):
        resident, questions = self._setup(float64())
        streamed, _ = self._setup(
            float64(EngineConfig.out_of_core(num_shards=3, shard_policy="strided"))
        )
        np.testing.assert_allclose(
            streamed.answer(questions).logits,
            resident.answer(questions).logits,
            rtol=1e-10, atol=1e-10,
        )

    def test_spills_to_configured_path(self, tmp_path):
        engine, questions = self._setup(
            EngineConfig.out_of_core(path=str(tmp_path / "spill"))
        )
        engine.answer(questions)
        assert (tmp_path / "spill" / "pair0" / "store.json").is_file()

    def test_restore_after_memory_mutation(self):
        streamed, questions = self._setup(EngineConfig.out_of_core())
        resident, _ = self._setup(EngineConfig())
        first = streamed.answer(questions).logits
        rng = np.random.default_rng(9)
        more = rng.integers(1, 60, size=(20, 6))
        streamed.store_story(more)
        resident.store_story(more)
        second = streamed.answer(questions)
        np.testing.assert_allclose(
            second.logits, resident.answer(questions).logits,
            rtol=1e-10, atol=1e-10,
        )
        assert not np.allclose(second.logits, first)


    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_no_descriptor_or_thread_outlives_close(self, num_shards):
        """The engine re-spills on every memory mutation; each spill
        holds descriptors and (with lookahead) a fetch thread."""
        engine, questions = self._setup(
            EngineConfig.out_of_core(num_shards=num_shards)
        )
        engine.close()
        # Engines earlier tests left unclosed lose their descriptors and
        # fetch threads whenever the GC finds them: collect them now, and
        # compare thread identities (their threads exit asynchronously).
        gc.collect()
        fds, threads = _open_fds(), set(threading.enumerate())
        rng = np.random.default_rng(5)
        for _ in range(50):
            engine.store_story(rng.integers(1, 60, size=(2, 6)))
            engine.answer(questions)
        assert set(threading.enumerate()) - threads  # the lookahead ran
        engine.close()
        assert _open_fds() == fds
        assert not set(threading.enumerate()) - threads
