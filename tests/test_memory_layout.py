"""The one in-RAM layout of ``M_IN``: feature-major, at every tier.

``MemoryStore.read_chunk`` / ``read_rows`` hand the kernel ``M_IN``
rows as an ``(n, ed)`` array whose *features* are contiguous
(``strides[0] == itemsize``), so the score GEMM's ``chunk_in.T`` is an
operand BLAS takes untransposed; ``M_OUT`` rows stay C-contiguous
(DESIGN.md §10).  The rule is a layout, never a value: every source
below returns exactly ``M[rows]``, in the dtype it was given.  The
engine half pins where the layout comes from — the append buffers —
and that nothing between a write and the next answer re-materialises
the memory.
"""

import json

import numpy as np
import pytest

from repro.core import (
    BaselineMemNN,
    ChunkConfig,
    ColumnMemNN,
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    ShardedMemNN,
    TopKConfig,
)
from repro.index.topk import TopKMemNN
from repro.store import ChunkPrefetcher, MmapStore, ResidentStore, RowSubsetStore

from .test_float32_bytes import _peak_bytes

NS, ED, CHUNK = 700, 12, 128
STRIDED = np.arange(1, NS, 3)
SCATTERED = np.array([5, 699, 0, 77, 78, 400])


def _memories(dtype):
    rng = np.random.default_rng(7)
    return (
        rng.normal(size=(NS, ED)).astype(dtype),
        rng.normal(size=(NS, ED)).astype(dtype),
    )


def _in_capacity_buffer(m_in):
    """``m_in`` the way the engine holds it: the stored rows of a larger
    feature-major buffer (so ``m_in.T`` is not contiguous)."""
    buffer = np.empty((2 * NS, ED), m_in.dtype, order="F")
    buffer[:NS] = m_in
    return buffer[:NS]


# Each source yields ``(rows, chunk_in, chunk_out)`` triples: the global
# row ids a chunk must equal, and the chunk as the tier serves it.


def _resident_row_major(m_in, m_out, tmp_path):
    store = ResidentStore(m_in, m_out, dtype=m_in.dtype)
    yield np.arange(100, 300), *store.read_chunk(100, 300)
    yield SCATTERED, *store.read_rows(SCATTERED)


def _resident_buffer_slice(m_in, m_out, tmp_path):
    held = _in_capacity_buffer(m_in)
    store = ResidentStore(held, m_out, dtype=m_in.dtype)
    assert np.shares_memory(store.m_in, held)  # kept, not converted
    yield np.arange(100, 300), *store.read_chunk(100, 300)
    yield SCATTERED, *store.read_rows(SCATTERED)  # non-contiguous source


def _resident_select(m_in, m_out, tmp_path):
    store = ResidentStore(m_in, m_out, dtype=m_in.dtype).select(STRIDED)
    yield STRIDED[10:90], *store.read_chunk(10, 90)


def _row_subset(m_in, m_out, tmp_path):
    held = _in_capacity_buffer(m_in)
    subset = RowSubsetStore(ResidentStore(held, m_out, dtype=m_in.dtype), STRIDED)
    yield STRIDED[10:90], *subset.read_chunk(10, 90)
    yield STRIDED[[4, 2, 9]], *subset.read_rows([4, 2, 9])
    every_other = subset.select(np.arange(0, len(STRIDED), 2))
    yield STRIDED[::2][:50], *every_other.read_chunk(0, 50)


def _mmap_chunks(m_in, m_out, tmp_path):
    store = MmapStore.save(tmp_path / "store", m_in, m_out)
    try:
        yield np.arange(0, CHUNK), *store.read_chunk(0, CHUNK)
        yield np.arange(NS - 60, NS), *store.read_chunk(NS - 60, NS + 40)
        yield SCATTERED, *store.read_rows(SCATTERED)
        subset = store.select(STRIDED)
        yield STRIDED[10:90], *subset.read_chunk(10, 90)
        # Through the resident tier: pass one misses and admits, pass
        # two is served the admitted arrays.
        pipeline = ChunkPrefetcher(store, CHUNK, resident_bytes=1 << 30)
        for from_ram in (0, m_in.nbytes + m_out.nbytes):
            for start, pair in zip(range(0, NS, CHUNK), pipeline.chunks()):
                yield np.arange(start, min(start + CHUNK, NS)), *pair
            assert pipeline.stats.ram_bytes == from_ram
        pipeline.close()
    finally:
        store.close()


def _topk_cluster_major(m_in, m_out, tmp_path):
    solver = TopKMemNN(
        m_in,
        m_out,
        config=TopKConfig(nlist=8, nprobe=2, min_rows=0),
        chunk=ChunkConfig(CHUNK),
        dtype=m_in.dtype,
    )
    solver.output(np.ones((2, ED)))
    members = solver.index.members
    scan = solver._cluster_scan
    yield members, scan.m_in, scan.m_out
    yield members[50:200], *scan.store.read_chunk(50, 200)


def _sharded(m_in, m_out, tmp_path):
    held = _in_capacity_buffer(m_in)
    solver = ShardedMemNN(
        held, m_out, num_shards=2, chunk=ChunkConfig(CHUNK), dtype=m_in.dtype
    )
    for rows, shard in zip(solver.plan, solver._shards):
        assert np.shares_memory(shard.m_in, held)  # a view
        yield rows[:CHUNK], *shard.store.read_chunk(0, CHUNK)


SOURCES = {
    "resident-row-major": _resident_row_major,
    "resident-buffer-slice": _resident_buffer_slice,
    "resident-select": _resident_select,
    "row-subset": _row_subset,
    "mmap": _mmap_chunks,
    "topk-cluster-major": _topk_cluster_major,
    "sharded-contiguous": _sharded,
}


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("source", SOURCES)
def test_every_tier_serves_feature_major_m_in(source, dtype, tmp_path):
    m_in, m_out = _memories(dtype)
    served = 0
    for rows, chunk_in, chunk_out in SOURCES[source](m_in, m_out, tmp_path):
        served += 1
        assert chunk_in.shape == chunk_out.shape == (len(rows), ED)
        assert chunk_in.dtype == chunk_out.dtype == dtype
        assert len(rows) <= 1 or chunk_in.strides[0] == chunk_in.itemsize
        assert chunk_out.flags.c_contiguous
        np.testing.assert_array_equal(chunk_in, m_in[rows])
        np.testing.assert_array_equal(chunk_out, m_out[rows])
    assert served


def test_the_spill_of_a_feature_major_memory_is_a_row_major_format_1_store(
    tmp_path,
):
    """The layout is RAM's: the files are the row-major ones every
    earlier build wrote and reads."""
    m_in, m_out = _memories(np.float32)
    MmapStore.save(tmp_path / "store", _in_capacity_buffer(m_in), m_out).close()
    assert (tmp_path / "store" / "m_in.bin").read_bytes() == m_in.tobytes()
    assert (tmp_path / "store" / "m_out.bin").read_bytes() == m_out.tobytes()
    assert json.loads((tmp_path / "store" / "store.json").read_text()) == {
        "format": 1, "dtype": "float32", "rows": NS, "dim": ED,
    }  # fmt: skip


# --- the engine: where the layout comes from ----------------------------------

ROWS, WIDTH, NQ = 3041, 48, 2
MATRIX_BYTES = ROWS * WIDTH * 4


def buffer_rows(memories) -> int:
    """Row capacity of the append buffers behind ``engine.memories``:
    ``(capacity, ed)`` allocations, ``M_IN``'s in Fortran order."""
    m_in, m_out = memories
    assert m_in.strides[0] == m_in.itemsize and m_out.flags.c_contiguous
    assert len(m_in.base) == len(m_out.base)
    return len(m_in.base)


@pytest.fixture
def appended(monkeypatch):
    """An engine told 40 sentences one at a time (three buffer growths
    at a 16-row first capacity), then a bulk story, then one more
    sentence — so the stored rows sit in front of spare capacity."""
    monkeypatch.setattr("repro.core.engine._MIN_BUFFER_ROWS", 16)
    rng = np.random.default_rng(3)
    network = MemNNConfig(
        embedding_dim=WIDTH, num_sentences=4 * ROWS, vocab_size=60, max_words=5
    )
    story = rng.integers(1, 60, size=(ROWS, 5))
    engine = MnnFastEngine(network, EngineWeights.random(network, rng=rng))
    capacities = set()
    for sentence in story[:40]:
        engine.store_story(sentence[None, :])
        capacities.add(buffer_rows(engine.memories))
    assert capacities == {16, 32, 64}
    engine.store_story(story[40:-1])
    engine.store_story(story[-1:])
    assert buffer_rows(engine.memories) == 2 * (ROWS - 1)
    bulk = MnnFastEngine(network, engine.weights)
    bulk.store_story(story)
    for appended_rows, bulk_rows in zip(engine.memories, bulk.memories):
        assert appended_rows.tobytes() == bulk_rows.tobytes()
    return engine, rng.integers(1, 60, size=(NQ, 5))


@pytest.mark.parametrize(
    "dtype, capacity",
    (("float32", 8192), ("float32", 1024), ("float32", 1008), ("float64", 512)),
)
def test_a_grown_m_in_buffer_has_no_4k_column_stride(dtype, capacity):
    """A capacity whose feature column would span a multiple of 4 KiB
    (``table1_batch``'s 8 192 float32 rows) still gets an ``M_IN``
    column stride off it: OpenBLAS's sgemm over such tiles is slower
    (DESIGN.md §10).  The answers are those of an unpadded copy."""
    rng = np.random.default_rng(11)
    network = MemNNConfig(
        embedding_dim=WIDTH, num_sentences=capacity, vocab_size=60, max_words=5
    )
    engine = MnnFastEngine(
        network,
        EngineWeights.random(network, rng=rng),
        engine_config=EngineConfig.mnnfast(1000, 0.1).with_execution(dtype=dtype),
    )
    engine.store_story(rng.integers(1, 60, size=(capacity, 5)))
    m_in, m_out = engine.memories
    assert buffer_rows(engine.memories) == capacity
    assert m_in.strides[0] == m_in.itemsize
    assert m_in.strides[1] % 4096 != 0
    questions = rng.integers(1, 60, size=(NQ, 5))
    expected = engine.answer(questions).logits
    engine.set_memories(np.asfortranarray(m_in), m_out)  # unpadded
    assert engine.memories[0].strides[1] == capacity * m_in.itemsize
    assert engine.answer(questions).logits.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "engine_config",
    (
        EngineConfig.mnnfast(1000, 0.1),
        EngineConfig.sharded(2, chunk_size=1000),
        EngineConfig.fused(2, chunk_size=1000),
    ),
    ids=("column", "sharded", "fused"),
)
def test_solver_scans_the_append_buffer_in_place(appended, engine_config):
    """No ``ascontiguousarray`` / ``reshape`` / ``astype`` between a
    write and the next answer re-materialises the memory: building the
    solver and answering allocate less than one matrix, and the rows
    the kernel scores are the buffer's."""
    engine, questions = appended
    engine.engine_config = engine_config
    m_in, m_out = engine.memories
    assert m_in.strides == (4, 4 * buffer_rows(engine.memories))
    assert _peak_bytes(lambda: engine.answer(questions)) < MATRIX_BYTES
    solver = engine._solver_cache[0]
    kernels = (
        [solver]
        if isinstance(solver, ColumnMemNN)
        else solver._shards or [solver._fused._column]
    )
    for kernel in kernels:
        assert np.shares_memory(kernel.m_in, m_in)
        assert np.shares_memory(kernel.m_out, m_out)
    engine.close()


def test_set_memories_converts_a_row_major_m_in_once(appended):
    engine, questions = appended
    m_in, m_out = (np.ascontiguousarray(m) for m in engine.memories)  # row-major
    expected = engine.answer(questions).logits
    engine.set_memories(m_in, m_out)
    installed = engine.memories[0]
    assert not np.shares_memory(installed, m_in)
    assert installed.strides[0] == installed.itemsize
    assert np.shares_memory(engine.memories[1], m_out)
    # ... and not again at the solver build.
    assert _peak_bytes(lambda: engine.answer(questions)) < MATRIX_BYTES
    assert np.shares_memory(engine._solver_cache[0].m_in, installed)
    np.testing.assert_array_equal(engine.answer(questions).logits, expected)

    engine.set_memories(installed, m_out)  # feature-major: never copied
    assert np.shares_memory(engine.memories[0], installed)
    np.testing.assert_array_equal(engine.answer(questions).logits, expected)
    assert np.shares_memory(engine._solver_cache[0].m_in, installed)


def test_score_only_callers_take_m_in_as_it_is(appended):
    """The recall scan and the baseline both write ``u @ m_in.T``
    against the feature-major rows; neither forces a C-order copy of
    them."""
    engine, questions = appended
    m_in, m_out = engine.memories
    u, _, _ = engine.embed_question(questions)
    recall = TopKMemNN(
        m_in, m_out, config=TopKConfig(nprobe=2), dtype=np.float32
    )
    assert np.shares_memory(recall.store.m_in, m_in)
    baseline = BaselineMemNN(m_in, m_out, dtype=np.float32)
    assert np.shares_memory(baseline.m_in, m_in)
    calls = {
        "recall": lambda: recall._attention_mass_recall(
            u.astype(np.float32), np.arange(0, ROWS, 7)
        ),
        "baseline.scores": lambda: baseline.scores(u),
        "baseline.output": lambda: baseline.output(u),
    }
    for name, call in calls.items():
        assert _peak_bytes(call) < MATRIX_BYTES // 2, name
    # A C-order copy of the rows does cross the bound.
    assert _peak_bytes(lambda: np.ascontiguousarray(m_in)) >= MATRIX_BYTES
