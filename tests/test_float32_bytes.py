"""Where the bytes are, under the default (float32-memory) config.

ROADMAP aim 1, after ``tests/test_store_prefetch_parity.py``: the
*modeled* footprint — ``InferencePlan.hop_bytes``,
``QaServer.disk_stream_seconds`` — has always been ``FLOAT_BYTES`` = 4
per element; the executed engine's counters, spill and resident tier
now equal it exactly, and no ``(ns, ed)`` float64 array exists at any
layer — not stored, and not as the hidden temporary NumPy makes when a
float64 ``(nq, ed)`` operand meets a float32 ``(ns, ed)`` one.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    BaselineMemNN,
    ChunkConfig,
    ColumnMemNN,
    EngineConfig,
    EngineWeights,
    ExecutionConfig,
    MemNNConfig,
    MnnFastEngine,
    ShardedMemNN,
    ZeroSkipConfig,
    compiled_fold,
)
from repro.core.config import FLOAT_BYTES
from repro.index.ivf import IVFIndex
from repro.serving import QaServer, ServerConfig

from .conftest import float64

NS, ED, NQ, HOPS = 6000, 32, 2, 2
CHUNK = 1000
MATRIX_BYTES = NS * ED * FLOAT_BYTES


def _network(hops=HOPS):
    return MemNNConfig(
        embedding_dim=ED, num_sentences=NS, vocab_size=400, max_words=6, hops=hops
    )


def _loaded(engine_config, hops=HOPS, seed=0):
    rng = np.random.default_rng(seed)
    network = _network(hops)
    engine = MnnFastEngine(
        network, EngineWeights.random(network, rng=rng), engine_config
    )
    engine.store_story(rng.integers(1, 400, size=(NS, 6)))
    questions = rng.integers(1, 400, size=(NQ, 6))
    return engine, questions


def _peak_bytes(call) -> int:
    """Peak of the allocations made while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- model <-> execution byte parity -----------------------------------------


@pytest.mark.parametrize("prefetch_depth", (0, 2))
@pytest.mark.parametrize("resident_chunks", (None, 2.5, 6))
def test_executed_bytes_equal_the_modeled_footprint(
    resident_chunks, prefetch_depth
):
    """``OpStats.bytes_read``, the store ledger per pass and the spill's
    size on disk are the plan's ``FLOAT_BYTES`` footprint, to the byte;
    the disk share of a warm pass is the serving model's."""
    chunk_bytes = 2 * CHUNK * ED * FLOAT_BYTES
    budget = None if resident_chunks is None else int(resident_chunks * chunk_bytes)
    engine_config = EngineConfig.out_of_core(
        resident_bytes=budget, prefetch_depth=prefetch_depth, chunk_size=CHUNK
    )
    engine, questions = _loaded(engine_config)
    plan = engine.plan(batch_size=NQ)
    assert plan.dtype_bytes == FLOAT_BYTES
    assert plan.hop_bytes == 2 * MATRIX_BYTES

    result = engine.answer(questions)
    assert result.stats.bytes_read == plan.bytes_streamed
    assert [hop.bytes_read for hop in result.hop_stats] == [plan.hop_bytes] * HOPS
    # The ledger is cumulative: each hop is one pass over the store.
    served = [ledger.bytes_served for ledger in result.tier_stats()["store"]]
    assert served == [plan.hop_bytes * (hop + 1) for hop in range(HOPS)]

    spill = Path(engine._spill_tmp.name) / "pair0"
    assert sorted(
        (file.name, file.stat().st_size) for file in spill.glob("*.bin")
    ) == [("m_in.bin", MATRIX_BYTES), ("m_out.bin", MATRIX_BYTES)]

    server = QaServer(ServerConfig(network=_network(), engine=engine_config))
    modeled = server.disk_stream_seconds() * server.config.disk_bandwidth
    assert modeled == max(0, plan.hop_bytes - (budget or 0))
    before = result.tier_stats()["store"][-1].disk_bytes
    warm = engine.answer(questions).tier_stats()["store"][-1].disk_bytes
    # One chunk may not fit the budget's remainder (the parity test's bound).
    assert abs((warm - before) / HOPS - modeled) < chunk_bytes
    engine.close()


def test_resident_column_bytes_equal_the_plan():
    engine, questions = _loaded(EngineConfig.mnnfast(CHUNK, 0.0))
    result = engine.answer(questions)
    assert result.stats.bytes_read == engine.plan(batch_size=NQ).bytes_streamed
    reference, _ = _loaded(float64(EngineConfig.mnnfast(CHUNK, 0.0)))
    assert reference.answer(questions).stats.bytes_read == 2 * result.stats.bytes_read


@pytest.mark.parametrize(
    "engine_config,solver_views_engine_rows",
    (
        (EngineConfig.mnnfast(CHUNK, 0.1), True),
        (EngineConfig.fused(4, chunk_size=CHUNK), True),
        # Strided shards gather their rows — a copy, in float32.
        (EngineConfig.sharded(3, "strided", chunk_size=CHUNK), False),
        (EngineConfig.out_of_core(resident_bytes=1 << 20, chunk_size=CHUNK), False),
        # min_rows=0: NS is below the measured crossover, and these two
        # cells must reach the indexed path.
        (
            EngineConfig.mnnfast(CHUNK, 0.1).with_topk(nlist=16, nprobe=4, min_rows=0),
            False,
        ),
        (
            EngineConfig.out_of_core(chunk_size=CHUNK).with_topk(
                nlist=16, nprobe=4, min_rows=0
            ),
            False,
        ),
    ),
    ids=("column", "fused", "sharded", "out-of-core", "topk", "topk-store"),
)
def test_no_float64_memory_is_resident_anywhere(
    engine_config, solver_views_engine_rows
):
    """Engine buffers, solver, spill, chunk tier and the top-k tier's
    cluster-major copy all hold float32 — and the buffers are the only
    copy the engine itself keeps."""
    engine, questions = _loaded(engine_config)
    engine.answer(questions)

    def memory_arrays(solver):
        """Every ``(rows, ED)`` array reachable from a solver (the few
        float64 centroid rows of the IVF index are not memory)."""
        found, stack, seen = [], [solver], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, np.ndarray):
                if node.ndim == 2 and node.shape[1] == ED and len(node) > 64:
                    found.append(node)
            elif isinstance(node, (list, tuple)):
                stack.extend(node)
            elif isinstance(node, dict):
                stack.extend(node.values())
            elif type(node).__module__.startswith("repro."):
                slots = getattr(type(node), "__slots__", ())
                stack.extend(getattr(node, name, None) for name in slots)
                stack.extend(vars(node).values() if hasattr(node, "__dict__") else ())
        return found

    stored = [matrix for pair in engine._buffers for matrix in pair]
    assert {matrix.dtype for matrix in stored} == {np.dtype(np.float32)}
    for view, buffer in zip(engine.memories, stored):
        assert view.base is buffer
    reachable = memory_arrays(engine._solver_cache[0])
    assert reachable, "the walk found no memory under the solver"
    assert {matrix.dtype for matrix in reachable} == {np.dtype(np.float32)}
    if solver_views_engine_rows:
        assert all(
            np.shares_memory(matrix, stored[0]) or np.shares_memory(matrix, stored[1])
            for matrix in reachable
        )
    for store in engine._spilled:
        assert store.dtype == np.float32
    engine.close()


# --- one (nq, n) buffer per tile ----------------------------------------------


@pytest.mark.parametrize("fold", ("compiled", "numpy"))
@pytest.mark.parametrize("arrangement", ("column", "fused"))
def test_a_fold_holds_one_score_block_and_its_state(arrangement, fold, request):
    """Twelve 16 x 700 float32 tiles under zero-skipping: the compiled
    fold's peak is the score block (turned in place into the
    exponentials zero-skipping decides on) and each state's ``(nq,
    ed + 2)`` float64 buffer — no bool mask, no second float ``(nq, n)``
    workspace and no float64 ``(nq, n)`` temporary.  The NumPy fold
    adds one bool mask and the gathers of a sparse readout.  Same
    through three fused shards cut so that a shard's first segment of a
    global tile is narrower than its later ones."""
    if fold == "numpy":
        request.getfixturevalue("numpy_fold")
    elif compiled_fold.fold_backend() != "c":
        pytest.skip(compiled_fold.fold_backend())
    nq, ed = 16, 48
    rng = np.random.default_rng(0)
    m_in = rng.normal(size=(8400, ed)).astype(np.float32)
    m_out = rng.normal(size=m_in.shape).astype(np.float32)
    u = rng.normal(size=(nq, ed)).astype(np.float32)
    if arrangement == "column":
        tile, states = 700, 1
        solver = ColumnMemNN(m_in, m_out, ChunkConfig(tile), np.float32)
    else:
        # Global tiles of 3 x 700 rows over shards of 2800: shard 1's
        # segments are 1400 and 1400 columns, shard 2's 700 then 2100.
        tile, states = 3 * 700, 3
        solver = ShardedMemNN(
            m_in, m_out, num_shards=3, chunk=ChunkConfig(700),
            dtype=np.float32, execution=ExecutionConfig(fused=True),
        )  # fmt: skip
    zero_skip = ZeroSkipConfig(0.1)
    solver.partial_output(u, zero_skip=zero_skip)  # warm imports
    # NumPy's ufunc buffers (32 KB an operand under a broadcast, a cast
    # or a strided block) at their minimum: what is left is the kernel's.
    bufsize = np.setbufsize(16)
    try:
        peak = _peak_bytes(
            lambda: solver.partial_output(u, zero_skip=zero_skip)
        )
    finally:
        np.setbufsize(bufsize)
    block, mask = nq * tile * FLOAT_BYTES, nq * tile
    if fold == "compiled":
        # The states' buffers and a few KB of Python objects: less room
        # than the smallest mask (11 200 bytes, one column tile's).
        state = states * nq * (ed + 2) * 8
        assert peak < block + state + 10 * 1024
    else:
        # Per state: float64 (denom, acc), the tile-dtype contrib, the
        # kept columns and their gathers — half a block of room (a
        # third to two thirds of it used), so one more block of any
        # dtype fails.
        assert peak < block + mask + block // 2


# --- silent whole-memory up-casts ---------------------------------------------


def test_small_operand_is_cast_not_the_memory():
    """Three calls hand NumPy a float64 ``(nq, ed)`` state and a float32
    ``(ns, ed)`` memory.  Each must narrow the state (or widen the
    ``(nq, block)`` scores), so its temporaries are O(nq x ns) — never
    the O(ns x ed x 8) float64 copy of the memory a mixed GEMM makes."""
    engine, questions = _loaded(
        EngineConfig.mnnfast(CHUNK, 0.1)
        .with_topk(nlist=16, nprobe=4, min_rows=0, measure_recall=True)
    )
    widened_memory = NS * ED * 8
    scores_bytes = NQ * NS * 8
    assert 8 * scores_bytes < widened_memory  # the bound separates the two
    u, _, _ = engine.embed_question(questions)
    assert u.dtype == np.float64
    m_in = engine.memories[0]
    assert m_in.dtype == np.float32
    engine.answer(questions)  # builds the index outside the measured calls
    topk = engine._solver_cache[0]

    calls = {
        "attention": lambda: engine.attention(questions),
        "recall": lambda: topk._attention_mass_recall(
            u.astype(np.float32), np.arange(0, NS, 7)
        ),
        "baseline": lambda: BaselineMemNN(
            *engine.memories, dtype=np.float32
        ).output(u),
    }
    for name, call in calls.items():
        assert _peak_bytes(call) < 8 * scores_bytes, name
    # The mixed GEMM these calls used to run does cross the bound.
    assert _peak_bytes(lambda: u @ m_in.T) > widened_memory


def test_answer_layer_operand_is_held_in_the_storage_dtype():
    """One ``W`` per engine, in the memories' dtype — packed in
    16-answer panels where the compiled layer runs (the pack replaces
    the cast), column-major elsewhere — and under the float64 reference
    config the weights' own array."""
    engine, questions = _loaded(EngineConfig.mnnfast(CHUNK, 0.1))
    layer = engine.answer_layer
    assert layer.dtype == np.float32
    narrow = engine.weights.answer_weight.astype(np.float32)
    if compiled_fold.kernels() is None:
        assert layer.packed is None and layer.weight.flags.f_contiguous
        np.testing.assert_array_equal(layer.weight, narrow)
    else:
        assert layer.weight is None
        panels, ed, lanes = layer.packed.shape
        assert panels % 4 == 0 and lanes == 16
        unpacked = layer.packed.transpose(0, 2, 1).reshape(-1, ed)
        np.testing.assert_array_equal(unpacked[: len(narrow)], narrow)
        assert not unpacked[len(narrow) :].any()
    # close() drops the layer with the solvers; the next use makes it again.
    before = engine.answer(questions).logits
    engine.close()
    assert engine.answer(questions).logits.tobytes() == before.tobytes()
    assert engine.answer_layer is not layer
    reference, _ = _loaded(float64(EngineConfig.mnnfast(CHUNK, 0.1)))
    assert reference.answer_layer.weight is reference.weights.answer_weight


def test_gated_answer_never_widens_the_answer_matrix():
    """A gated pass against a docqa-sized ``(5 975, 64)`` ``W``
    allocates less than half of one float32 ``W``: the gate and the
    survivors' projection narrow the ``(nq, ed)`` state.  A mixed
    ``float64 @ float32`` GEMM would copy all of ``W`` to float64."""
    num_answers, ed, nq = 5975, 64, 4
    network = MemNNConfig(
        embedding_dim=ed, num_sentences=256, vocab_size=400, max_words=6, hops=3
    )
    rng = np.random.default_rng(0)
    tables = EngineWeights.random(network, rng=rng)
    # Wide logits, so the gate retires two of the four questions.
    weights = EngineWeights(
        tables.embedding_a,
        tables.embedding_c,
        rng.normal(0.0, 4.0, (num_answers, ed)),
    )
    engine = MnnFastEngine(
        network, weights, EngineConfig.mnnfast(CHUNK, 0.1).with_early_exit(0.5)
    )
    engine.store_story(rng.integers(1, 400, size=(256, 6)))
    questions = rng.integers(1, 400, size=(nq, 6))
    first = engine.answer(questions)  # builds the solver
    assert 0 < first.hop_trace.num_exited < nq  # both projections run
    peak = _peak_bytes(lambda: engine.answer(questions))
    one_w = num_answers * ed * FLOAT_BYTES
    assert peak < one_w // 2
    u, _, _ = engine.embed_question(questions)
    narrow = engine.weights.answer_weight.astype(np.float32)
    assert _peak_bytes(lambda: u @ narrow.T) > 2 * one_w


def test_swapping_dtype_recasts_the_answer_layer_once():
    """float32 -> float64 -> float32: ``W`` is re-cast once per swap,
    from the float64 weights — after the swap to float64 the engine
    answers bit for bit as a fresh float64 engine over the same rows."""
    engine, questions = _loaded(EngineConfig.mnnfast(CHUNK, 0.0))
    narrow = engine.answer_layer
    engine.answer(questions)
    assert engine.answer_layer is narrow  # not re-cast per pass

    engine.engine_config = float64(engine.engine_config)
    widened = engine.answer(questions)
    assert engine.answer_layer.weight is engine.weights.answer_weight
    fresh = MnnFastEngine(engine.config, engine.weights, engine.engine_config)
    fresh.set_memories(*engine.memories)
    assert widened.logits.tobytes() == fresh.answer(questions).logits.tobytes()

    engine.engine_config = engine.engine_config.with_execution(dtype="float32")
    engine.answer(questions)
    recast = engine.answer_layer
    assert recast.dtype == np.float32 and recast is not narrow
    for held in ("weight", "packed"):
        np.testing.assert_array_equal(getattr(recast, held), getattr(narrow, held))
    engine.answer(questions)
    assert engine.answer_layer is recast

    # A swap, then clear_memories: the next write still re-casts W.
    engine.engine_config = float64(engine.engine_config)
    engine.clear_memories()
    engine.store_story(np.ones((2, 6), dtype=int))
    assert engine.answer_layer.weight is engine.weights.answer_weight


def test_probe_scores_the_float64_state(monkeypatch):
    """The centroids are float64 and few: the probe takes ``u`` as the
    hop loop carries it, not the float32 copy made for the scan."""
    engine, questions = _loaded(
        EngineConfig.mnnfast(CHUNK, 0.1).with_topk(nlist=16, nprobe=4, min_rows=0)
    )
    probed = []
    probe = IVFIndex.probe

    def spy(self, u, nprobe):
        probed.append(np.asarray(u).dtype)
        return probe(self, u, nprobe)

    monkeypatch.setattr(IVFIndex, "probe", spy)
    engine.answer(questions)
    assert probed == [np.dtype(np.float64)] * HOPS
    assert engine._solver_cache[0].index.centroids.dtype == np.float64


# --- swapping the precision of a loaded engine --------------------------------


def test_swapping_dtype_recasts_the_stored_rows_once():
    """``engine.engine_config`` may be replaced on a loaded engine; a
    different ``dtype`` re-casts the rows at the next solver build —
    once, and widening float32 rows does not bring back the digits the
    first rounding dropped."""
    engine, questions = _loaded(EngineConfig.mnnfast(CHUNK, 0.0))
    exact, _ = _loaded(float64(EngineConfig.mnnfast(CHUNK, 0.0)))
    narrow = [matrix.copy() for matrix in engine.memories]
    before = engine.answer(questions)

    engine.engine_config = float64(engine.engine_config)
    assert engine.memories[0].dtype == np.float32  # nothing yet
    after = engine.answer(questions)
    widened = engine.memories
    assert [matrix.dtype for matrix in widened] == [np.float64] * 2
    for matrix, original, full in zip(widened, narrow, exact.memories):
        np.testing.assert_array_equal(matrix, original)
        assert not np.array_equal(matrix, full)
    np.testing.assert_array_equal(after.answer_ids, before.answer_ids)
    engine.answer(questions)
    assert engine.memories[0] is widened[0]  # cast once, not per pass

    # A write right after a swap lands in buffers of the new dtype.
    engine.engine_config = engine.engine_config.with_execution(dtype="float32")
    engine.clear_memories()
    engine.store_story(np.ones((3, 6), dtype=int))
    engine.engine_config = float64(engine.engine_config)
    engine.store_story(np.ones((2, 6), dtype=int))
    assert engine.memories[0].dtype == np.float64
    assert engine.num_stored_sentences == 5
    rows = engine.memories[0]
    assert not np.array_equal(rows[0], rows[3])  # rounded once vs never
    np.testing.assert_array_equal(rows[:3], rows[3:4].astype(np.float32).repeat(3, 0))
