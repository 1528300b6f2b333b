"""The tile plan of ``ColumnMemNN`` (DESIGN.md §10, "Tile plan").

A resident memory's scan runs over a plan — its ``(M_IN, M_OUT)``
pieces, cut into tiles, with one score workspace for every batch size —
in one compiled call, and a chunk pipeline hands it the chunks its
resident tier holds.  These tests hold the plan to the per-tile generator it replaced,
bit for bit, count what a hop calls, drop the plan on every re-point, and
check that a cached pipeline pass charges the ledger as a chunk stream
— and that an engine's writes inside its buffers leave the plan alone.
"""

import weakref

import numpy as np
import pytest

from repro.core import (
    ChunkConfig,
    ColumnMemNN,
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    ZeroSkipConfig,
    compiled_fold,
)
from repro.core.column import TileState
from repro.store import ChunkPrefetcher, MmapStore, ResidentStore

CHUNK, ED = 1000, 48

requires_compiler = pytest.mark.skipif(
    compiled_fold.fold_backend() != "c", reason=compiled_fold.fold_backend()
)


@pytest.fixture(params=("c", "numpy"))
def fold(request):
    """Each test under the compiled fold and under the NumPy fold."""
    if request.param == "c" and compiled_fold.fold_backend() != "c":
        pytest.skip(compiled_fold.fold_backend())
    if request.param == "numpy":
        request.getfixturevalue("numpy_fold")
    return request.param


def _memories(ns, seed=0):
    """Float32 memories with peaked attention for questions copied from
    their rows (so zero-skipping skips)."""
    rng = np.random.default_rng(seed)
    m_in = rng.normal(0.0, 0.5, (ns, ED)).astype(np.float32)
    m_out = rng.normal(0.0, 0.1, (ns, ED)).astype(np.float32)
    return m_in, m_out


def _questions(m_in, nq, seed):
    rng = np.random.default_rng(seed)
    return m_in[rng.integers(0, len(m_in), size=nq)].astype(np.float64)


def _generator_state(solver, u, threshold):
    """The scan as the per-tile generator folded it: zero-copy chunk
    slices of the store, each scored into the first tile's array, folded
    by ``TileState.fold``."""
    m_in, m_out = solver.store.m_in, solver.store.m_out
    state = TileState(*u.shape, threshold)
    workspace = None
    for start in range(0, len(m_in), CHUNK):
        chunk_in, chunk_out = m_in[start : start + CHUNK], m_out[start : start + CHUNK]
        if workspace is None:
            workspace = scores = np.matmul(u, chunk_in.T)
        else:
            scores = workspace[:, : len(chunk_in)]
            np.matmul(u, chunk_in.T, out=scores)
        state.fold(scores, chunk_out)
    return state


@pytest.mark.parametrize("threshold", (0.0, 0.1))
@pytest.mark.parametrize("ns", (1, CHUNK - 1, CHUNK, CHUNK + 1, 8192))
def test_a_plan_scan_equals_the_tile_generator(fold, ns, threshold):
    """Scans and hops over the plan, with the batch size changing
    between calls, are byte-equal to the generator's fold — and to a
    chunk pipeline that streams the same store's chunks."""
    m_in, m_out = _memories(ns)
    chunk = ChunkConfig(CHUNK)
    solver = ColumnMemNN(m_in, m_out, chunk=chunk, dtype=np.float32)
    streamed = ColumnMemNN(chunk=chunk, store=ResidentStore(m_in, m_out, np.float32))
    zero_skip = ZeroSkipConfig(threshold)
    for seed, nq in enumerate((16, 2, 16, 1, 2)):
        u = _questions(m_in, nq, seed)
        u_tile = u.astype(np.float32)
        want = _generator_state(solver, u_tile, threshold)
        got = solver.output(u, zero_skip)
        assert got.output.tobytes() == want.finalize().tobytes()
        assert got.stats.rows_computed == want.rows_kept
        if threshold:
            assert want.rows_kept < nq * ns or ns == 1  # rows were skipped
        assert streamed.output(u, zero_skip).output.tobytes() == got.output.tobytes()

        # A hop: the last tile folds inside the recurrence.
        want_u = u.copy()
        want_o = want.recur(want_u, want_u.astype(np.float32))
        hop_u, hop_tile = u.copy(), u_tile.copy()
        hop = solver.output(hop_u, zero_skip, u_tile=hop_tile)
        assert (hop.rows, hop.kept) == (ns, want.rows_kept)
        assert hop.output.tobytes() == want_o.tobytes() == got.output.tobytes()
        assert hop_u.tobytes() == want_u.tobytes()
        assert hop_tile.tobytes() == want_u.astype(np.float32).tobytes()


@pytest.mark.parametrize("threshold", (0.0, 0.1))
def test_a_write_never_reuses_the_old_plan(fold, threshold):
    """``repoint`` drops every plan: after a write, scans and hops read
    the new rows — a grown memory, a shrunk one, and one of the same
    size with other rows — at every batch size seen before."""
    m_in, m_out = _memories(2 * CHUNK + 10, seed=1)
    chunk = ChunkConfig(CHUNK)
    solver = ColumnMemNN(m_in[:CHUNK + 5], m_out[:CHUNK + 5], chunk=chunk, dtype=np.float32)
    zero_skip = ZeroSkipConfig(threshold)
    questions = [_questions(m_in, nq, nq) for nq in (3, 1)]
    for u in questions:
        solver.output(u, zero_skip)
        solver.output(u.copy(), zero_skip, u_tile=u.astype(np.float32))
    other_in, other_out = _memories(CHUNK + 5, seed=2)
    for rows_in, rows_out in (
        (m_in, m_out), (m_in[:7], m_out[:7]), (other_in, other_out),
    ):  # fmt: skip
        # An engine re-points at its buffers' views: M_IN feature-major.
        solver.repoint(np.asfortranarray(rows_in), rows_out)
        fresh = ColumnMemNN(rows_in, rows_out, chunk=chunk, dtype=np.float32)
        for u in questions:
            got = solver.output(u, zero_skip)
            assert got.output.tobytes() == fresh.output(u, zero_skip).output.tobytes()
            hops = [u.copy(), u.copy()]
            tiles = [hop.astype(np.float32) for hop in hops]
            solver.output(hops[0], zero_skip, u_tile=tiles[0])
            fresh.output(hops[1], zero_skip, u_tile=tiles[1])
            assert hops[0].tobytes() == hops[1].tobytes()


class _Counted:
    """The library with its fold entry points counted."""

    def __init__(self, library, calls):
        self._library, self._calls = library, calls

    def __getattr__(self, name):
        entry = getattr(self._library, name)
        if name not in self._calls:
            return entry

        def counted(*args):
            self._calls[name] += 1
            return entry(*args)

        return counted


@requires_compiler
@pytest.mark.parametrize("threshold", (0.1, 0.0))
def test_a_resident_hop_is_one_compiled_call(monkeypatch, threshold):
    """A hop over a 9-tile resident memory is one ``repro_scan`` call:
    the score GEMMs (and at threshold 0 the weighted-sum GEMMs) are made
    in C, with no ``np.matmul``, ``repro_fold`` or ``repro_hop`` beside."""
    calls = {"repro_fold": 0, "repro_hop": 0, "repro_scan": 0, "matmul": 0}
    library = compiled_fold.kernels()
    monkeypatch.setattr(compiled_fold, "kernels", lambda: _Counted(library, calls))
    m_in, m_out = _memories(8192)
    solver = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(CHUNK), dtype=np.float32)
    u = _questions(m_in, 16, 0)
    u_tile = u.astype(np.float32)
    zero_skip = ZeroSkipConfig(threshold)
    solver.output(u, zero_skip, u_tile=u_tile)  # builds the plan and state
    matmul = np.matmul

    def counted_matmul(*args, **kwargs):
        calls["matmul"] += 1
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted_matmul)
    calls.update(repro_scan=0)
    solver.output(u, zero_skip, u_tile=u_tile)
    assert calls == {"repro_fold": 0, "repro_hop": 0, "repro_scan": 1, "matmul": 0}


@requires_compiler
@pytest.mark.parametrize("threshold", (0.1, 0.0))
def test_a_run_scan_hop_is_one_compiled_call(monkeypatch, threshold):
    """A hop over row runs — the top-k tier's probed clusters, packed
    into tiles that cross run ends — is one ``repro_scan`` call too, its
    per-run score products and threshold-0 gathers made in C."""
    calls = {"repro_fold": 0, "repro_hop": 0, "repro_scan": 0, "matmul": 0}
    library = compiled_fold.kernels()
    monkeypatch.setattr(compiled_fold, "kernels", lambda: _Counted(library, calls))
    m_in, m_out = _memories(8192)
    solver = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(CHUNK), dtype=np.float32)
    runs = np.array([[5, 900], [900, 901], [1500, 3100], [4000, 4001], [6000, 8192]])
    u = _questions(m_in, 16, 0)
    u_tile = u.astype(np.float32)
    zero_skip = ZeroSkipConfig(threshold)
    solver.output(u, zero_skip, runs=runs, u_tile=u_tile)  # builds the state
    matmul = np.matmul

    def counted_matmul(*args, **kwargs):
        calls["matmul"] += 1
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted_matmul)
    calls.update(repro_scan=0)
    hop = solver.output(u, zero_skip, runs=runs, u_tile=u_tile)
    assert calls == {"repro_fold": 0, "repro_hop": 0, "repro_scan": 1, "matmul": 0}
    assert hop.rows == int(np.diff(runs).sum())


def _ledger(pipeline):
    """The ledger but for timings: whether a lookahead fetch from disk
    was done when demanded (a prefetch hit, else late) is one too."""
    stats = pipeline.stats
    return (
        stats.ram_bytes, stats.disk_bytes, stats.prefetch_hits + stats.prefetch_late,
        stats.demand_fetches, stats.chunks_served, pipeline.resident_spans(),
        pipeline.cached_bytes,
    )  # fmt: skip


@pytest.mark.parametrize("prefetch_depth", (0, 2))
def test_a_cached_pipeline_charges_the_ledger_as_its_chunk_stream(
    tmp_path, fold, prefetch_depth
):
    """Scans behind a chunk pipeline whose resident tier holds every
    chunk run over the plan; mixed with random-access ``fetch``es (one
    of which evicts and so invalidates the plan) they leave the
    ``StoreStats`` (but for stall seconds) and the LRU order exactly
    where the same passes drawn through ``chunks()`` leave them, and
    the answers equal a resident solver's."""
    ns = 2 * CHUNK + 500
    m_in, m_out = _memories(ns, seed=3)
    store = MmapStore.save(tmp_path / "m", m_in, m_out)
    budget = ns * ED * 4 * 2  # every chunk fits, with no room to spare
    solver = ColumnMemNN(
        store=store, chunk=ChunkConfig(CHUNK), resident_bytes=budget,
        prefetch_depth=prefetch_depth,
    )  # fmt: skip
    reference = ChunkPrefetcher(
        store, chunk_size=CHUNK, resident_bytes=budget, prefetch_depth=prefetch_depth
    )
    resident = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(CHUNK), dtype=np.float32)
    pipeline = solver._pipeline
    steps = [
        "scan", "scan", ("fetch", (0, CHUNK)), "scan",
        ("fetch", (CHUNK, 2 * CHUNK)), "scan",
        ("fetch", (10, 20)),  # a new span: the coldest chunk is evicted
        "scan", "scan", ("fetch", (0, CHUNK)), "scan",
    ]  # fmt: skip
    zero_skip = ZeroSkipConfig(0.1)
    held = []
    for step in steps:
        if step == "scan":
            u = _questions(m_in, 2, len(held))
            hits = pipeline.stats.prefetch_hits
            got = solver.output(u, zero_skip).output
            assert got.tobytes() == resident.output(u, zero_skip).output.tobytes()
            list(reference.chunks())
            held.append(pipeline._held is not None)
            if held[-1] and prefetch_depth:
                # A pass of chunks already in RAM is all prefetch hits.
                assert pipeline.stats.prefetch_hits == hits + 3
        else:
            pipeline.fetch(step[1])
            reference.fetch(step[1])
        assert _ledger(pipeline) == _ledger(reference)
    solver.close()
    reference.close()
    store.close()
    # The first pass admitted the chunks; the plan ran from the second
    # until the eviction, the passes after it streamed (chunks() never
    # evicts to re-admit the evicted chunk), and the last fetch brought
    # it back, evicting the odd span instead.
    assert held == [False, True, True, True, False, False, True]


def test_an_eviction_drops_the_plans_cut_from_the_held_chunks(tmp_path):
    """A ``fetch`` that evicts frees the evicted chunk then and there:
    the plans cut from the held chunks go with them, so the pipeline
    never holds more than its budget between scans."""
    m_in, m_out = _memories(2 * CHUNK, seed=4)
    store = MmapStore.save(tmp_path / "m", m_in, m_out)
    solver = ColumnMemNN(
        store=store, chunk=ChunkConfig(CHUNK), resident_bytes=2 * CHUNK * ED * 4 * 2
    )
    pipeline = solver._pipeline
    for nq in (1, 2, 2):  # the first pass admits, the others run over plans
        solver.output(_questions(m_in, nq, nq), ZeroSkipConfig(0.1))
    assert pipeline._held is not None
    evicted = weakref.ref(pipeline.fetch((CHUNK, 2 * CHUNK))[0][1])
    pipeline.fetch((0, CHUNK))  # now the coldest is the other chunk
    pipeline.fetch((10, 20))  # a new span: evicts it
    assert (CHUNK, 2 * CHUNK) not in pipeline.resident_spans()
    assert evicted() is None
    solver.close()
    store.close()


@pytest.mark.parametrize("threshold", (0.0, 0.1))
def test_a_write_costs_the_plan_nothing(monkeypatch, fold, threshold):
    """An engine's resident kernel is bound to the append buffers and
    the stored-row span: a write inside their capacity moves the span's
    stop and leaves the plan as it is.  Told sentence by sentence up to
    the 64-row capacity, with 16-column tiles, the span crosses tile
    ends inside each buffer; at every size the one-call answer and the
    hop loop equal a fresh engine's bytes, and the plan is cut once per
    buffer allocation, not once per write."""
    monkeypatch.setattr("repro.core.engine._MIN_BUFFER_ROWS", 16)
    cuts = []
    cut = vars(ColumnMemNN)["_cut"]

    def counted(solver, *args, **kwargs):
        cuts.append(solver)
        return cut(solver, *args, **kwargs)

    monkeypatch.setattr(ColumnMemNN, "_cut", counted)
    network = MemNNConfig(
        embedding_dim=ED, num_sentences=64, vocab_size=60, max_words=6, hops=2
    )
    rng = np.random.default_rng(5)
    weights = EngineWeights.random(network, rng=rng, scale=0.5)
    story = rng.integers(1, 60, size=(64, 6))
    questions = rng.integers(1, 60, size=(3, 6))
    config = EngineConfig.mnnfast(16, threshold)
    engine = MnnFastEngine(network, weights, engine_config=config)
    allocations = []
    for rows in range(1, 65):
        engine.store_story(story[rows - 1])
        buffer = engine._buffers[0][0]
        if not allocations or buffer is not allocations[-1]:
            allocations.append(buffer)
        got = engine.answer(questions).logits
        hooked = engine.answer(questions, hop_hook=lambda hop, stats: None)
        fresh = MnnFastEngine(network, weights, engine_config=config)
        fresh.store_story(story[:rows])
        want = fresh.answer(questions)
        assert got.tobytes() == hooked.logits.tobytes() == want.logits.tobytes()
        assert hooked.hop_stats == want.hop_stats
        fresh.close()
    assert len(allocations) == 3  # capacities 16, 32 and 64
    solver = engine._solver_cache[0]
    assert [s for s in cuts if s is solver] == [solver] * len(allocations)
    engine.close()


@requires_compiler
@pytest.mark.parametrize("threshold", (0.0, 0.1))
def test_a_held_pass_follows_the_workspace_its_solver_grows(monkeypatch, threshold):
    """An engine's one-call answer takes its hops' ``(FoldState,
    ScanPlan)`` addresses once, when it builds the pass.  A score
    workspace grown by a scan that is not the pass's — the tile generator
    at a larger batch, a question block that is not C-ordered — is
    written into the resident plan the pass holds, and a buffer
    re-allocation drops the pass: every answer equals a fresh engine's
    bytes."""
    monkeypatch.setattr("repro.core.engine._MIN_BUFFER_ROWS", 16)
    network = MemNNConfig(
        embedding_dim=ED, num_sentences=64, vocab_size=60, max_words=6, hops=2
    )
    rng = np.random.default_rng(11)
    weights = EngineWeights.random(network, rng=rng, scale=0.5)
    story = rng.integers(1, 60, size=(20, 6))
    questions = rng.integers(1, 60, size=(4, 6))
    config = EngineConfig.mnnfast(16, threshold)

    def fresh_logits():
        fresh = MnnFastEngine(network, weights, engine_config=config)
        fresh.store_story(story)
        logits = fresh.answer(questions).logits
        fresh.close()
        return logits.tobytes()

    want = fresh_logits()
    engine = MnnFastEngine(network, weights, engine_config=config)
    engine.store_story(story)
    assert engine.answer(questions).logits.tobytes() == want
    held = engine._passes[len(questions)]
    solver = engine._solver(0)
    plan = solver._resident_plan[3]
    m_in = solver.m_in
    u = np.asarray(m_in[rng.integers(0, len(m_in), size=16)], np.float32)
    grown = (
        lambda: list(solver.scored_tiles(u)),
        lambda: solver.output(np.asfortranarray(np.vstack([u, u]))),
    )
    for grow in grown:
        workspace = solver._workspace[0]
        grow()
        assert solver._workspace[0] is not workspace  # grown, the old one freed
        assert plan.scores == solver._workspace[2]
        assert engine._passes[len(questions)] is held
        assert engine.answer(questions).logits.tobytes() == want
    engine._reserve(engine._capacity + 1)
    assert engine._passes == {}
    assert engine.answer(questions).logits.tobytes() == want
    engine.close()
