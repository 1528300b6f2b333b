"""How a solver receives its memory and its questions.

Every solver takes its rows through ``repro.store.resident.memory_store``
(arrays or a store, never both, never neither) and its question batch
through ``repro.store.base.check_questions``; ``BaselineMemNN`` keeps
its own row intake but shares the question check, and the IVF probe
shares it in float64.  Each refuses the same inputs with the same
message, so a private copy of either rule cannot drift back in.

Every solver the engine holds also takes one hop form, ``output(u,
zero_skip, u_tile=...)``: it ends the hop ``u += o`` in place and
returns one record, whose ``stats`` and ``tier_stats()`` are the public
``InferenceResult``'s (DESIGN.md §10, "One crossing per hop").

A process-backed sharded engine hands its solver resident rows and the
solver spills them itself (DESIGN.md §10, "Spill-on-demand"): its
answers equal the serial sharded engine's bitwise, and neither a write
nor ``close()`` leaves a spill directory or a pool worker behind.
"""

import multiprocessing
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    BaselineMemNN,
    ChunkConfig,
    ColumnMemNN,
    EngineConfig,
    ExecutionConfig,
    MnnFastEngine,
    ShardedMemNN,
    ZeroSkipConfig,
    compiled_fold,
)
from repro.core.config import TopKConfig
from repro.index.ivf import IVFIndex
from repro.index.topk import TopKMemNN
from repro.store import MmapStore, ResidentStore

from .test_core_multicore import _problem

NS, ED = 40, 6

SOLVERS = {
    "column": ColumnMemNN,
    "sharded": lambda **kw: ShardedMemNN(num_shards=2, **kw),
    "fused": lambda **kw: ShardedMemNN(
        num_shards=2, execution=ExecutionConfig(fused=True), **kw
    ),
    # min_rows=0: every pass probes, so the tier checks its own batch.
    "topk": lambda **kw: TopKMemNN(
        config=TopKConfig(nprobe=1, nlist=4, min_rows=0), **kw
    ),
    "baseline": BaselineMemNN,
}

BAD_QUESTIONS = {
    "wrong width": (3, ED + 1),
    "3-D": (3, ED, ED),
}


def _memories():
    rng = np.random.default_rng(0)
    return rng.normal(size=(NS, ED)), rng.normal(size=(NS, ED))


def _refusal(call) -> str:
    with pytest.raises(ValueError) as error:
        call()
    return str(error.value)


@pytest.mark.parametrize("name", SOLVERS)
def test_every_solver_refuses_the_same_inputs_with_the_same_message(name):
    make = SOLVERS[name]
    m_in, m_out = _memories()
    if name != "baseline":  # it takes arrays only
        store = ResidentStore(m_in, m_out)
        assert (
            _refusal(lambda: make(m_in=m_in, m_out=m_out, store=store))
            == "pass either (m_in, m_out) or store=, not both"
        )
        assert (
            _refusal(lambda: make())
            == "memories required: pass (m_in, m_out) or store="
        )
    solver = make(m_in=m_in, m_out=m_out)
    for shape in BAD_QUESTIONS.values():
        assert (
            _refusal(lambda: solver.output(np.ones(shape)))
            == f"questions must be (nq, {ED}), got {shape}"
        )


@pytest.mark.parametrize("case", BAD_QUESTIONS)
def test_the_ivf_probe_refuses_the_same_question_batches(case):
    index = IVFIndex.build(ResidentStore(*_memories()), nlist=4)
    shape = BAD_QUESTIONS[case]
    assert (
        _refusal(lambda: index.probe(np.ones(shape), 2))
        == f"questions must be (nq, {ED}), got {shape}"
    )


def _topk(**config):
    return lambda **kw: TopKMemNN(
        config=TopKConfig(nprobe=1, nlist=4, **config), chunk=ChunkConfig(16), **kw
    )


#: One cell per kind of hop the engine can hold; ``store`` cells read
#: the rows from an ``MmapStore`` through a chunk pipeline.
HOPS = {
    "resident column": (False, lambda **kw: ColumnMemNN(chunk=ChunkConfig(16), **kw)),
    # The first pass streams and admits every chunk; the second runs
    # over the plan cut from the resident tier.
    "pipeline column": (
        True,
        lambda **kw: ColumnMemNN(chunk=ChunkConfig(16), resident_bytes=1 << 20, **kw),
    ),
    "sharded serial": (False, lambda **kw: ShardedMemNN(num_shards=3, **kw)),
    "sharded mmap": (True, lambda **kw: ShardedMemNN(num_shards=3, **kw)),
    "baseline": (False, BaselineMemNN),
    "topk indexed": (False, _topk(min_rows=0)),
    "topk below min_rows": (False, _topk()),
    "topk recall": (False, _topk(min_rows=0, measure_recall=True)),
}


def _untimed(tiers):
    index, store = tiers["index"], tiers["store"]
    if index is not None:
        index = replace(index, build_seconds=0.0, probe_seconds=0.0)
    if store is not None:
        store = replace(store, stall_seconds=0.0)
    return {**tiers, "index": index, "store": store}


@pytest.mark.parametrize("fold", ("compiled", "numpy"))
@pytest.mark.parametrize("cell", HOPS)
def test_a_hop_is_the_public_output_then_the_recurrence(cell, fold, tmp_path, request):
    """Twice over two twin solvers: the hop form leaves ``u`` and
    ``u_tile`` byte-equal to ``u + output(u).output`` and its float32
    narrowing, and its record reads the public result's ``stats`` and
    ``tier_stats()`` but for timings."""
    if fold == "numpy":
        request.getfixturevalue("numpy_fold")
    elif compiled_fold.fold_backend() != "c":
        pytest.skip(compiled_fold.fold_backend())
    stored, make = HOPS[cell]
    m_in, m_out = (m.astype(np.float32) for m in _memories())
    if stored:
        stores = [MmapStore.save(tmp_path / name, m_in, m_out) for name in "ab"]
        public, hop = (make(store=store) for store in stores)
    else:
        stores = []
        public, hop = (make(m_in=m_in, m_out=m_out, dtype=np.float32) for _ in "ab")
    zero_skip = ZeroSkipConfig(0.1)
    rng = np.random.default_rng(1)
    for _ in range(2):
        u = m_in[rng.integers(0, NS, size=3)] + rng.normal(0.0, 0.1, (3, ED))
        want = public.output(u, zero_skip)
        hop_u = u.copy()
        hop_tile = hop_u.astype(np.float32)
        record = hop.output(hop_u, zero_skip, u_tile=hop_tile)
        assert record.output.tobytes() == want.output.tobytes()
        assert hop_u.tobytes() == (u + want.output).tobytes()
        assert hop_tile.tobytes() == (u + want.output).astype(np.float32).tobytes()
        assert record.stats == want.stats
        assert _untimed(record.tier_stats()) == _untimed(want.tier_stats())
    for closing in (public, hop, *stores):
        getattr(closing, "close", lambda: None)()


def _spills(root: Path) -> list[Path]:
    return [*root.glob("repro-shard-spill-*"), *root.glob("repro-store-*")]


@pytest.mark.process_pool
def test_a_process_engine_spills_in_its_solver_and_leaves_nothing_behind(
    tmp_path, monkeypatch
):
    # Every temp directory this test makes lands under tmp_path.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    config, weights, story, questions = _problem()
    serial = MnnFastEngine(config, weights, EngineConfig.sharded(2))
    process = MnnFastEngine(
        config,
        weights,
        EngineConfig.sharded(2).with_execution(backend="process", num_workers=2),
    )
    try:
        before = set(multiprocessing.active_children())
        for turn in (story[:30], story[30:]):
            serial.store_story(turn)
            process.store_story(turn)
            assert not _spills(tmp_path)
            want = serial.answer(questions).logits
            assert process.answer(questions).logits.tobytes() == want.tobytes()
            # The solver spilled; the engine did not.
            (spill,) = _spills(tmp_path)
            assert spill.name.startswith("repro-shard-spill-")
            workers = set(multiprocessing.active_children()) - before
            assert workers
        process.store_story(story[:1])  # a write drops the solver
        assert not _spills(tmp_path)
        assert not workers & set(multiprocessing.active_children())
        process.answer(questions)
        workers = set(multiprocessing.active_children()) - before
        process.close()
        assert not _spills(tmp_path)
        assert not workers & set(multiprocessing.active_children())
    finally:
        serial.close()
        process.close()
