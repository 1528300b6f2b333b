"""An out-of-core answer whose chunk tier holds every chunk is one C call.

Behind a chunk pipeline, ``MnnFastEngine.answer`` runs the hop loop
until the resident tier holds every chunk (the cold answer admits
them); from then on an answer is one ``repro_pass`` call over the plans
cut from the held chunks, and charges each pipeline's ledger and LRU as
the hop loop's scans of those chunks do (DESIGN.md §11, "The held
pass").  These tests hold every such answer to the hop loop's — the
same engine twin answering with a hop hook — through evictions,
re-admissions, a grown workspace and ``close()``.
"""

import dataclasses
import weakref

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    compiled_fold,
)

from .test_dialogue_writes import _weights
from .test_differential_paths import _random_problem

requires_compiler = pytest.mark.skipif(
    compiled_fold.fold_backend() != "c", reason=compiled_fold.fold_backend()
)

CHUNK = 16


def _config(story, prefetch_depth=0, threshold=0.1):
    """Chunks of 16 rows and a tier that holds every chunk of ``story``
    with no byte to spare: a new span evicts."""
    footprint = len(story) * 16 * 4 * 2  # _random_problem's ed 16, float32
    return EngineConfig.out_of_core(
        resident_bytes=footprint, prefetch_depth=prefetch_depth,
        chunk_size=CHUNK, threshold=threshold,
    )  # fmt: skip


def _ledger(stats):
    """A ``StoreStats`` but for timings: stall seconds, and whether a
    lookahead fetch from disk was done when demanded (hit, else late)."""
    if stats is None:
        return None
    hits = stats.prefetch_hits + stats.prefetch_late
    return dataclasses.replace(
        stats, stall_seconds=0.0, prefetch_hits=hits, prefetch_late=0
    )


def _tier(engine):
    """Per pair: the pipeline's LRU order and bytes."""
    return [
        (solver._pipeline.resident_spans(), solver._pipeline.cached_bytes)
        for _, solver in sorted(engine._solver_cache.items())
    ]


def _assert_same_answer(got, want):
    assert got.logits.tobytes() == want.logits.tobytes()
    assert got.answer_ids.tobytes() == want.answer_ids.tobytes()
    assert got.response.tobytes() == want.response.tobytes()
    assert got.stats == want.stats
    assert got.hop_stats == want.hop_stats
    got_store, want_store = got.tier_stats()["store"], want.tier_stats()["store"]
    assert [_ledger(s) for s in got_store] == [_ledger(s) for s in want_store]
    assert None not in got_store


@requires_compiler
@pytest.mark.parametrize("threshold", (0.0, 0.1))
@pytest.mark.parametrize("prefetch_depth", (0, 2))
@pytest.mark.parametrize("tying", ("layer-wise", "adjacent"))
def test_an_all_hit_answer_equals_the_hop_loop(tying, prefetch_depth, threshold):
    """Two engines over the same rows take the same steps: one answers
    plainly, the other with a hop hook (the hop loop).  Their answers,
    records and per-hop ledgers are equal after every step, and so are
    their tiers' LRU order and bytes: the cold answer, the all-hit
    answers at two batch sizes, a ``fetch`` that evicts (the held pass
    is dropped and the next answers stream), the ``fetch`` that brings
    the chunk back, and ``close()``.  Only the all-hit answers of the
    plain engine run as one call."""
    config, weights, story, questions = _random_problem(7)
    weights = _weights(tying, config, weights, 7)
    engine_config = _config(story, prefetch_depth, threshold)
    plain, hooked = (
        MnnFastEngine(config, weights, engine_config=engine_config) for _ in range(2)
    )
    for engine in (plain, hooked):
        engine.store_story(story)
    steps = [
        4, 4, 1, 4, ("fetch", (0, CHUNK)), 4,
        ("fetch", (3, 5)),  # a new span: the coldest chunk is evicted
        4, 1, ("fetch", (CHUNK, 2 * CHUNK)), ("fetch", (0, CHUNK)), 4, 1,
        "close", 4, 4,
    ]  # fmt: skip
    one_call = []
    for step in steps:
        if step == "close":
            for engine in (plain, hooked):
                engine.close()
            continue
        if isinstance(step, tuple):
            for engine in (plain, hooked):
                engine._solver(0)._pipeline.fetch(step[1])
        else:
            batch = questions[:step]
            held = plain._answer_pass(step)
            got = plain.answer(batch)
            want = hooked.answer(batch, hop_hook=lambda hop, stats: None)
            _assert_same_answer(got, want)
            one_call.append(bool(held) and plain._passes.get(step) is held)
        assert _tier(plain) == _tier(hooked)
    plain.close()
    hooked.close()
    # The cold answer admits; then every answer is one call, a new batch
    # size building its own pass, until the eviction: the next answer at
    # each size finds it, drops its pass and runs the hop loop, which
    # streams (chunks() never evicts to re-admit).  Once the fetches
    # brought the chunk back, each size builds a pass again; after
    # close() the first answer admits again.
    assert one_call == [
        False, True, True, True, True, False, False, True, True, False, True
    ]  # fmt: skip


@requires_compiler
def test_a_held_pass_holds_no_evicted_chunk():
    """An eviction frees the evicted chunk then and there, though an
    engine holds a one-call pass over the plans cut from it; ``close()``
    frees the held pass and every chunk."""
    config, weights, story, questions = _random_problem(8)
    engine = MnnFastEngine(config, weights, engine_config=_config(story))
    engine.store_story(story)
    for _ in range(2):  # the first answer admits, the second builds the pass
        engine.answer(questions)
    assert engine._passes[len(questions)]
    pipeline = engine._solver(0)._pipeline
    chunks = [weakref.ref(chunk[1]) for chunk in pipeline.resident_pass(False)[0]]
    evicted = chunks[0]  # the coldest after the answers' passes
    pipeline.fetch((3, 5))
    assert evicted() is None
    want = engine.answer(questions, hop_hook=lambda hop, stats: None).logits
    assert engine.answer(questions).logits.tobytes() == want.tobytes()
    assert len(questions) not in engine._passes  # found and dropped
    del pipeline
    engine.close()
    assert engine._passes == {}
    assert [chunk() for chunk in chunks] == [None] * len(chunks)


@requires_compiler
@pytest.mark.parametrize("threshold", (0.0, 0.1))
def test_a_held_chunk_pass_follows_the_workspace_its_solver_grows(threshold):
    """The out-of-core twin of ``tests/test_tile_plan.py::
    test_a_held_pass_follows_the_workspace_its_solver_grows``: a score
    workspace grown by a scan that is not the pass's — the tile generator
    at a larger batch, a question block that is not C-ordered — is
    written into the plan cut from the held chunks, the plan the pass
    holds the address of; every answer equals a fresh engine's bytes."""
    network = MemNNConfig(
        embedding_dim=48, num_sentences=64, vocab_size=60, max_words=6, hops=2
    )
    rng = np.random.default_rng(12)
    weights = EngineWeights.random(network, rng=rng, scale=0.5)
    story = rng.integers(1, 60, size=(40, 6))
    questions = rng.integers(1, 60, size=(4, 6))
    config = EngineConfig.out_of_core(chunk_size=CHUNK, threshold=threshold)

    def fresh_logits():
        fresh = MnnFastEngine(network, weights, engine_config=config)
        fresh.store_story(story)
        logits = fresh.answer(questions).logits
        fresh.close()
        return logits.tobytes()

    want = fresh_logits()
    engine = MnnFastEngine(network, weights, engine_config=config)
    engine.store_story(story)
    for _ in range(2):  # the first answer admits, the second builds the pass
        assert engine.answer(questions).logits.tobytes() == want
    held = engine._passes[len(questions)]
    solver = engine._solver(0)
    plan = solver._pipeline.resident_pass(False)[1]["plan"][3]
    u = np.asarray(solver.store.m_in[rng.integers(0, 40, size=16)], np.float32)
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
    engine.close()
