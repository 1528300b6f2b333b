"""A gated answer is one C call.

With early exit on, a float32 answer on the compiled fold with no hop
hook and no cache is one ``repro_pass`` call: after each hop ``k >=
min_hops`` with hops left, the C pass projects ``u + remaining * o``
through ``W``, retires the questions whose margin reaches the gate and
scans the survivors alone (DESIGN.md §10, "One call per answer").  A
top-k tier below its crossover answers through its exact solver in the
same call.  These tests hold every such answer to the hop loop's bytes —
the same engine answering with a no-op hop hook — and to its records.
"""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    compiled_fold,
)
from repro.index import TopKMemNN

from .test_out_of_core_pass import _ledger

pytestmark = pytest.mark.skipif(
    compiled_fold.fold_backend() != "c", reason=compiled_fold.fold_backend()
)

#: The largest legal threshold: the gate asks for a margin of 2**-53, so
#: every question exits at the first check.
ALL_EXIT = float(np.nextafter(1.0, 0.0))
THRESHOLDS = (0.05, 0.2, 0.99875, ALL_EXIT)
BATCHES = (0, 1, 2, 3, 4, 5, 8, 17)
ROWS, ED, CHUNK = 53, 16, 16


def _problem(hops, tying, seed=3):
    """Random tables and a wide ``W`` (scale 10): margins spread, so a
    threshold of 0.05 or 0.2 retires some questions at each check and
    keeps others to full depth."""
    rng = np.random.default_rng(seed)
    network = MemNNConfig(
        embedding_dim=ED, num_sentences=64, vocab_size=300, max_words=6, hops=hops
    )
    tables = [rng.normal(0.0, 0.1, (300, ED)) for _ in range(hops + 1)]
    answer = rng.normal(0.0, 10.0, (300, ED))
    weights = (
        EngineWeights(tables[0], tables[1], answer)
        if tying == "layer-wise"
        else EngineWeights.adjacent(tables[:-1] + [answer])
    )
    story = rng.integers(1, 300, size=(ROWS, 6))
    questions = rng.integers(1, 300, size=(max(BATCHES), 6))
    return network, weights, story, questions


def _config(threshold, min_hops, skip, topk, store):
    """Resident, or out of core with a tier that holds every chunk."""
    if store == "resident":
        config = EngineConfig.mnnfast(threshold=skip)
    else:
        config = EngineConfig.out_of_core(
            resident_bytes=ROWS * ED * 4 * 2, chunk_size=CHUNK, threshold=skip
        )
    if topk:
        config = config.with_topk(nprobe=2)  # below min_rows: the exact scan
    return config.with_early_exit(threshold, min_hops=min_hops)


def _tiers(result):
    tiers = result.tier_stats()
    index = [
        s and dataclasses.replace(s, build_seconds=0.0, probe_seconds=0.0)
        for s in tiers["index"]
    ]
    return tiers["shards"], [_ledger(s) for s in tiers["store"]], index


def _assert_same_answer(got, want):
    assert got.logits.tobytes() == want.logits.tobytes()
    assert got.answer_ids.tobytes() == want.answer_ids.tobytes()
    assert got.response.tobytes() == want.response.tobytes()
    trace, want_trace = got.hop_trace, want.hop_trace
    assert trace.hops_run.dtype == want_trace.hops_run.dtype
    assert trace.hops_run.tobytes() == want_trace.hops_run.tobytes()
    assert trace.exit_reason == want_trace.exit_reason
    # NaN marks a question retired before the check, byte for byte.
    assert [c.tobytes() for c in trace.confidence] == [
        c.tobytes() for c in want_trace.confidence
    ]
    assert got.stats == want.stats
    assert got.hop_stats == want.hop_stats
    assert _tiers(got) == _tiers(want)


def _column(engine, pair):
    """The ``ColumnMemNN`` that scans ``pair``'s rows."""
    solver = engine._solver(pair)
    return solver.exact_solver() if type(solver) is TopKMemNN else solver


def _twins(network, weights, story, config):
    """Two engines over the same rows, each out-of-core tier's chunks
    admitted by one pass (a cold answer whose questions all exit at the
    first check would leave a later pair's tier empty)."""
    engines = [MnnFastEngine(network, weights, engine_config=config) for _ in range(2)]
    for engine in engines:
        engine.store_story(story)
        for pair in range(engine._num_pairs):
            pipeline = _column(engine, pair)._pipeline
            if pipeline is not None:
                list(pipeline.chunks())
    return engines


@pytest.mark.parametrize("hops", (2, 3))
@pytest.mark.parametrize("min_hops", (1, 2))
@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_a_gated_answer_equals_the_hop_loop(threshold, min_hops, hops):
    """Every batch size, both tyings, zero-skip 0 and 0.1, top-k off and
    below its crossover, resident and all-hit out of core: the one-call
    answer is the hooked answer's bytes and records, and the two
    engines' chunk tiers stay in the same LRU order."""
    depths = Counter()
    for tying, skip, topk, store in itertools.product(
        ("layer-wise", "adjacent"), (0.0, 0.1), (False, True), ("resident", "mmap")
    ):
        network, weights, story, questions = _problem(hops, tying)
        config = _config(threshold, min_hops, skip, topk, store)
        plain, hooked = _twins(network, weights, story, config)
        for nq in BATCHES:
            got = plain.answer(questions[:nq])
            assert plain._passes[nq]  # held after the answer: it was one call
            want = hooked.answer(questions[:nq], hop_hook=lambda hop, stats: None)
            _assert_same_answer(got, want)
            depths.update(got.hop_trace.hops_run.tolist())
        for pair in range(plain._num_pairs):
            if topk:
                assert plain._solver(pair).index is None
            if store == "mmap":
                plain_tier, hooked_tier = (
                    _column(e, pair)._pipeline for e in (plain, hooked)
                )
                assert plain_tier.resident_spans() == hooked_tier.resident_spans()
        plain.close()
        hooked.close()
    if min_hops == hops:
        assert set(depths) == {hops}  # no check ran
    elif threshold in (0.05, 0.2):
        assert len(depths) > 1 and hops in depths  # some exit, some do not
    else:
        assert set(depths) == {min_hops}  # every question at the first check


@pytest.mark.parametrize("tying", ("layer-wise", "adjacent"))
def test_a_nan_answer_row_exits_no_question(tying):
    """A NaN row of ``W``: every margin is NaN, which never reaches the
    gate, so every question runs every hop and takes that row's answer
    (``np.argmax``'s first NaN), as in the hop loop — or answer 0, where
    the state itself went NaN (adjacent tying: ``W`` is the last hop's
    ``C``)."""
    network, weights, story, questions = _problem(3, tying)
    answer = weights.answer_weight.copy()
    answer[7] = np.nan
    if tying == "layer-wise":
        weights = EngineWeights(weights.embedding_a, weights.embedding_c, answer)
    else:
        weights = EngineWeights.adjacent([*weights.hop_tables[:-1], answer])
    config = _config(0.2, 1, 0.1, False, "resident")
    plain, hooked = _twins(network, weights, story, config)
    for nq in BATCHES:
        got = plain.answer(questions[:nq])
        assert plain._passes[nq]
        want = hooked.answer(questions[:nq], hop_hook=lambda hop, stats: None)
        _assert_same_answer(got, want)
        assert (got.hop_trace.hops_run == 3).all()
        assert np.isnan(np.stack(got.hop_trace.confidence)).all()
        lost = np.isnan(got.response).any(axis=1)
        assert (got.answer_ids == np.where(lost, 0, 7)).all()


def test_a_write_past_min_rows_drops_the_pass(monkeypatch):
    """Below ``min_rows`` the top-k tier's answers are one call; a write
    that takes the memory past it drops the pass with the solvers, and
    the next answers run the indexed hop loop: one ``TopKMemNN.output``
    per hop, the pass never held again."""
    network, weights, story, questions = _problem(2, "layer-wise")
    config = EngineConfig.mnnfast().with_topk(nprobe=2, nlist=4, min_rows=ROWS + 4)
    config = config.with_early_exit(0.2)
    engine = MnnFastEngine(network, weights, engine_config=config)
    engine.store_story(story)
    calls = Counter()
    original = vars(TopKMemNN)["output"]

    def counted(*args, **kwargs):
        calls["output"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(TopKMemNN, "output", counted)
    engine.answer(questions[:4])
    assert engine._passes[4] and not calls
    engine.store_story(story[:8])
    assert engine._passes == {}
    for _ in range(2):
        result = engine.answer(questions[:4])
        assert engine._passes[4] is False
        assert all(record.used_index for record in result.tier_stats()["index"])
    hooked = engine.answer(questions[:4], hop_hook=lambda hop, stats: None)
    _assert_same_answer(result, hooked)
    assert calls["output"] == 2 * len(result.hop_stats) + len(hooked.hop_stats)
    engine.close()
