"""What an answer hands back, and where a traced run sees it happen.

Every solver the engine holds ends its own hop in place and returns one
record (DESIGN.md §10, "One crossing per hop"); ``MnnFastEngine.answer``
builds its records — ``stats``, ``hop_stats``, the tier lists,
``hop_trace`` — from them when they are first read.  So an earlier
answer must not change when the same engine answers and writes again
before anyone reads it.  Then the span boundaries perfbench patches
(``spans.py`` wraps ``vars(cls)[attr]``) must still be crossed once per
hop and once per answer, on every tier: one ``output`` call on the
solver's class per hop.
"""

from collections import Counter

import pytest

from repro.core import (
    ColumnMemNN,
    EngineConfig,
    MnnFastEngine,
    ShardedMemNN,
    compiled_fold,
)
from repro.index import TopKMemNN

from .test_dialogue_writes import _weights
from .test_differential_paths import _random_problem

CONFIGS = {
    "mnnfast": EngineConfig.mnnfast(),
    "zero_skip_off": EngineConfig.mnnfast(threshold=0.0),
    "several_tiles": EngineConfig.mnnfast(chunk_size=4),
    "gated": EngineConfig.mnnfast().with_early_exit(0.99875),
    "sharded": EngineConfig.sharded(2, chunk_size=4, threshold=0.1),
}


def _trace_fields(trace):
    return (
        trace.threshold,
        trace.hops_configured,
        trace.hops_run.tobytes(),
        trace.exit_reason,
        [c.tobytes() for c in trace.confidence],
    )


@pytest.mark.parametrize("fold", ("compiled", "numpy"))
@pytest.mark.parametrize("tying", ("layer-wise", "adjacent"))
@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_an_earlier_answer_is_unchanged_by_later_calls(key, tying, fold, request):
    """Every record of an answer is read only after the engine answered
    other batches, stored, cleared and stored again; each equals what a
    fresh engine over the same rows answers."""
    if fold == "numpy":
        request.getfixturevalue("numpy_fold")
    elif compiled_fold.fold_backend() != "c":
        pytest.skip(compiled_fold.fold_backend())
    config, weights, story, questions = _random_problem(4)
    weights = _weights(tying, config, weights, 4)

    def engine():
        return MnnFastEngine(config, weights, engine_config=CONFIGS[key])

    busy = engine()
    busy.store_story(story[:9])
    earlier = busy.answer(questions)
    busy.answer(questions[::-1])
    busy.store_story(story[9:12])
    busy.answer(questions[:1])
    busy.clear_memories()
    busy.store_story(story[20:26])
    busy.answer(questions)
    busy.close()

    fresh = engine()
    fresh.store_story(story[:9])
    want = fresh.answer(questions)
    fresh.close()
    assert earlier.logits.tobytes() == want.logits.tobytes()
    assert earlier.response.tobytes() == want.response.tobytes()
    assert earlier.stats == want.stats
    assert earlier.hop_stats == want.hop_stats
    assert _trace_fields(earlier.hop_trace) == _trace_fields(want.hop_trace)
    assert earlier.tier_stats()["shards"] == want.tier_stats()["shards"]


@pytest.mark.parametrize("tying", ("layer-wise", "adjacent"))
def test_a_dialogue_crosses_the_traced_boundaries(tying, monkeypatch):
    """A bAbI-shaped dialogue on ``EngineConfig.mnnfast()``: with the
    class attributes perfbench wraps replaced by counters, the writes go
    through ``store_story`` and ``clear_memories`` on the class.  An
    answer on the compiled fold is one ``repro_pass`` call, crossing
    neither ``embed_question`` nor ``ColumnMemNN.output``; an answer with
    a hop hook runs the hop loop, where every hop is one
    ``ColumnMemNN.output`` call and every answer one ``embed_question``
    call (as every answer is on the NumPy fold)."""
    counts = Counter()
    for owner, attr in (
        (ColumnMemNN, "output"),
        (MnnFastEngine, "embed_question"),
        (MnnFastEngine, "store_story"),
        (MnnFastEngine, "clear_memories"),
    ):
        original = vars(owner)[attr]

        def counted(*args, _original=original, _attr=attr, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    config, weights, story, questions = _random_problem(5)
    engine = MnnFastEngine(
        config, _weights(tying, config, weights, 5), EngineConfig.mnnfast()
    )
    answers = 0
    for turn in range(2):
        engine.clear_memories()
        for index, sentence in enumerate(story[turn * 7 : turn * 7 + 7]):
            engine.store_story(sentence)
            if index % 2:
                question = questions[turn : turn + 1]
                one_call = engine.answer(question)
                hooked = engine.answer(question, hop_hook=lambda hop, stats: None)
                assert one_call.logits.tobytes() == hooked.logits.tobytes()
                answers += 1
    engine.close()
    looped = answers if compiled_fold.fold_backend() != "c" else 0
    assert counts["output"] == (answers + looped) * config.hops
    assert counts["embed_question"] == answers + looped
    assert counts["store_story"] == 14
    assert counts["clear_memories"] == 2 + 1  # the constructor clears once


def _count_outputs(monkeypatch, counts):
    """Count the ``output`` calls on every class perfbench wraps one of."""
    for owner in (ColumnMemNN, ShardedMemNN, TopKMemNN):
        original = vars(owner)["output"]

        def counted(*args, _original=original, _owner=owner, **kwargs):
            counts[_owner] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, "output", counted)


#: Per tier: the config and the ``output`` calls one engine hop makes,
#: per class.  A top-k hop's exact kernel is a ``ColumnMemNN`` (over the
#: cluster-major copy, or every row below ``min_rows``).  The out-of-core
#: tier's 1 KiB budget is below the memory's footprint (53 rows of 16
#: float32 columns, twice): every pass streams.
TIERS = {
    "out_of_core": (EngineConfig.out_of_core(resident_bytes=1 << 10), {ColumnMemNN: 1}),
    "sharded": (EngineConfig.sharded(2, chunk_size=4), {ShardedMemNN: 1}),
    "topk_indexed": (
        EngineConfig.mnnfast().with_topk(nprobe=2, nlist=4, min_rows=0),
        {TopKMemNN: 1, ColumnMemNN: 1},
    ),
    "topk_below_min_rows": (
        EngineConfig.mnnfast().with_topk(nprobe=2).with_early_exit(0.99875),
        {TopKMemNN: 1, ColumnMemNN: 1},
    ),
}


def _traced_hops(config):
    """Three answers of one engine on ``config``: the hops each ran."""
    problem, weights, story, questions = _random_problem(6)
    engine = MnnFastEngine(problem, weights, engine_config=config)
    engine.store_story(story)
    hops = [
        len(engine.answer(batch).hop_stats)
        for batch in (questions, questions[:1], questions[1:])
    ]
    engine.close()
    return hops


@pytest.mark.parametrize("key", sorted(TIERS))
def test_every_tier_crosses_one_traced_output_per_hop(key, monkeypatch):
    """Out of core with a budget below the memory's footprint (the
    hops run through a streaming chunk pipeline), sharded and indexed
    top-k: every engine hop is one ``output`` call on the class perfbench
    wraps for that tier, so ``column.output`` / ``sharded.output`` /
    ``topk.output`` count hops.  Out of core with a tier that holds every
    chunk, only the cold answer, which admits them, crosses ``output``;
    on the compiled fold every later answer is one ``repro_pass`` call
    and crosses none, as a resident engine's does
    (:func:`test_a_dialogue_crosses_the_traced_boundaries`).  Top-k below
    its crossover, gated: on the compiled fold every answer is one
    ``repro_pass`` call through the tier's exact solver and crosses no
    ``output``; on the NumPy fold every hop crosses both."""
    config, per_hop = TIERS[key]
    counts = Counter()
    _count_outputs(monkeypatch, counts)
    hops = sum(_traced_hops(config))
    if key == "topk_below_min_rows" and compiled_fold.fold_backend() == "c":
        per_hop = {}
    assert counts == {owner: calls * hops for owner, calls in per_hop.items()}
    if key == "out_of_core":
        counts.clear()
        hops = _traced_hops(EngineConfig.out_of_core())
        looped = hops[0] if compiled_fold.fold_backend() == "c" else sum(hops)
        assert counts == {ColumnMemNN: looped}
