"""The dialogue shape: writes interleaved with reads, as a bAbI story is
told (``story_turns``), on every engine path.

A random sequence of ``clear_memories`` / ``store_story`` (1..k rows) /
``answer`` calls must answer, at every read, exactly — bitwise — what a
fresh engine answers over the same rows stored in one call.  The engine
keeps a plain resident column kernel across writes (re-pointed at the
new rows, its fold states reused) and rebuilds every other solver; the
property holds for both, under layer-wise and adjacent tying, with the
compiled fold and with the NumPy one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ColumnMemNN, EngineWeights, MnnFastEngine, compiled_fold

from .test_differential_paths import _full_grid, _long_story, _random_problem

#: The grid cells whose solver survives a write: a resident column
#: kernel with no chunk pipeline.  Every other cell — baseline, sharded
#: (serial, fused, process), out-of-core (spill + chunk LRU), top-k —
#: builds a new solver after each write.
SURVIVES_WRITES = {"column", "zero_skip_off"}

GRID = _full_grid()

#: One op: "clear", "answer", or a count of sentences to store.
OPS = st.lists(
    st.one_of(st.just("clear"), st.just("answer"), st.integers(1, 40)),
    min_size=1,
    max_size=8,
)


def _weights(tying, config, weights, seed):
    if tying == "layer-wise":
        return weights
    rng = np.random.default_rng(seed + 100)
    return EngineWeights.adjacent(
        [
            rng.normal(0.0, 0.1, (config.vocab_size, config.embedding_dim))
            for _ in range(config.hops + 1)
        ]
    )


def _run_dialogue(key, tying, ops):
    config, weights, story, questions = _random_problem(0)
    story = _long_story(story)  # 159 sentences
    weights = _weights(tying, config, weights, 0)
    engine_config = GRID[key]

    def fresh(rows):
        reference = MnnFastEngine(config, weights, engine_config=engine_config)
        reference.store_story(rows)
        return reference

    engine = MnnFastEngine(config, weights, engine_config=engine_config)
    stored, cursor = [], 0
    try:
        for op in ops:
            before = dict(engine._solver_cache)
            views = [m for pair in engine._memories for m in pair]
            if op == "answer":
                if not stored:
                    continue
                got = engine.answer(questions).logits
                reference = fresh(story[stored])
                want = reference.answer(questions).logits
                reference.close()
                assert got.tobytes() == want.tobytes(), f"{key}/{tying}: {ops}"
                continue
            if op == "clear":
                engine.clear_memories()
                stored = []
            else:
                count = min(op, config.num_sentences - len(stored))
                if count == 0:
                    continue
                rows = [(cursor + i) % len(story) for i in range(count)]
                cursor += count
                engine.store_story(story[rows])
                stored += rows
            for pair_index, solver in before.items():
                kept = engine._solver_cache.get(pair_index)
                if key in SURVIVES_WRITES:
                    assert type(solver) is ColumnMemNN and kept is solver
                    m_in, m_out = engine._memories[pair_index]
                    assert kept.m_in.base is m_in.base or len(m_in) == 0
                    assert kept.num_sentences == len(stored)
                    # No view over the rows before the write is scanned.
                    assert not any(
                        kept.m_in is view or kept.m_out is view for view in views
                    )
                else:
                    assert kept is None, f"{key}: {type(solver).__name__} kept"
    finally:
        engine.close()


@pytest.mark.process_pool
@pytest.mark.parametrize("fold", ("compiled", "numpy"))
@pytest.mark.parametrize("tying", ("layer-wise", "adjacent"))
@pytest.mark.parametrize("key", sorted(GRID))
def test_a_dialogue_answers_like_a_fresh_engine_over_its_rows(
    key, tying, fold, request
):
    if fold == "numpy":
        request.getfixturevalue("numpy_fold")
    elif compiled_fold.fold_backend() != "c":
        pytest.skip(compiled_fold.fold_backend())

    @settings(
        max_examples=4 if "process" in key else 12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=OPS)
    def check(ops):
        _run_dialogue(key, tying, ops)

    check()


def test_a_cleared_kernel_keeps_no_view_of_the_old_rows():
    """``clear_memories`` re-points a surviving kernel at the empty
    memory: the rows written before (whose buffer a later write never
    reuses) are no longer reachable from it."""
    config, weights, story, questions = _random_problem(1)
    engine = MnnFastEngine(config, weights, engine_config=GRID["column"])
    engine.store_story(story[:5])
    engine.answer(questions)
    solver = engine._solver_cache[0]
    old_in, old_out = engine.memories
    engine.clear_memories()
    assert engine._solver_cache[0] is solver
    assert solver.num_sentences == 0
    assert not np.shares_memory(solver.m_in, old_in)
    assert not np.shares_memory(solver.m_out, old_out)
    engine.store_story(story[5:9])
    assert not np.shares_memory(engine.memories[0], old_in)
    assert engine._solver(0) is solver


def test_a_config_swap_rebuilds_the_surviving_kernel():
    """A swapped ``engine_config`` goes through the config sync: the
    cached kernel is dropped, not re-pointed, even on a write."""
    config, weights, story, questions = _random_problem(2)
    engine = MnnFastEngine(config, weights, engine_config=GRID["column"])
    engine.store_story(story[:5])
    engine.answer(questions)
    solver = engine._solver_cache[0]
    engine.engine_config = GRID["zero_skip_off"]
    engine.store_story(story[5:7])
    assert 0 not in engine._solver_cache
    assert engine._solver(0) is not solver
