"""The compiled bag-of-words embedding against its referee, the NumPy one.

``BowEmbedder`` runs ``repro_bow`` of ``repro/core/_fold.c`` when the
compiled library loads and takes the arrays, and falls back to
``bow_embed_each``, the NumPy passes, otherwise (DESIGN.md §10,
"Compiled embedding").  The two do the same float64
arithmetic in the same order — mask, encoding, then a sum from zero
position by position, rounded once into the output — so they are held
to each other bitwise, not to a tolerance: over output dtypes and
layouts (a feature-major ``M_IN`` slice, a row-major ``M_OUT`` slice, a
fresh array), encodings, pad-heavy rows, widths and block lengths
across ``EMBED_BLOCK_ROWS``, and bad word IDs, which both refuse before
writing a row.  Then an engine on the NumPy embedding and fold stores
and embeds the same bits as one on the compiled library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, EngineWeights, MnnFastEngine, compiled_fold
from repro.core.numerics import PAD_ID, BowEmbedder, bow_embed_each

from .test_differential_paths import _random_problem

requires_compiler = pytest.mark.skipif(
    compiled_fold.fold_backend() != "c", reason=compiled_fold.fold_backend()
)


_numpy_bow = bow_embed_each


def _compiled_bow(tables, sentences, encoding, outs):
    """The compiled embedding alone: it must take the arrays."""
    if outs is None:
        outs = [np.empty((len(sentences), tables[0].shape[1])) for _ in tables]
    assert BowEmbedder(tables, encoding).compiled(sentences, outs)
    return outs


@st.composite
def blocks(draw):
    """A block of sentences, its tables and where the sums go."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n = draw(st.one_of(st.integers(0, 12), st.integers(0, 600)))
    nw = draw(st.integers(1, 20))
    ed = draw(st.sampled_from((1, 2, 3, 7, 48)))
    vocab = draw(st.integers(2, 60))
    # One table (a question), one pair, two pairs (adjacent tying).
    count = draw(st.sampled_from((1, 2, 4)))
    # Tables as the engine holds them (pad row 0), or with a pad row of
    # negative values: masked to -0.0, which the sum from +0.0 absorbs.
    tables = [rng.normal(size=(vocab, ed)) * 3 for _ in range(count)]
    if draw(st.booleans()):
        for table in tables:
            table[PAD_ID] = 0.0
    pads = draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    sentences = rng.integers(1, vocab, size=(n, nw))
    sentences[rng.random((n, nw)) < pads] = PAD_ID
    encoding = rng.uniform(-1, 1, (nw, ed)) if draw(st.booleans()) else None
    # "F" / "C": the rows [2, 2 + n) of a larger buffer, as store_story
    # hands them; None: a fresh float64 array per table.
    order = draw(st.sampled_from(("F", "C", None)))
    dtype = np.dtype(draw(st.sampled_from((np.float32, np.float64))))
    bad = draw(st.sampled_from((None, -1, vocab, 2**40)))
    return tables, sentences, encoding, order, dtype, bad


def _buffers(count, n, ed, order, dtype):
    """NaN-filled buffers with room for ``n`` rows from row 2, and
    the ``outs`` slices into them (``None`` for fresh arrays)."""
    if order is None:
        return None, None
    buffers = [np.full((n + 5, ed), np.nan, dtype, order=order) for _ in range(count)]
    return buffers, [buffer[2 : 2 + n] for buffer in buffers]


@requires_compiler
@settings(max_examples=150, deadline=None)
@given(blocks())
def test_compiled_bow_is_bitwise_the_numpy_bow(block):
    tables, sentences, encoding, order, dtype, bad = block
    n, ed = len(sentences), tables[0].shape[1]
    results = {}
    for name, embed in (("c", _compiled_bow), ("numpy", _numpy_bow)):
        buffers, outs = _buffers(len(tables), n, ed, order, dtype)
        got = embed(tables, sentences, encoding, outs)
        if outs is not None:
            assert all(result is out for result, out in zip(got, outs))
            results[name] = [buffer.tobytes() for buffer in buffers]
        else:
            assert all(result.dtype == np.float64 for result in got)
            results[name] = [result.tobytes() for result in got]
    assert results["c"] == results["numpy"]
    if bad is None or n == 0:
        return
    wrong = sentences.copy()
    wrong.flat[len(wrong.flat) // 2] = bad
    for embed in (_compiled_bow, _numpy_bow):
        buffers, outs = _buffers(len(tables), n, ed, order or "C", dtype)
        with pytest.raises(ValueError, match="out of range"):
            embed(tables, wrong, encoding, outs)
        assert all(np.isnan(buffer).all() for buffer in buffers)


def test_the_reference_sums_word_positions_in_order(rng):
    """Each output cell is ``((0 + v_0) + v_1) + ...`` over word
    positions, at every width: at ``ed == 1`` a reduction over the
    contiguous word axis would sum pairwise instead, and differ in the
    last bit from every wider table."""
    nw = 17
    for ed in (1, 2):
        table = rng.normal(size=(40, ed))
        sentences = rng.integers(0, 40, size=(64, nw))
        want = np.zeros((64, ed))
        for position in range(nw):
            words = sentences[:, position]
            want += table[words] * (words != PAD_ID)[:, None]
        (got,) = _numpy_bow((table,), sentences)
        assert got.tobytes() == want.tobytes()


@requires_compiler
def test_arrays_the_loop_does_not_take_go_to_numpy(rng):
    """int32 IDs, a float32 or strided table, and a float16 output are
    refused by the C loop before it writes, and ``BowEmbedder`` embeds
    them by NumPy."""
    table = rng.normal(size=(20, 6))
    sentences = rng.integers(0, 20, size=(5, 4))
    cases = [
        ((table,), sentences.astype(np.int32), np.float64),
        ((table.astype(np.float32),), sentences, np.float64),
        ((np.asfortranarray(table),), sentences, np.float64),
        ((table,), sentences, np.float16),
    ]
    for tables, ids, dtype in cases:
        embedder = BowEmbedder(tables)
        target = [np.full((5, 6), np.nan, dtype)]
        assert not embedder.compiled(ids, target)
        assert np.isnan(target[0]).all()
        embedder(ids, target)
        want = _numpy_bow(tables, ids)[0].astype(dtype)
        assert target[0].tobytes() == want.tobytes()


def _engine_bits(config, weights, story, questions, dtype):
    engine = MnnFastEngine(
        config,
        weights,
        EngineConfig.mnnfast(chunk_size=16).with_execution(dtype=dtype),
        use_position_encoding=True,
    )
    for start in range(0, len(story), 7):  # append by append, as bAbI does
        engine.store_story(story[start : start + 7])
    memories = [m.tobytes() for pair in engine._memories for m in pair]
    u = engine.embed_question(questions)[0].tobytes()
    answers = engine.answer(questions).answer_ids
    engine.close()
    return memories, u, answers


@requires_compiler
@pytest.mark.parametrize("dtype", ("float32", "float64"))
@pytest.mark.parametrize("tying", ("layer-wise", "adjacent"))
def test_an_engine_without_a_compiler_stores_and_embeds_the_same_bits(
    dtype, tying, request
):
    """Every memory row and question vector of an engine on the NumPy
    embedding and fold is bitwise that of one on the compiled library,
    and the answers agree; under adjacent tying store_story embeds one
    pair of tables per call."""
    config, weights, story, questions = _random_problem(3)
    if tying == "adjacent":
        rng = np.random.default_rng(3)
        shape = weights.embedding_a.shape
        weights = EngineWeights.adjacent(
            [rng.normal(0, 0.1, shape) for _ in range(config.hops + 1)]
        )
    compiled = _engine_bits(config, weights, story, questions, dtype)
    request.getfixturevalue("numpy_fold")
    assert compiled_fold.bow_kernels() is None
    reference = _engine_bits(config, weights, story, questions, dtype)
    assert compiled[0] == reference[0]
    assert compiled[1] == reference[1]
    np.testing.assert_array_equal(compiled[2], reference[2])

