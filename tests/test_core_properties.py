"""Property-based tests (hypothesis) for the core algorithms.

These encode the paper's correctness invariants:

* Eq. (4) equals Eq. (3) for *any* memory contents and chunking.
* Partial outputs form a commutative monoid under merge.
* Zero-skipping is monotone in its threshold, keeps every row the
  exact rule keeps, and never drops a question's whole attention.
* The early-exit gate's exit sets are nested in the threshold, ragged
  batches fold exactly like per-question passes, and retiring rows
  never perturbs the survivors.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    BaselineMemNN,
    ChunkConfig,
    ColumnMemNN,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    ShardedMemNN,
    ZeroSkipConfig,
    merge_partials,
    softmax,
)
from repro.core.early_exit import EXIT_FULL_DEPTH
from repro.core.zero_skip import probability_mode_mask

from .conftest import float64, kept_rows

# Bounded floats keep exp() in a comfortable range for the equality
# tests; the stability tests in test_core_algorithms cover the extremes.
value = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def _partials(m_in, m_out, parts, u, chunk=None):
    """Per-shard partials of ``u`` over ``parts`` contiguous shards."""
    solver = ShardedMemNN(m_in, m_out, num_shards=parts, chunk=chunk)
    return [partial for partial, _ in solver.shard_partials(u)]


def memory_pair(ns: int, ed: int):
    shape = (ns, ed)
    return st.tuples(
        arrays(np.float64, shape, elements=value),
        arrays(np.float64, shape, elements=value),
    )


@st.composite
def problem(draw):
    ns = draw(st.integers(min_value=1, max_value=40))
    ed = draw(st.integers(min_value=1, max_value=8))
    nq = draw(st.integers(min_value=1, max_value=4))
    m_in, m_out = draw(memory_pair(ns, ed))
    u = draw(arrays(np.float64, (nq, ed), elements=value))
    chunk = draw(st.integers(min_value=1, max_value=ns))
    return m_in, m_out, u, chunk


@settings(max_examples=60, deadline=None)
@given(problem())
def test_column_equals_baseline(data):
    m_in, m_out, u, chunk = data
    base = BaselineMemNN(m_in, m_out).output(u).output
    col = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=chunk)).output(
        u
    ).output
    np.testing.assert_allclose(col, base, rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(problem())
def test_column_matches_closed_form(data):
    m_in, m_out, u, chunk = data
    col = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=chunk)).output(
        u
    ).output
    expected = softmax(u @ m_in.T) @ m_out
    np.testing.assert_allclose(col, expected, rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(problem(), st.integers(min_value=1, max_value=5))
def test_sharded_merge_equals_whole(data, parts):
    m_in, m_out, u, chunk = data
    parts = min(parts, m_in.shape[0])
    whole = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=chunk)).output(
        u
    ).output
    partials = _partials(m_in, m_out, parts, u, chunk=ChunkConfig(chunk_size=chunk))
    np.testing.assert_allclose(
        merge_partials(partials).finalize(), whole, rtol=1e-9, atol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(problem())
def test_merge_order_does_not_matter(data):
    m_in, m_out, u, _ = data
    if m_in.shape[0] < 3:
        return
    a, b, c = _partials(m_in, m_out, 3, u)
    left = a.merge(b).merge(c).finalize()
    right = a.merge(b.merge(c)).finalize()
    np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    problem(),
    st.floats(min_value=0.001, max_value=0.2),
    st.floats(min_value=1.5, max_value=5.0),
)
def test_zero_skip_monotone_in_threshold(data, threshold, factor):
    """A higher threshold never computes more weighted-sum rows."""
    m_in, m_out, u, chunk = data
    engine = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=chunk))
    low = engine.output(u, zero_skip=ZeroSkipConfig(threshold)).stats
    high = engine.output(
        u, zero_skip=ZeroSkipConfig(min(threshold * factor, 0.999))
    ).stats
    assert high.rows_computed <= low.rows_computed


@settings(max_examples=40, deadline=None)
@given(problem(), st.floats(min_value=0.001, max_value=0.5))
def test_running_skip_keeps_a_superset_of_the_exact_rule(data, threshold):
    """The single-pass rule decides against a running denominator no
    larger than the final one, in any tiling: it keeps every row the
    exact rule (the baseline's mask) keeps — up to the rounding of a
    differently ordered sum, hence the 1e-12 margin."""
    m_in, _, u, chunk = data
    exact = probability_mode_mask(u @ m_in.T, threshold * (1 + 1e-12))
    kept = kept_rows(
        lambda a, b: ColumnMemNN(a, b, chunk=ChunkConfig(chunk_size=chunk)),
        m_in, u, threshold,
    )
    assert not (exact & ~kept).any()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(min_value=1e-4, max_value=0.99),
    st.integers(min_value=0, max_value=2**16),
)
def test_flat_attention_keeps_a_row_per_question(
    nq, ns, chunk, level, spread, threshold, seed
):
    """Scores within ``spread`` of one level: with fewer than ``1/th``
    similar rows every probability is below ``th``, yet each question
    keeps at least one row per scan — the running-max row a tile holds
    has ``e = 1`` and is never cut — so its response is a finite
    average of kept rows, not an empty sum."""
    rng = np.random.default_rng(seed)
    ed = 4
    m_in = np.zeros((ns, ed))
    m_in[:, 0] = level + spread * rng.uniform(-1.0, 1.0, size=ns)
    u = np.zeros((nq, ed))
    u[:, 0] = 1.0
    kept = kept_rows(
        lambda a, b: ColumnMemNN(a, b, chunk=ChunkConfig(chunk_size=chunk)),
        m_in, u, threshold,
    )
    assert kept.any(axis=1).all()
    m_out = rng.normal(size=(ns, ed))
    result = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=chunk)).output(
        u, zero_skip=ZeroSkipConfig(threshold)
    )
    assert np.isfinite(result.output).all()
    assert result.stats.rows_computed >= nq


@settings(max_examples=40, deadline=None)
@given(problem())
def test_probabilities_form_distribution(data):
    m_in, m_out, u, _ = data
    probs = BaselineMemNN(m_in, m_out).output(
        u, return_probabilities=True
    ).probabilities
    assert np.all(probs >= 0.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-9)


# --- multi-question (nq > 1) partials: the batched-path invariants ---------
#
# answer_batch() rests on PartialOutput being row-independent over the
# question axis: a batch of nq questions folds through the same shard
# merges as each question alone, in any shard order or grouping.


@st.composite
def multiq_problem(draw):
    """A problem with at least two questions and two shards."""
    ns = draw(st.integers(min_value=2, max_value=40))
    ed = draw(st.integers(min_value=1, max_value=8))
    nq = draw(st.integers(min_value=2, max_value=6))
    m_in, m_out = draw(memory_pair(ns, ed))
    u = draw(arrays(np.float64, (nq, ed), elements=value))
    parts = draw(st.integers(min_value=2, max_value=min(5, ns)))
    return m_in, m_out, u, parts


@settings(max_examples=40, deadline=None)
@given(multiq_problem(), st.randoms(use_true_random=False))
def test_multiquestion_merge_shard_order_invariant(data, rnd):
    """Merging nq>1 partials in any shard order gives the same fold."""
    m_in, m_out, u, parts = data
    partials = _partials(m_in, m_out, parts, u)
    reference = merge_partials(partials).finalize()
    shuffled = list(partials)
    rnd.shuffle(shuffled)
    np.testing.assert_allclose(
        merge_partials(shuffled).finalize(), reference, rtol=1e-9, atol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(multiq_problem(), st.integers(min_value=1, max_value=4))
def test_multiquestion_merge_grouping_invariant(data, split):
    """((a·b)·(c·d)) == (((a·b)·c)·d) for nq>1 partials — merge is
    associative, so any tree shape folds to the same batch output."""
    m_in, m_out, u, parts = data
    partials = _partials(m_in, m_out, parts, u)
    split = min(split, len(partials) - 1)
    sequential = merge_partials(partials).finalize()
    grouped = merge_partials(
        [merge_partials(partials[:split]), merge_partials(partials[split:])]
    ).finalize()
    np.testing.assert_allclose(grouped, sequential, rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(multiq_problem())
def test_multiquestion_partials_row_independent(data):
    """Each question's row of the batched fold equals the fold of that
    question alone — the invariant answer_batch() is built on."""
    m_in, m_out, u, parts = data
    solver = ShardedMemNN(m_in, m_out, num_shards=parts)
    batch = merge_partials([p for p, _ in solver.shard_partials(u)]).finalize()
    for i in range(u.shape[0]):
        solo = merge_partials(
            [p for p, _ in solver.shard_partials(u[i : i + 1])]
        ).finalize()
        np.testing.assert_allclose(
            batch[i : i + 1], solo, rtol=1e-10, atol=1e-12
        )


# --- early-exit gate: hop-depth and ragged-batch invariants -----------------
#
# The confidence gate retires questions mid-network.  Three properties
# hold for *any* weights, stories and threshold:
#
# * exit sets are nested — raising the threshold never makes any
#   question run MORE hops (the gate fires at `confidence >= 1 - th`,
#   and confidence per hop is threshold-independent);
# * a gated batch folds exactly like gated per-question passes — the
#   ragged row-retirement bookkeeping is invisible in the numbers;
# * rows that never exit are untouched by their neighbours retiring —
#   survivors' logits equal the ungated engine's logits.


@st.composite
def gated_problem(draw):
    """A seeded engine problem with margins large enough that the gate
    actually fires for a decent fraction of drawn thresholds."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    hops = draw(st.integers(min_value=2, max_value=4))
    nq = draw(st.integers(min_value=2, max_value=6))
    num_answers = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(seed)
    config = MemNNConfig(
        embedding_dim=8,
        num_sentences=30,
        num_questions=nq,
        vocab_size=40,
        max_words=5,
        hops=hops,
    )
    weights = EngineWeights(
        embedding_a=rng.normal(0.0, 0.5, (40, 8)),
        embedding_c=rng.normal(0.0, 0.1, (40, 8)),
        answer_weight=rng.normal(0.0, 2.0, (num_answers, 8)),
    )
    story = rng.integers(1, 40, size=(30, 5))
    questions = rng.integers(1, 40, size=(nq, 5))
    return config, weights, story, questions


def _gated_answer(config, weights, story, questions, threshold):
    engine = MnnFastEngine(
        config,
        weights,
        engine_config=float64().with_early_exit(threshold),
    )
    engine.store_story(story)
    return engine.answer(questions)


@settings(max_examples=30, deadline=None)
@given(
    gated_problem(),
    st.floats(min_value=0.0, max_value=0.95),
    st.floats(min_value=0.0, max_value=0.95),
)
def test_exit_depth_monotone_in_threshold(data, t_a, t_b):
    """Raising the threshold never deepens any question's hop count."""
    config, weights, story, questions = data
    low, high = sorted((t_a, t_b))
    deep = _gated_answer(config, weights, story, questions, low)
    shallow = _gated_answer(config, weights, story, questions, high)
    assert np.all(
        np.asarray(shallow.hop_trace.hops_run)
        <= np.asarray(deep.hop_trace.hops_run)
    )


@settings(max_examples=30, deadline=None)
@given(gated_problem(), st.floats(min_value=0.0, max_value=0.95))
def test_gated_batch_equals_sequential(data, threshold):
    """A ragged gated batch is the per-question gated passes, exactly:
    same exit depths, same exit reasons, same logits."""
    config, weights, story, questions = data
    batch = _gated_answer(config, weights, story, questions, threshold)
    for i in range(questions.shape[0]):
        solo = _gated_answer(
            config, weights, story, questions[i : i + 1], threshold
        )
        assert solo.hop_trace.hops_run[0] == batch.hop_trace.hops_run[i]
        assert solo.hop_trace.exit_reason[0] == batch.hop_trace.exit_reason[i]
        np.testing.assert_allclose(
            batch.logits[i : i + 1], solo.logits, rtol=1e-10, atol=1e-12
        )


@settings(max_examples=30, deadline=None)
@given(gated_problem(), st.floats(min_value=0.01, max_value=0.95))
def test_retiring_rows_never_perturbs_survivors(data, threshold):
    """Questions that run to full depth are numerically untouched by
    their batch neighbours exiting early."""
    config, weights, story, questions = data
    gated = _gated_answer(config, weights, story, questions, threshold)
    full = _gated_answer(config, weights, story, questions, 0.0)
    survivors = [
        i
        for i, reason in enumerate(gated.hop_trace.exit_reason)
        if reason == EXIT_FULL_DEPTH
    ]
    for i in survivors:
        assert gated.hop_trace.hops_run[i] == config.hops
        np.testing.assert_allclose(
            gated.logits[i], full.logits[i], rtol=1e-10, atol=1e-12
        )
