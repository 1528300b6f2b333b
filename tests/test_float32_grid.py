"""The float32 cells of the differential grid.

The default config stores float32 memories and a float32 answer
matrix and runs each tile's arithmetic and the answer GEMMs in
float32; ``(denom, acc)``, the one deferred divide, the shard merge,
the hop recurrence, the gates' decisions and the logits as returned
are float64 (DESIGN.md §10).  ``tests/test_differential_paths.py`` and
``tests/test_core_column_reference.py`` hold the *float64* cells at
1e-10 / ``tobytes``; this module restates the same grid for the default
precision, as two statements:

* **float32 ≡ float32, bitwise.**  Paths that fold the same tile
  sequence are equal to the last bit: column ≡ one-shard sharded ≡
  one-shard fused, resident ≡ out-of-core at any budget and lookahead
  depth, append-then-answer ≡ bulk ingest ≡ ``set_memories``.  (A
  question alone vs inside a batch is held to the float32 bound: BLAS
  orders a one-row GEMM's sums differently, in float64 too.)
* **float32 vs the float64 reference**: logits within
  ``FLOAT32_LOGIT_TOLERANCE`` and identical argmax answers across
  algorithm × zero-skip × store × shards × top-k × early-exit.

and then the numeric edges the float32 tile arithmetic has and float64
did not: peaked logits at the exp floor, the zero-skip comparison one
ulp from its threshold, degenerate shapes, and the cross-tile
accumulation that is the reason the running state is float64.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    FLOAT32_LOGIT_TOLERANCE,
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
from repro.core.column import TileState, exp_floor
from repro.core.zero_skip import probability_mode_mask

from .conftest import float64
from .test_differential_paths import (
    SEEDS,
    _full_grid,
    _ingest_sentence_by_sentence,
    _ingest_uneven_slices,
    _long_story,
    _random_problem,
)


def fold_exp(x: np.ndarray) -> np.ndarray:
    """The exponential the tile fold of ``x``'s dtype computes from
    floored shifted scores: the compiled fold's own for float32 when the
    library loads, else NumPy's (a float64 tile always folds in NumPy)."""
    if x.dtype == np.float32 and compiled_fold.fold_backend() == "c":
        return compiled_fold.exp(x)
    return np.exp(x)


def default_precision(config: EngineConfig) -> EngineConfig:
    """The ``pin`` of the float32 cells: the config as composed."""
    assert config.execution.dtype == "float32"
    return config


#: Rows of a story that fits one 16-row tile: the resident column hop
#: is then one score GEMM and one compiled call, fold and recurrence.
ONE_TILE = 12


def _engine(seed, engine_config, long_story=False, rows=None):
    config, weights, story, questions = _random_problem(seed)
    engine = MnnFastEngine(config, weights, engine_config=engine_config)
    story = _long_story(story) if long_story else story
    engine.store_story(story[:rows])
    return engine, questions


def _answer(seed, engine_config, **kwargs):
    engine, questions = _engine(seed, engine_config, **kwargs)
    try:
        return engine.answer(questions)
    finally:
        engine.close()


def _assert_same_answer(got, want):
    """Bitwise the same answer, and the same counters, hop by hop."""
    assert got.logits.tobytes() == want.logits.tobytes()
    assert got.response.tobytes() == want.response.tobytes()
    assert got.stats == want.stats
    assert got.hop_stats == want.hop_stats


def _gated_grid(pin):
    """The full grid, and every non-baseline cell again behind the
    early-exit gate, at a threshold that retires one or two of the
    random problem's four questions after the first hop."""
    grid = _full_grid(pin)
    for name, config in list(grid.items()):
        if name != "baseline":
            grid[name + "+margin"] = config.with_early_exit(0.99875)
    return grid


# --- float32 vs the float64 reference ----------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_float32_agrees_with_the_float64_reference(seed):
    reference = _gated_grid(float64)
    for key, engine_config in _gated_grid(default_precision).items():
        got = _answer(seed, engine_config)
        want = _answer(seed, reference[key])
        np.testing.assert_allclose(
            got.logits,
            want.logits,
            rtol=FLOAT32_LOGIT_TOLERANCE,
            atol=FLOAT32_LOGIT_TOLERANCE,
            err_msg=f"float32 logits leave the documented bound on {key}",
        )
        np.testing.assert_array_equal(got.answer_ids, want.answer_ids, str(key))
        hops_run = got.hop_trace.hops_run
        np.testing.assert_array_equal(hops_run, want.hop_trace.hops_run, str(key))
        gated = engine_config.early_exit.enabled
        assert (hops_run.min() < hops_run.max()) == gated, key
        # What leaves the engine is float64 whatever the memory is.
        assert got.logits.dtype == got.response.dtype == np.float64


# --- float32 == float32, bitwise ---------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("threshold", (0.0, 0.01, 0.5), ids=("off", "0.01", "0.5"))
def test_one_shard_arrangements_are_bitwise_equal(seed, threshold):
    """Column is K = 1 of sharded is K = 1 of fused, on the engine's
    float32 rows — several tiles, so the float64 widening is on the
    path."""
    base = EngineConfig(chunk=ChunkConfig(16)).with_zero_skip(threshold)
    # Several tiles, then one: the resident column hop that ends in one
    # compiled call must keep the NumPy recurrence's bits.
    for rows in (None, ONE_TILE):
        column = _answer(seed, base, rows=rows)
        for one_shard in (
            base.with_algorithm("sharded"),
            base.with_algorithm("sharded").with_execution(fused=True),
        ):
            assert one_shard.num_shards == 1
            _assert_same_answer(_answer(seed, one_shard, rows=rows), column)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefetch_depth", (0, 2))
@pytest.mark.parametrize("resident_bytes", (None, 1, 3000, 1 << 20))
def test_out_of_core_is_bitwise_equal_to_resident(
    seed, resident_bytes, prefetch_depth
):
    """The spill holds the engine's float32 rows, so where a chunk was
    read from — disk, the resident tier, a lookahead buffer — cannot
    show in the answer."""
    kwargs = dict(chunk_size=16, threshold=0.01)
    streaming = EngineConfig.out_of_core(
        resident_bytes=resident_bytes, prefetch_depth=prefetch_depth, **kwargs
    )
    # The long story, then one tile's worth of rows.
    for story in (dict(long_story=True), dict(rows=ONE_TILE)):
        resident = _answer(seed, EngineConfig.mnnfast(**kwargs), **story)
        _assert_same_answer(_answer(seed, streaming, **story), resident)


@pytest.mark.parametrize("seed", SEEDS)
def test_ingestion_is_invisible_at_the_default_precision(seed):
    """Bag sums are rounded to float32 once, into their row — the same
    rounding whether the rows arrive in bulk, one by one, in slices
    that cross the buffers' growth steps, or as the finished arrays."""
    config, weights, story, questions = _random_problem(seed)
    story = _long_story(story)
    for key, engine_config in _full_grid(default_precision).items():
        def engine():
            return MnnFastEngine(config, weights, engine_config=engine_config)

        bulk, by_sentence, by_slices, installed = (engine() for _ in range(4))
        bulk.store_story(story)
        _ingest_sentence_by_sentence(by_sentence, story)
        _ingest_uneven_slices(by_slices, story, questions)
        installed.set_memories(*bulk.memories)
        reference = bulk.answer(questions)
        for other in (by_sentence, by_slices, installed):
            for grown, stacked in zip(other.memories, bulk.memories):
                assert grown.dtype == np.float32
                assert grown.tobytes() == stacked.tobytes()
            assert (
                other.answer(questions).logits.tobytes()
                == reference.logits.tobytes()
            ), key
            other.close()
        bulk.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_alone_equals_inside_a_batch_on_exact_paths(seed):
    """Every step of the dataflow is row-independent over the question
    axis, in float32 tiles as in float64 ones.  Not bitwise in either
    precision — BLAS sums a one-row GEMM in another order than a
    four-row one — so the float64 cells hold this at 1e-10
    (``tests/test_batching.py``) and these at the float32 bound.  (The
    top-k cells scan the union of a batch's probed clusters and are
    not exact paths.)"""
    for key, engine_config in _full_grid(default_precision).items():
        if "topk" in key:
            continue
        engine, questions = _engine(seed, engine_config)
        batch = engine.answer_batch(questions)
        for index, question in enumerate(questions):
            alone = engine.answer(question)
            np.testing.assert_allclose(
                alone.logits[0],
                batch.batch.logits[index],
                rtol=FLOAT32_LOGIT_TOLERANCE,
                atol=FLOAT32_LOGIT_TOLERANCE,
                err_msg=f"question {index} depends on its batch on {key}",
            )
            assert alone.answer_ids[0] == batch.answer_ids[index]
        engine.close()


# --- numeric edges ------------------------------------------------------------


def _float32_memories(seed, ns, ed=16, nq=3, scale=1.0):
    rng = np.random.default_rng(seed)
    m_in = (rng.normal(size=(ns, ed)) * scale).astype(np.float32)
    m_out = rng.normal(size=(ns, ed)).astype(np.float32)
    u = (rng.normal(size=(nq, ed)) * scale).astype(np.float32)
    return m_in, m_out, u


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    scale=st.sampled_from((3.0, 6.0, 12.0, 40.0)),
    chunk=st.sampled_from((7, 64, 1000)),
    threshold=st.sampled_from((0.0, 0.1, 1e-30)),
)
# At scale 40 one float32 score spacing (2e-3 at |score| ~ 2e4) exceeds
# FLOAT32_LOGIT_TOLERANCE; these four missed the unscaled bound by
# 2.0e-4 - 6.7e-4.
@example(seed=198, scale=40.0, chunk=64, threshold=0.0)
@example(seed=214, scale=40.0, chunk=7, threshold=0.0)
@example(seed=225, scale=40.0, chunk=1000, threshold=0.0)
@example(seed=522, scale=40.0, chunk=64, threshold=0.0)
def test_peaked_logits_stop_at_the_exp_floor(seed, scale, chunk, threshold):
    """Scores tens to thousands below the row maximum: every shifted
    score is floored before ``exp`` — and the compiled fold writes a
    floored cell as 0 — so the block the weighted sum multiplies holds
    no subnormal, each question's denominator stays positive, and the
    answer stays within the float32 bound of the float64 one:
    ``FLOAT32_LOGIT_TOLERANCE``, or one spacing of the largest score
    where float32 cannot represent the scores any finer than that."""
    m_in, m_out, u = _float32_memories(seed, ns=300, scale=scale)
    state = TileState(len(u), m_in.shape[1], threshold)
    solver = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk), dtype=np.float32)
    floor, tiny = exp_floor(np.dtype(np.float32)), np.finfo(np.float32).tiny
    compiled = compiled_fold.fold_backend() == "c"
    for scores, tile_out in solver.scored_tiles(solver.check_questions(u)):
        raw = scores.copy()
        state.fold(scores, tile_out)
        # The exponentials of the floored scores, recomputed from the
        # raw scores and the running max: every one a normal float32.
        shifted = raw - state.partial().log_max[:, None]
        exps = fold_exp(np.maximum(shifted, floor))
        assert exps.dtype == np.float32
        assert exps.min(initial=np.inf) >= tiny
        # The block the readout multiplies by M_OUT: 0 or normal.  The
        # compiled fold leaves every cell's exponential there, 0 where
        # the score was floored.
        if compiled:
            np.testing.assert_array_equal(scores, np.where(shifted < floor, 0, exps))
        assert not (scores[scores != 0] < tiny).any()
    partial = state.partial()
    assert partial.denom.min() > 0
    reference = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk)).output(
        u, zero_skip=ZeroSkipConfig(threshold)
    )
    largest = np.abs(u.astype(np.float64) @ m_in.T.astype(np.float64)).max()
    tolerance = max(FLOAT32_LOGIT_TOLERANCE, np.spacing(np.float32(largest)))
    np.testing.assert_allclose(
        partial.finalize(), reference.output, rtol=tolerance, atol=tolerance
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    dtype=st.sampled_from((np.float32, np.float64)),
    threshold=st.sampled_from((0.5, 0.1, 0.01, 1e-6)),
    ulps=st.integers(-2, 2),
    tiles=st.sampled_from(((50,), (20, 30), (150, 50))),
)
def test_probability_mask_keeps_exactly_the_exponentials_above_the_cut(
    seed, dtype, threshold, ulps, tiles
):
    """The skip rule, at the one place it is implemented: after a fold
    a question-row is kept iff the exponential the fold summed is
    ``>= nextafter(dtype(min(th * S, 1)), 0)``, ``S`` the running
    denominator including the tile — also for a score planted within an
    ulp or two of the cut — and every row the exact full-softmax rule
    keeps is kept (the running ``S`` never exceeds the final one)."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(4, sum(tiles))).astype(dtype)
    # Plant the boundary in the last tile, where the running denominator
    # is (up to rounding) the final one: a score `ulps` steps off the cut.
    log_sum = np.log(np.exp(scores.astype(np.float64)).sum(axis=1))
    edge = (log_sum + np.log(threshold)).astype(dtype)
    for _ in range(abs(ulps)):
        edge = np.nextafter(edge, dtype(np.inf if ulps > 0 else -np.inf))
    scores[:, -1] = edge

    # One-hot output rows: column i of the weighted sum is row i's
    # masked exponential, so the kept set is its support.
    ns = scores.shape[1]
    state = TileState(len(scores), ns, threshold)
    one_hot = np.eye(ns, dtype=dtype)
    kept_by_rule = 0
    for lo, hi in zip(np.cumsum((0,) + tiles[:-1]), np.cumsum(tiles)):
        tile = scores[:, lo:hi].copy()
        state.fold(tile, one_hot[lo:hi])
        partial = state.partial()
        # The exponentials as the fold computed them, from the raw
        # scores and the running max it reports, with its exp.
        shifted = scores[:, lo:hi] - partial.log_max[:, None]
        exps = fold_exp(np.maximum(shifted, exp_floor(np.dtype(dtype))))
        assert exps.dtype == dtype
        cut = np.minimum(threshold * partial.denom, 1.0).astype(dtype)
        cut = np.nextafter(cut, dtype(0))
        by_rule = exps >= cut[:, None]
        kept_by_rule += int(by_rule.sum())
        np.testing.assert_array_equal(partial.weighted[:, lo:hi] != 0, by_rule)
        # The block holds what ``fold`` documents: each cell's
        # exponential, or 0 where the cell was dropped.
        assert ((tile == exps) | ((tile == 0) & ~by_rule)).all()
    assert state.rows_kept == kept_by_rule
    kept = state.partial().weighted != 0
    # Exact up to the rounding of the tile dtype's exponentials: a row
    # whose true probability clears the threshold by 64 eps is kept.
    margin = 1 + 64 * np.finfo(dtype).eps
    exact = probability_mode_mask(scores, threshold * margin)
    assert not (exact & ~kept).any()


@pytest.mark.parametrize("seed", SEEDS)
def test_rows_at_the_skip_threshold_never_flip_an_answer(seed):
    """perfbench-shaped inputs (questions are copies of story rows, so
    one row dominates each softmax; th_skip 0.1): the float32 mask may
    decide a borderline row differently from the float64 one, the
    answers it leads to are the same."""
    rng = np.random.default_rng(seed)
    vocab, words, ed, ns, nq = 512, 8, 48, 1500, 16
    config = MemNNConfig(
        embedding_dim=ed, num_sentences=ns, vocab_size=vocab,
        max_words=words, hops=3,
    )
    weights = EngineWeights(
        rng.normal(0.0, 0.5, (vocab, ed)),
        rng.normal(0.0, 0.1, (vocab, ed)),
        rng.normal(0.0, 0.1, (256, ed)),
    )
    story = rng.integers(1, vocab, size=(ns, words))
    questions = story[rng.integers(0, ns, size=nq)]
    answers = {}
    for name, engine_config in {
        "float32": EngineConfig.mnnfast(500, 0.1),
        "float64": float64(EngineConfig.mnnfast(500, 0.1)),
        "referee": EngineConfig.baseline(),
    }.items():
        engine = MnnFastEngine(config, weights, engine_config=engine_config)
        engine.store_story(story)
        answers[name] = engine.answer(questions)
    np.testing.assert_array_equal(
        answers["float32"].answer_ids, answers["float64"].answer_ids
    )
    np.testing.assert_array_equal(
        answers["float32"].answer_ids, answers["referee"].answer_ids
    )
    # Zero-skipping did skip, and kept the same share to three digits.
    kept32 = answers["float32"].stats.rows_computed
    kept64 = answers["float64"].stats.rows_computed
    assert kept32 < 0.5 * nq * ns * config.hops
    assert abs(kept32 - kept64) <= 1e-3 * kept64


@pytest.mark.parametrize("nq", (0, 1, 3))
@pytest.mark.parametrize("ns", (0, 1, 2))
def test_degenerate_shapes(ns, nq):
    """nq = 0, empty and one-row memories, one-row shards — through the
    column kernel, per-shard kernels and the fused sweep alike."""
    m_in, m_out, u = _float32_memories(5, ns=ns, nq=nq)
    kwargs = dict(chunk=ChunkConfig(1), dtype=np.float32)
    solvers = [
        ColumnMemNN(m_in, m_out, **kwargs),
        ShardedMemNN(m_in, m_out, num_shards=max(ns, 1), **kwargs),
        ShardedMemNN(
            m_in, m_out, num_shards=max(ns, 1),
            execution=ExecutionConfig(fused=True), **kwargs,
        ),
    ]
    partials = [solver.partial_output(u)[0] for solver in solvers]
    for partial in partials:
        assert partial.weighted.shape == (nq, m_in.shape[1])
        assert partial.denom.shape == partial.log_max.shape == (nq,)
    if ns == 0:
        for partial in partials:
            assert not partial.denom.any()
            if nq:
                with pytest.raises(ValueError, match="empty denominator"):
                    partial.finalize()
        return
    outputs = [partial.finalize() for partial in partials]
    wide = u.astype(np.float64) @ m_in.astype(np.float64).T
    weights = np.exp(wide - wide.max(axis=1, keepdims=True, initial=-np.inf))
    expected = (weights / weights.sum(axis=1, keepdims=True)) @ m_out
    for output in outputs:
        assert output.dtype == np.float64
        np.testing.assert_allclose(output, expected, rtol=1e-5, atol=1e-6)


def test_float64_state_is_why_a_long_scan_stays_accurate():
    """200 000 rows of flat attention in 2 000 tiles: every tile adds
    ~100 to a denominator that ends near 2e5.  Carried in float32 the
    sum loses a digit to each of two thousand roundings and drifts;
    carried in float64 it stays within 1e-6 of the all-float64 scan.
    This is the reason ``(denom, acc)`` are widened when a second tile
    arrives."""
    ns, ed, chunk = 200_000, 8, 100
    rng = np.random.default_rng(0)
    m_in = (rng.normal(size=(ns, ed)) * 0.05).astype(np.float32)
    m_out = (1.0 + rng.normal(size=(ns, ed)) * 0.05).astype(np.float32)
    u = rng.normal(size=(2, ed)).astype(np.float32)

    reference = ColumnMemNN(
        m_in, m_out, chunk=ChunkConfig(chunk), dtype=np.float64
    ).output(u).output
    solver = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk), dtype=np.float32)
    partial, _ = solver.partial_output(u)
    assert partial.denom.dtype == partial.weighted.dtype == np.float64
    assert partial.log_max.dtype == np.float32
    got = partial.finalize()
    assert np.abs(got - reference).max() < 1e-6

    # The same tiles folded into an all-float32 state.
    denom = np.zeros(len(u), dtype=np.float32)
    acc = np.zeros((len(u), ed), dtype=np.float32)
    log_max = np.full(len(u), -np.inf, dtype=np.float32)
    for scores, tile_out in solver.scored_tiles(solver.check_questions(u)):
        new_max = np.maximum(log_max, scores.max(axis=1))
        scale = np.exp(log_max - new_max)
        exps = np.exp(scores - new_max[:, None])
        denom = denom * scale + exps.sum(axis=1)
        acc = acc * scale[:, None] + exps @ tile_out
        log_max = new_max
    drifted = acc / denom[:, None]
    assert drifted.dtype == np.float32
    assert np.abs(drifted - reference).max() > 10 * np.abs(got - reference).max()
    assert np.abs(drifted - reference).max() > 1e-6
