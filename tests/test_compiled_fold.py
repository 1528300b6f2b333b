"""The compiled tile fold against its referee, the NumPy fold.

``TileState.fold`` runs ``repro/core/_fold.c`` on a float32 tile when
the system C compiler can build it, and the NumPy fold otherwise — on
every float64 tile (DESIGN.md §10, "Compiled fold").  The two sum and
exponentiate in different orders, so they are held to each other at a
tolerance — outputs within ``FLOAT32_LOGIT_TOLERANCE`` — and their
zero-skip decisions are held to be the same cells, except cells within
one ulp of the band between the two folds' cuts, which the comparison
names; the band is bounded by the tile's summation roundoff.  Then the
polynomial ``exp`` on its own, and the build-and-load rules: fallback
without a compiler, a failed build, a damaged cache, concurrent builds,
and spawn workers.
"""

import importlib.resources
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core import (
    FLOAT32_LOGIT_TOLERANCE,
    ChunkConfig,
    ColumnMemNN,
    EngineConfig,
    ExecutionConfig,
    MnnFastEngine,
    ShardedMemNN,
    ZeroSkipConfig,
    compiled_fold,
)
from repro.core.column import TileState, exp_floor

from .conftest import float64
from .test_differential_paths import _random_problem

requires_compiler = pytest.mark.skipif(
    compiled_fold.fold_backend() != "c", reason=compiled_fold.fold_backend()
)

#: Each fold's exponential of a raw shifted score: both floor it, and
#: the compiled fold writes 0 where it did (DESIGN.md §10, "The
#: subnormal cliff").
EXP = {
    "c": lambda shifted, floor: np.where(
        shifted < floor, 0, compiled_fold.exp(np.maximum(shifted, floor))
    ),
    "numpy": lambda shifted, floor: np.exp(np.maximum(shifted, floor)),
}


def _state(nq, ed, threshold, backend):
    """A ``TileState`` on ``backend``'s fold ("c" or "numpy")."""
    with pytest.MonkeyPatch.context() as patch:
        if backend == "numpy":
            patch.setattr(compiled_fold, "kernels", lambda: None)
        return TileState(nq, ed, threshold)


def _tile_args(source, block, rows):
    """``(scores, tile_out)`` as a caller of ``source`` hands them to
    ``fold``: a contiguous block, or a fused shard's strided segment of
    a wider tile (slice or index array)."""
    nq, width = block.shape
    if source == "array":
        return block.copy(), rows
    wide = np.zeros((nq, 2 * width), block.dtype)
    wide_rows = np.zeros((2 * width, rows.shape[1]), rows.dtype)
    wide[:, 1::2], wide_rows[1::2] = block, rows
    sel = slice(1, None, 2) if source == "slice" else np.arange(1, 2 * width, 2)
    return wide[:, sel], wide_rows[sel]


def _scan(scores, m_out, widths, threshold, backend, source):
    """Fold ``scores`` tile by tile; the state and, per tile, the
    ``(log_max, denom)`` its decisions were taken against."""
    nq, ed = len(scores), m_out.shape[1]
    state = _state(nq, ed, threshold, backend)
    snapshots, lo = [], 0
    for width in widths:
        hi = lo + width
        block, tile_out = _tile_args(source, scores[:, lo:hi], m_out[lo:hi])
        state.fold(block, tile_out)
        # The block's cells are exponentials (or dropped zeros): normal.
        assert not (block[block != 0] < np.finfo(scores.dtype).tiny).any()
        partial = state.partial()
        snapshots.append((lo, hi, partial.log_max.copy(), partial.denom.copy()))
        lo = hi
    return state, snapshots


def _decisions(scores, snapshots, threshold, backend):
    """Per cell: the exponential the fold computed, the cut it was held
    to, and whether it was kept — recomputed from the raw scores."""
    floor = exp_floor(scores.dtype)
    exps, cuts = np.empty_like(scores), np.empty_like(scores)
    for lo, hi, log_max, denom in snapshots:
        exps[:, lo:hi] = EXP[backend](scores[:, lo:hi] - log_max[:, None], floor)
        cut = np.minimum(np.multiply(denom, threshold, dtype=np.float64), 1.0)
        cuts[:, lo:hi] = np.nextafter(cut.astype(scores.dtype), 0)[:, None]
    return exps, cuts, exps >= cuts


@st.composite
def scans(draw):
    dtype = np.dtype(np.float32)
    nq = draw(st.sampled_from((0, 1, 16)))
    # Up to three tiles of 1 to 1500 columns, the last often narrow.
    widths = draw(st.lists(st.integers(1, 1500), min_size=1, max_size=2))
    widths.append(draw(st.integers(1, 40)))
    style = draw(st.sampled_from(("normal", "peaked", "flat", "ties")))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    ns = sum(widths)
    scores = {
        "normal": lambda: rng.normal(size=(nq, ns)) * 3,
        # Hundreds below the row maximum: floored before exp.
        "peaked": lambda: rng.normal(size=(nq, ns)) * 300,
        # Fewer than 1/th rows near the max: the clamp keeps one.
        "flat": lambda: 0.5 + rng.normal(size=(nq, ns)) * 1e-3,
        "ties": lambda: np.round(rng.normal(size=(nq, ns)) * 2),
    }[style]().astype(dtype)
    threshold = draw(st.sampled_from((0.0, 0.5, 0.1, 0.01, 1e-6)))
    ulps = draw(st.sampled_from((None, -2, -1, 0, 1, 2)))
    if ulps is not None and threshold and nq:
        # One score of the last tile `ulps` steps off the cut the
        # final denominator sets.
        wide = scores.astype(np.float64)
        log_sum = np.log(np.exp(wide - wide.max(1, keepdims=True)).sum(1))
        edge = (wide.max(1) + log_sum + np.log(threshold)).astype(dtype)
        for _ in range(abs(ulps)):
            edge = np.nextafter(edge, dtype.type(np.inf if ulps > 0 else -np.inf))
        scores[:, -1] = edge
    source = draw(st.sampled_from(("array", "slice", "index")))
    m_out = rng.normal(size=(ns, 8)).astype(dtype)
    return scores, m_out, widths, threshold, source


@requires_compiler
@settings(max_examples=120, deadline=None)
@given(scans())
@example(
    (
        np.zeros((16, 30), np.float32),
        np.ones((30, 8), np.float32),
        [25, 5],
        0.1,
        "array",
    )
)
def test_compiled_fold_agrees_with_the_numpy_fold(scan):
    scores, m_out, widths, threshold, source = scan
    dtype, tolerance = scores.dtype, FLOAT32_LOGIT_TOLERANCE
    states, kept = {}, {}
    for backend in ("c", "numpy"):
        state, snapshots = _scan(scores, m_out, widths, threshold, backend, source)
        exps, cuts, keep = _decisions(scores, snapshots, threshold, backend)
        if threshold:
            # Each fold kept exactly the cells its own rule keeps.
            assert state.rows_kept == keep.sum(), backend
            # The clamp keeps every question's running-max cell.
            assert keep.any(axis=1).all(), backend
            kept[backend] = keep, exps, cuts
        else:
            assert state.rows_kept == scores.size
        # Every exponential the fold summed is 0 or a normal number.
        assert not (exps[exps != 0] < np.finfo(dtype).tiny).any()
        states[backend] = state.partial()
    c, reference = states["c"], states["numpy"]
    assert c.weighted.dtype == c.denom.dtype == np.float64
    assert c.log_max.dtype == dtype
    np.testing.assert_array_equal(c.log_max, reference.log_max)
    flipped_mass = np.zeros(len(scores))
    if threshold:
        (keep_c, exps_c, cuts_c), (keep_np, exps_np, cuts_np) = (
            kept["c"], kept["numpy"]
        )
        flipped = keep_c != keep_np
        cells = list(zip(*np.nonzero(flipped)))
        # The two cuts differ only by summation roundoff.  A sum of n
        # positive terms in the tile dtype errs by at most (n - 1) ulps of
        # the sum, so up to 2(n - 1) ulps of the cut th*S; the two exps
        # (<= 1 ulp each: 8 ulps of the cut) and the two casts add 9 more.
        # A denominator that lost a lane or a rescale is far outside this.
        low, high = np.minimum(cuts_c, cuts_np), np.maximum(cuts_c, cuts_np)
        gap = (high - low) / np.spacing(low)
        allowed = 2 * (max(widths) - 1) + 9
        assert gap.max(initial=0) <= allowed, f"cuts {gap.max()} ulps apart"
        # Near the cut means within one ulp of the band between the two
        # cuts: a cell inside it flips with both exponentials equal.
        low, high = low - np.spacing(low), high + np.spacing(high)
        near = ((exps_c >= low) & (exps_c <= high)) | (
            (exps_np >= low) & (exps_np <= high)
        )
        assert near[flipped].all(), f"flipped off the cut: {cells}"
        # A flipped cell moves the output by at most its weight.
        weight = np.exp(scores - c.log_max[:, None].astype(np.float64))
        weight /= c.denom[:, None]
        flipped_mass = (weight * flipped) @ np.abs(m_out).max(1)
    if len(scores):
        got, want = c.finalize(), reference.finalize()
        bound = tolerance * (1 + np.abs(want)) + flipped_mass[:, None]
        assert (np.abs(got - want) <= bound).all()


def _peaked_scan():
    """A ``scans()`` draw in ``out_of_core_stream``'s regime: th 0, 16
    questions, scores hundreds below each row's max, and ``M_OUT`` at
    the N(0, 0.1) scale whose products with exp(floor) are subnormal."""
    rng = np.random.default_rng(3)
    scores = (rng.normal(size=(16, 1000)) * 300).astype(np.float32)
    m_out = (rng.normal(size=(1000, 8)) * 0.1).astype(np.float32)
    return scores, m_out, [600, 400], 0.0, "array"


@requires_compiler
@settings(max_examples=60, deadline=None)
@given(scans())
@example(_peaked_scan())
def test_the_compiled_fold_writes_zero_below_the_floor(scan):
    """After every compiled fold, a cell whose shifted score is below
    ``exp_floor`` holds exactly 0 and every other cell at least
    ``exp(floor)``, so the block the readout multiplies by ``M_OUT``
    holds no ``exp(floor)`` whose products with small entries would be
    subnormal.  At th 0 every question-row still counts as kept."""
    scores, m_out, widths, threshold, source = scan
    floor = exp_floor(scores.dtype)
    smallest = compiled_fold.exp(np.array([floor]))[0]
    state = _state(len(scores), m_out.shape[1], threshold, "c")
    lo = 0
    for width in widths:
        hi = lo + width
        block, tile_out = _tile_args(source, scores[:, lo:hi], m_out[lo:hi])
        state.fold(block, tile_out)
        shifted = scores[:, lo:hi] - state.partial().log_max[:, None]
        assert (block[shifted < floor] == 0).all()
        assert not (block[block != 0] < smallest).any()
        lo = hi
    if not threshold:
        assert state.rows_kept == scores.size


@requires_compiler
def test_a_nan_score_turns_its_question_nan_in_both_folds():
    """A NaN score makes its question's denominator and output NaN —
    as ``np.max``'s NaN does in the NumPy fold — and leaves the other
    questions' arithmetic alone; tied maxima fold alike in both."""
    rng = np.random.default_rng(0)
    scores = np.round(rng.normal(size=(3, 40)) * 2).astype(np.float32)
    scores[:, 3] = scores[:, 7] = scores.max() + 1  # ties at the maximum
    scores[1, 22] = np.nan
    m_out = rng.normal(size=(40, 8)).astype(np.float32)
    for threshold in (0.0, 0.1):
        outputs, kept = {}, {}
        for backend in ("c", "numpy"):
            state, _ = _scan(scores, m_out, [16, 24], threshold, backend, "array")
            partial = state.partial()
            assert np.isnan(partial.denom[1])
            assert not np.isnan(partial.denom[[0, 2]]).any()
            outputs[backend], kept[backend] = partial.finalize(), state.rows_kept
        assert kept["c"] == kept["numpy"]
        nan = {backend: np.isnan(output) for backend, output in outputs.items()}
        np.testing.assert_array_equal(nan["c"], nan["numpy"])
        assert np.isnan(outputs["c"][1]).all()
        np.testing.assert_allclose(
            outputs["c"][[0, 2]], outputs["numpy"][[0, 2]], rtol=1e-5, atol=1e-6
        )


@requires_compiler
def test_mismatched_arrays_are_refused_before_the_kernel_reads_them():
    state = _state(2, 8, 0.1, "c")
    block = np.zeros((2, 5), np.float32)
    state.fold(block.copy(), np.zeros((5, 8), np.float32))
    refused = [
        (block.astype(np.float64), np.zeros((5, 8), np.float64)),  # dtype
        (block[:1].copy(), np.zeros((5, 8), np.float32)),  # nq
        (block.copy(), np.zeros((4, 8), np.float32)),  # rows
        (block.copy(), np.zeros((5, 7), np.float32)),  # ed
    ]
    read_only = block.copy()
    read_only.flags.writeable = False
    refused.append((read_only, np.zeros((5, 8), np.float32)))
    for scores, tile_out in refused:
        with pytest.raises(ValueError):
            state.fold(scores, tile_out)
    assert state.rows_kept == 10  # only the first fold counted


@st.composite
def run_scans(draw):
    """A scan over row runs of a float32 memory: sorted, disjoint
    ``[start, stop)`` runs — 1-row runs, runs across tile edges,
    adjacent runs —, 0, 1 or 16 questions, a threshold of 0 or above."""
    ns = draw(st.integers(2, 300))
    chunk = draw(st.integers(1, 64))
    cuts = draw(st.lists(st.integers(0, ns), min_size=2, max_size=16, unique=True))
    cuts.sort()
    pairs = list(zip(cuts[:-1], cuts[1:]))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    # Consecutive chosen pairs are adjacent runs.
    runs = [pair for pair, keep in zip(pairs, chosen) if keep] or pairs[:1]
    if draw(st.booleans()):
        runs = [(start, start + 1) for start, _ in runs]
    nq = draw(st.sampled_from((0, 1, 16)))
    threshold = draw(st.sampled_from((0.0, 0.01, 0.1, 0.5)))
    seed = draw(st.integers(0, 2**16))
    return ns, chunk, np.array(runs, dtype=np.int64), nq, threshold, seed


@requires_compiler
@settings(max_examples=100, deadline=None)
@given(run_scans())
def test_a_run_scan_agrees_with_the_numpy_fold(scan):
    """``ColumnMemNN.output(u, zero_skip, runs=...)`` on the compiled
    fold — one ``repro_scan`` over the memory's spans — against the NumPy
    fold's tiles: the same rows scanned, outputs within
    ``FLOAT32_LOGIT_TOLERANCE`` (a cell one fold keeps and the other
    drops, one ulp from the cut, moves its question by at most the
    threshold times an ``M_OUT`` entry).  As a hop, each fold's scan
    ends with the same ``o`` and ``u += o``."""
    ns, chunk, runs, nq, threshold, seed = scan
    rng = np.random.default_rng(seed)
    m_in = rng.normal(0.0, 0.5, (ns, 8)).astype(np.float32)
    m_out = rng.normal(0.0, 1.0, (ns, 8)).astype(np.float32)
    # Questions near memory rows: peaked attention, so rows are skipped.
    u = 4.0 * m_in[rng.integers(0, ns, nq)] + rng.normal(0.0, 0.1, (nq, 8))
    zero_skip = ZeroSkipConfig(threshold)
    results = {}
    for backend in ("c", "numpy"):
        with pytest.MonkeyPatch.context() as patch:
            if backend == "numpy":
                patch.setattr(compiled_fold, "kernels", lambda: None)
            solver = ColumnMemNN(
                m_in, m_out, chunk=ChunkConfig(chunk), dtype=np.float32
            )
            result = solver.output(u, zero_skip, runs=runs)
            hop_u, hop_tile = u.copy(), u.astype(np.float32)
            hop = solver.output(hop_u, zero_skip, runs=runs, u_tile=hop_tile)
        assert hop.output.tobytes() == result.output.tobytes()
        assert hop_u.tobytes() == (u + result.output).tobytes()
        assert hop_tile.tobytes() == hop_u.astype(np.float32).tobytes()
        results[backend] = result
    c, reference = results["c"], results["numpy"]
    assert c.stats.exp_calls == reference.stats.exp_calls == nq * np.diff(runs).sum()
    flips = abs(c.stats.rows_computed - reference.stats.rows_computed)
    bound = FLOAT32_LOGIT_TOLERANCE * (1 + np.abs(reference.output))
    bound += threshold * np.abs(m_out).max() * flips
    assert (np.abs(c.output - reference.output) <= bound).all()


@pytest.mark.parametrize("backend", ("c", "numpy"))
def test_a_span_past_its_rows_is_refused_before_any_write(backend, request):
    """A run reaching past the memory's rows raises ``ValueError``
    before the first product: the hop's ``u`` and ``u_tile`` stay as
    they were.  The compiled scan checks the spans itself too, so a plan
    cut around that check is refused as well."""
    if backend == "c" and compiled_fold.fold_backend() != "c":
        pytest.skip(compiled_fold.fold_backend())
    if backend == "numpy":
        request.getfixturevalue("numpy_fold")
    rng = np.random.default_rng(5)
    m_in, m_out = rng.normal(size=(2, 40, 8)).astype(np.float32)
    solver = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(16), dtype=np.float32)
    runs = np.array([[0, 5], [30, 41]])
    u = rng.normal(size=(2, 8))
    u_tile = u.astype(np.float32)
    before = u.tobytes(), u_tile.tobytes()
    with pytest.raises(ValueError, match="spans of 40 rows"):
        solver.output(u, ZeroSkipConfig(0.1), runs=runs, u_tile=u_tile)
    assert (u.tobytes(), u_tile.tobytes()) == before
    if backend == "c":
        store = solver.store
        plan = solver._cut(((store.m_in, store.m_out, runs),))
        state = TileState(2, 8, 0.1)
        with pytest.raises(ValueError, match=re.escape(compiled_fold.FOLD_ERRORS[-7])):
            state.scan(solver._scan_plan(plan, 2), u_tile, u)
        assert (u.tobytes(), u_tile.tobytes()) == before


@requires_compiler
def test_the_recurrence_refuses_a_bad_hop_state_and_writes_nothing():
    """``TileState.recur``'s crossing (``repro_hop``) checks ``u`` and
    ``u_tile`` against the state before it divides: a wrong shape,
    dtype, order or writability raises the ``ValueError``
    ``FOLD_ERRORS`` names, and the state and both arrays are left as
    they were.  Good arrays then get the NumPy recurrence's bits."""
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(5, 8)).astype(np.float32)
    block = rng.normal(size=(2, 5)).astype(np.float32)
    state = _state(2, 8, 0.1, "c")
    state.fold(block.copy(), rows)
    u = rng.normal(size=(2, 8))
    u_tile = u.astype(np.float32)

    def read_only(array):
        array = array.copy()
        array.flags.writeable = False
        return array

    bad_u, bad_tile = compiled_fold.FOLD_ERRORS[-4], compiled_fold.FOLD_ERRORS[-5]
    refused = [
        (u[:1].copy(), u_tile, bad_u),  # nq
        (u[:, :7].copy(), u_tile, bad_u),  # ed
        (u.astype(np.float32), u_tile, bad_u),  # dtype
        (np.asfortranarray(u), u_tile, bad_u),  # order
        (read_only(u), u_tile, bad_u),
        (u, u_tile[:, :7].copy(), bad_tile),
        (u, u, bad_tile),
        (u, np.asfortranarray(u_tile), bad_tile),
        (u, read_only(u_tile), bad_tile),
    ]
    partial, kept = state.partial(), state.rows_kept
    kept_state = [partial.weighted.tobytes(), partial.denom.tobytes()]
    for hop_u, hop_tile, message in refused:
        before = [hop_u.tobytes(), hop_tile.tobytes()]
        with pytest.raises(ValueError, match=re.escape(message)):
            state.recur(hop_u, hop_tile)
        assert [hop_u.tobytes(), hop_tile.tobytes()] == before
        assert [partial.weighted.tobytes(), partial.denom.tobytes()] == kept_state
    assert state.rows_kept == kept

    want_o = partial.weighted / partial.denom[:, None]
    want_u = u + want_o
    output = state.recur(u, u_tile)
    assert output.tobytes() == want_o.tobytes()
    assert u.tobytes() == want_u.tobytes()
    assert u_tile.tobytes() == want_u.astype(np.float32).tobytes()


@pytest.mark.parametrize("backend", ("c", "numpy"))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_a_solver_reuses_its_fold_state_and_carries_nothing_over(
    backend, dtype, monkeypatch
):
    """``ColumnMemNN.output`` keeps one ``TileState`` per ``(nq,
    threshold)`` it has scanned with and restarts it whenever that shape
    comes back — also after scans of other shapes in between (a batcher
    alternates batch sizes).  Every answer is bitwise a fresh state's: a
    restarted first fold re-initialises ``acc`` as well as ``denom``
    (under zero-skipping ``acc`` only ever adds kept rows, so a stale
    one would show).  A partial handed out by ``partial_output`` is
    never written again."""
    if backend == "c" and compiled_fold.fold_backend() != "c":
        pytest.skip(compiled_fold.fold_backend())
    if backend == "numpy":
        monkeypatch.setattr(compiled_fold, "kernels", lambda: None)
    rng = np.random.default_rng(5)
    m_in, m_out = rng.normal(size=(2, 300, 12))
    solver = ColumnMemNN(m_in * 2, m_out, chunk=ChunkConfig(64), dtype=dtype)
    first, second, third, fourth = (rng.normal(size=(nq, 12)) for nq in (3, 3, 5, 1))
    kept = solver.partial_output(first, zero_skip=ZeroSkipConfig(0.1))[0]
    kept_bytes = [kept.weighted.tobytes(), kept.denom.tobytes(), kept.log_max.tobytes()]
    scans = [
        (first, 0.1), (second, 0.1), (third, 0.1), (fourth, 0.1), (first, 0.1),
        (third, 0.0), (fourth, 0.1), (third, 0.1), (second, 0.1), (third, 0.0),
    ]  # fmt: skip
    states = {}
    for u, threshold in scans:
        got = solver.output(u, zero_skip=ZeroSkipConfig(threshold))
        key = (len(u), threshold)
        state = solver._scans[key]
        assert states.setdefault(key, state) is state  # a shape seen: restarted
        assert len(solver._scans) == len(states)  # one state per shape
        fresh = TileState(len(u), 12, threshold)
        for scores, tile_out in solver.scored_tiles(solver.check_questions(u)):
            fresh.fold(scores, tile_out)
        assert got.output.tobytes() == fresh.partial().finalize().tobytes()
        assert got.stats.rows_computed == fresh.rows_kept
        if threshold:
            assert fresh.rows_kept < len(u) * 300  # rows were skipped
    assert len(states) == 4
    after = [kept.weighted.tobytes(), kept.denom.tobytes(), kept.log_max.tobytes()]
    assert after == kept_bytes


# --- the float32 exp ------------------------------------------------------------


@requires_compiler
def test_float32_exp_is_within_two_ulps_of_the_rounded_exp():
    """The polynomial against float64 ``exp`` rounded to float32, over
    2^20 samples of ``[exp_floor, 0]`` plus both endpoints: at most 2
    ulps apart (an exhaustive sweep of every float32 there measured 1),
    never subnormal, and exactly 1 at 0 — the running-max row's
    exponential, which the clamped cut keeps."""
    floor = exp_floor(np.dtype(np.float32))
    rng = np.random.default_rng(0)
    x = np.concatenate(
        [
            rng.uniform(floor, 0, size=1 << 19).astype(np.float32),
            -np.exp(rng.uniform(-30, np.log(-floor), size=1 << 19)).astype(np.float32),
            [floor, np.float32(-0.0), np.float32(0.0)],
        ]
    )
    x = np.clip(x, floor, 0)
    got = compiled_fold.exp(x)
    want = np.exp(x.astype(np.float64)).astype(np.float32)
    ulps = np.abs(got.view(np.int32).astype(np.int64) - want.view(np.int32))
    assert ulps.max() <= 2
    assert got.min() >= np.finfo(np.float32).tiny
    assert got[-1] == got[-2] == 1.0


# --- build, cache and fallback --------------------------------------------------


def test_the_source_ships_as_package_data():
    source = importlib.resources.files("repro.core").joinpath("_fold.c")
    assert source.is_file()
    assert "repro_fold" in source.read_text()
    pyproject = Path(repro.__file__).parents[2] / "pyproject.toml"
    tomllib = pytest.importorskip("tomllib")
    package_data = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]
    assert "_fold.c" in package_data["package-data"]["repro.core"]


def _logits(engine_config: EngineConfig) -> bytes:
    """The logits of one engine over ``_random_problem(0)``, as bytes."""
    config, weights, story, questions = _random_problem(0)
    engine = MnnFastEngine(config, weights, engine_config)
    engine.store_story(story)
    logits = engine.answer(questions).logits
    engine.close()
    return logits.tobytes()


#: The float64 reference precision, column and one-shard sharded, with
#: zero-skipping off and on.
FLOAT64_CONFIGS = [
    float64(config.with_zero_skip(threshold))
    for config in (
        EngineConfig(chunk=ChunkConfig(16)),
        EngineConfig.sharded(1, chunk_size=16),
    )
    for threshold in (0.0, 0.1)
]


def test_without_a_compiler_answers_are_the_numpy_folds_bitwise(monkeypatch, request):
    # A float64 tile folds in NumPy whether or not the library loads:
    # the loader's logits are the compiler-less ones, bit for bit.
    loaded = [_logits(config) for config in FLOAT64_CONFIGS]
    request.getfixturevalue("numpy_fold")
    assert compiled_fold.fold_backend() == "numpy: no C compiler (cc) on PATH"
    assert [_logits(config) for config in FLOAT64_CONFIGS] == loaded
    answers = []
    for _ in range(2):
        answers.append(_logits(EngineConfig(chunk=ChunkConfig(16))))
        # Second pass: every fold calls the NumPy fold by name.
        monkeypatch.setattr(TileState, "fold", TileState._fold_numpy)
    assert answers[0] == answers[1]


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX permissions")
def test_a_cache_directory_others_can_write_is_not_used(tmp_path, monkeypatch):
    """A library loaded from the cache runs in this process, so a
    directory another user could write to is passed over."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "home"))
    monkeypatch.setattr(compiled_fold.tempfile, "gettempdir", lambda: str(tmp_path))
    shared = tmp_path / "home" / "repro"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    chosen = compiled_fold._cache_dir()
    assert chosen == tmp_path / f"repro-{os.getuid()}"
    assert chosen.stat().st_mode & 0o777 == 0o700


def _in_a_fresh_process(cache: Path, code: str, **env_vars: str) -> str:
    """Run ``code`` in a new interpreter whose cache directory is
    ``cache`` (and environment ``env_vars`` on top); its stdout."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    ).stdout.strip()  # fmt: skip


BACKEND = "from repro.core.compiled_fold import fold_backend; print(fold_backend())"

#: In a fresh interpreter: the fold backend, then ``_logits`` of the
#: default config.
BACKEND_AND_LOGITS = f"""
import sys
sys.path.insert(0, {str(Path(__file__).parents[1])!r})
{BACKEND}
from repro.core import ChunkConfig, EngineConfig
from tests.test_compiled_fold import _logits
print(_logits(EngineConfig(chunk=ChunkConfig(16))).hex())
"""


@pytest.mark.skipif(os.name != "posix", reason="a shell-script compiler")
def test_a_failed_build_runs_the_numpy_fold_and_leaves_no_partial_library(
    tmp_path, request
):
    """A ``cc`` that exits non-zero: the loader says why, answers are
    the NumPy fold's bit for bit, and the build's temp file is gone."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    compiler = bin_dir / "cc"
    compiler.write_text(
        "#!/bin/sh\necho 'cc: error: no space left on device' >&2\nexit 1\n"
    )
    compiler.chmod(0o755)
    path = os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])
    cache = tmp_path / "cache"
    output = _in_a_fresh_process(cache, BACKEND_AND_LOGITS, PATH=path)
    backend, logits = output.splitlines()
    assert backend.startswith("numpy: build failed"), backend
    assert "no space left on device" in backend
    request.getfixturevalue("numpy_fold")
    assert bytes.fromhex(logits) == _logits(EngineConfig(chunk=ChunkConfig(16)))
    # No library and no partial ``*.so.tmp`` is left behind.
    assert list((cache / "repro").iterdir()) == []


@requires_compiler
@pytest.mark.skipif(not hasattr(os, "getuid"), reason="a per-user temp directory")
def test_with_no_usable_cache_directory_the_numpy_fold_runs(tmp_path, request):
    """Neither cache directory can be made: ``$XDG_CACHE_HOME`` lies
    under a regular file, and so does the per-user one in the temp dir
    (its ``repro-<uid>`` is a regular file; a ``TMPDIR`` under a file
    would only send ``tempfile`` back to ``/tmp``).  The loader says so
    and answers are the NumPy fold's bit for bit.  With the temp dir
    usable, it builds there and loads."""
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    temp = tmp_path / "tmp"
    temp.mkdir()
    per_user = temp / f"repro-{os.getuid()}"
    per_user.write_text("")
    cache, env = blocker / "cache", {"TMPDIR": str(temp)}
    backend, logits = _in_a_fresh_process(cache, BACKEND_AND_LOGITS, **env).splitlines()
    assert backend == "numpy: no writable cache directory"
    request.getfixturevalue("numpy_fold")
    assert bytes.fromhex(logits) == _logits(EngineConfig(chunk=ChunkConfig(16)))
    per_user.unlink()
    assert _in_a_fresh_process(cache, BACKEND, **env) == "c"
    assert [path.suffix for path in per_user.iterdir()] == [".so"]


@requires_compiler
def test_a_damaged_library_in_the_cache_is_rebuilt(tmp_path):
    """Garbage, or a library cut short, is rebuilt — never loaded."""
    assert _in_a_fresh_process(tmp_path, BACKEND) == "c"
    (library,) = (tmp_path / "repro").glob("fold-*.so")
    whole = library.read_bytes()
    for damaged in (b"not a shared object", whole[: len(whole) // 2], whole[:-1]):
        replacement = library.with_suffix(".damaged")
        replacement.write_bytes(damaged)
        os.replace(replacement, library)  # a new file, as a crash would leave
        assert _in_a_fresh_process(tmp_path, BACKEND) == "c"
        assert library.read_bytes()[:4] == b"\x7fELF"
        assert library.stat().st_size == len(whole)


@requires_compiler
def test_two_processes_building_at_once_both_load_a_whole_library(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", BACKEND], env=env, stdout=subprocess.PIPE, text=True
        )
        for _ in range(2)
    ]
    outputs = [process.communicate(timeout=300)[0].strip() for process in processes]
    assert outputs == ["c", "c"]
    assert [path.suffix for path in (tmp_path / "repro").iterdir()] == [".so"]


def _worker_scan(m_in, m_out, u):
    """In a spawned worker: its fold backend and a column scan."""
    solver = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(64), dtype=np.float32)
    partial, stats = solver.partial_output(u, zero_skip=ZeroSkipConfig(0.1))
    return compiled_fold.fold_backend(), partial, stats.rows_computed


@requires_compiler
@pytest.mark.process_pool
def test_a_spawned_worker_loads_its_own_copy_and_folds_bitwise_alike():
    rng = np.random.default_rng(0)
    m_in, m_out = (rng.normal(size=(500, 16)).astype(np.float32) for _ in range(2))
    u = rng.normal(size=(4, 16)).astype(np.float32)
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        backend, partial, kept = pool.submit(_worker_scan, m_in, m_out, u).result(
            timeout=300
        )
    assert backend == "c"
    _, here, kept_here = _worker_scan(m_in, m_out, u)
    assert kept == kept_here
    for name in ("weighted", "denom", "log_max"):
        assert getattr(partial, name).tobytes() == getattr(here, name).tobytes()


@requires_compiler
@pytest.mark.parametrize("threshold", (0.0, 0.1))
def test_one_shard_arrangements_are_bitwise_equal_on_the_compiled_fold(threshold):
    """Column ≡ one-shard sharded ≡ one-shard fused: the compiled fold's
    reductions run in fixed lanes, so where a tile sits in memory
    cannot show in the bits.  (Process ≡ serial shards is
    ``tests/test_core_multicore.py``, on whichever fold is active.)"""
    rng = np.random.default_rng(1)
    m_in, m_out = rng.normal(size=(2, 700, 12))
    u = rng.normal(size=(5, 12))
    skip = ZeroSkipConfig(threshold)
    kwargs = dict(chunk=ChunkConfig(96), dtype=np.float32)
    fused = ExecutionConfig(fused=True)
    solvers = [
        ColumnMemNN(m_in, m_out, **kwargs),
        ShardedMemNN(m_in, m_out, num_shards=1, **kwargs),
        ShardedMemNN(m_in, m_out, num_shards=1, execution=fused, **kwargs),
    ]
    outputs = [solver.output(u, zero_skip=skip).output.tobytes() for solver in solvers]
    assert outputs[1:] == outputs[:1] * 2
