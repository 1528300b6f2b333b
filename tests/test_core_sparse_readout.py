"""Zero-skipping that skips: the tile kernel's sparse ``M_OUT`` readout.

A tile at least ``SPARSE_MIN_COLUMNS`` wide whose kept columns are at
most one in ``SPARSE_MAX_KEPT_INVERSE`` takes its weighted sum over the
kept columns only (§3.2: skipped output rows are not read).  The dense
reference is the seed loop of ``test_core_column_reference.py``, which
multiplies by the keep-mask and runs the full GEMM: the two readouts
sum the same products in a different order, so they agree to rounding,
decide the same masks bit for bit (the denominator is accumulated
before the readout) and report the same operation ledger.

The two readouts are the NumPy fold's, so the tests that hold them to
the seed loop pin it; the compiled fold reads only kept rows on every
tile (``test_skipped_output_rows_are_not_read`` runs the active fold).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChunkConfig,
    ColumnMemNN,
    ExecutionConfig,
    ShardedMemNN,
    ZeroSkipConfig,
)
from repro.core.column import (
    SPARSE_MAX_KEPT_INVERSE,
    SPARSE_MIN_COLUMNS,
    column_op_stats,
)

from .test_core_column_reference import seed_partial

NQ, ED = 3, 8
#: Readouts of one dtype agree to a few ulps of the largest partial sum.
TOLERANCE = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-5}


def _hot_cold_memory(rng, tile_widths, hot_counts):
    """Questions and a memory, one tile per entry: ``hot_counts[t]``
    rows of tile ``t`` score ~ +12 against every question, the rest
    ~ -12, so a positive threshold keeps exactly the hot columns."""
    u = rng.normal(size=(NQ, ED)) * 0.1
    u[:, 0] = 3.0
    blocks = []
    for width, hot in zip(tile_widths, hot_counts):
        block = rng.normal(size=(width, ED))
        block[:, 0] = -4.0
        block[rng.choice(width, size=hot, replace=False), 0] = 4.0
        blocks.append(block)
    m_in = np.vstack(blocks)
    return u, m_in, rng.normal(size=m_in.shape)


@st.composite
def tiled_problem(draw):
    width = draw(
        st.sampled_from(
            [SPARSE_MIN_COLUMNS - 1, SPARSE_MIN_COLUMNS, SPARSE_MIN_COLUMNS + 1, 200]
        )
    )
    eighth = width // SPARSE_MAX_KEPT_INVERSE
    # Per tile: nothing kept, one row, either side of the density
    # switch, everything.
    hot = st.sampled_from([0, 1, eighth, eighth + 1, width])
    hot_counts = draw(st.lists(hot, min_size=1, max_size=3))
    tail = draw(st.integers(min_value=0, max_value=width - 1))
    widths = [width] * len(hot_counts)
    if tail:
        widths.append(tail)
        hot_counts.append(draw(st.integers(min_value=0, max_value=min(tail, 2))))
    return (
        width,
        widths,
        hot_counts,
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
        draw(st.sampled_from([np.float64, np.float32])),
        # 0 disables skipping; 1e-300 keeps every column; the others
        # keep the hot columns only.
        draw(st.sampled_from([0.0, 1e-300, 0.01, 0.5])),
    )


@pytest.mark.usefixtures("numpy_fold")
@settings(max_examples=80, deadline=None)
@given(tiled_problem())
def test_sparse_readout_equals_dense_readout(problem):
    width, widths, hot_counts, seed, dtype, threshold = problem
    u, m_in, m_out = _hot_cold_memory(
        np.random.default_rng(seed), widths, hot_counts
    )
    skip = ZeroSkipConfig(threshold=threshold)
    solver = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(width), dtype=dtype)
    partial, stats = solver.partial_output(u, zero_skip=skip)
    weighted, denom, log_max, rows_kept = seed_partial(
        m_in, m_out, u, width, dtype, skip if skip.enabled else None
    )
    # The running state that decides the masks is untouched ...
    assert partial.denom.tobytes() == denom.tobytes()
    assert partial.log_max.tobytes() == log_max.tobytes()
    # ... so is the whole ledger, not just rows_kept ...
    assert stats == column_op_stats(
        NQ, len(m_in), ED, rows_kept, width, np.dtype(dtype)
    )
    # ... and the weighted sum differs by summation order only.
    np.testing.assert_allclose(
        partial.weighted,
        weighted,
        rtol=0,
        atol=TOLERANCE[np.dtype(dtype)] * max(1.0, np.abs(weighted).max()),
    )


#: Every arrangement folds through the same ``TileState``.
ARRANGEMENTS = {
    "column": (ColumnMemNN, {}),
    "sharded": (ShardedMemNN, {"num_shards": 2}),
    "fused": (
        ShardedMemNN,
        {"num_shards": 2, "execution": ExecutionConfig(fused=True)},
    ),
}


@pytest.mark.parametrize("arrangement", ARRANGEMENTS.values(), ids=ARRANGEMENTS.keys())
def test_skipped_output_rows_are_not_read(rng, arrangement):
    """Poison every ``M_OUT`` row no question keeps: a readout that
    multiplies it by a zero weight turns the output into NaN, one that
    skips it never sees the poison."""
    width = 256
    u, m_in, m_out = _hot_cold_memory(rng, [width] * 4, [3, 0, 1, 2])
    skip = ZeroSkipConfig(threshold=0.01)
    kept = (u @ m_in.T > 0).any(axis=0)  # the hot rows
    assert 0 < kept.sum() <= len(kept) // SPARSE_MAX_KEPT_INVERSE
    poisoned = np.where(kept[:, None], m_out, np.nan)

    solver_type, keywords = arrangement
    clean, result = (
        solver_type(m_in, out, chunk=ChunkConfig(width), **keywords).output(
            u, zero_skip=skip
        )
        for out in (m_out, poisoned)
    )
    assert result.stats.rows_computed == NQ * kept.sum()
    assert np.isfinite(result.output).all()
    assert result.output.tobytes() == clean.output.tobytes()


@pytest.mark.usefixtures("numpy_fold")
def test_narrow_tiles_keep_the_dense_readout(rng):
    """Below the width guard the kernel multiplies by the mask and runs
    the full GEMM, bit for bit the seed loop — however few columns are
    kept (finding and gathering them costs more than a narrow GEMM)."""
    width = SPARSE_MIN_COLUMNS - 1
    u, m_in, m_out = _hot_cold_memory(rng, [width, width], [1, 0])
    skip = ZeroSkipConfig(0.01)
    partial, _ = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(width)).partial_output(
        u, zero_skip=skip
    )
    weighted, *_ = seed_partial(m_in, m_out, u, width, np.float64, skip)
    assert partial.weighted.tobytes() == weighted.tobytes()


class TestRunScan:
    def test_run_scan_equals_scan_of_the_gathered_rows(self, rng):
        """Runs packed and split into ``chunk_size`` tiles are the same
        tiles a kernel over the gathered rows scans (the score GEMM
        runs per piece, hence rounding-close rather than bitwise), with
        the dense and the sparse readout."""
        m_in, m_out = rng.normal(size=(2, 900, ED))
        u = rng.normal(size=(NQ, ED))
        runs = np.array([[5, 140], [300, 301], [310, 700], [880, 900]])
        rows = np.concatenate([np.arange(a, b) for a, b in runs])
        chunk = ChunkConfig(SPARSE_MIN_COLUMNS)
        for skip in (None, ZeroSkipConfig(0.2), ZeroSkipConfig(0.5)):
            scanned = ColumnMemNN(m_in, m_out, chunk=chunk).output(
                u, zero_skip=skip, runs=runs
            )
            gathered = ColumnMemNN(m_in[rows], m_out[rows], chunk=chunk).output(
                u, zero_skip=skip
            )
            np.testing.assert_allclose(
                scanned.output, gathered.output, rtol=1e-12, atol=1e-12
            )
            assert scanned.stats == gathered.stats
