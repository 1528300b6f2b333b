"""The tile kernel against a textbook running-max loop, bitwise.

``TileState`` lets its first tile *initialise* the running state and
folds only the later tiles into it.  The reference below is the loop
it replaced — ``-inf``/zero initial state, every chunk (the first
included) rescaled into it — kept here so that any change to the
kernel's arithmetic, its chunk boundaries or its zero-skip decisions
shows up as a bit difference, not a tolerance.

Every comparison runs through all three ``K = 1`` arrangements of that
kernel — ``ColumnMemNN``, a one-shard ``ShardedMemNN`` and its fused
tile sweep — so "column is K = 1 of fused" is an assertion too.

The module pins the NumPy fold: the compiled one sums and exponentiates
in another order and is held to this reference at a tolerance instead
(``tests/test_compiled_fold.py``), bitwise only to itself.

The reference states the two-precision rule outright: each tile's
arithmetic in the memory's dtype, ``(denom, acc)`` float64 across
tiles.  On a float64 memory that is the all-float64 seed loop, bit for
bit what it was; on a float32 one it is what the kernel must equal.
"""

import numpy as np
import pytest

from repro.core import (
    ChunkConfig,
    ColumnMemNN,
    ExecutionConfig,
    ShardedMemNN,
    ZeroSkipConfig,
)

pytestmark = pytest.mark.usefixtures("numpy_fold")

NS, NQ, ED = 13, 4, 8
#: The skip rules, by id; each id names the fold's softmax (the
#: running-max, stable one) and then its skip rule.
SKIPS = {
    "stable-off": None,
    "stable-probability": ZeroSkipConfig(threshold=0.1),
}


def seed_partial(m_in, m_out, u, chunk, dtype, skip):
    """The seed kernel: ``(weighted, denom, log_max, rows_kept)``."""
    dtype = np.dtype(dtype)
    m_in, m_out, u = (np.asarray(a, dtype=dtype) for a in (m_in, m_out, u))
    nq, ed = u.shape
    floor = dtype.type(np.log(np.finfo(dtype).tiny) + 2.0)
    one = dtype.type(1.0)
    log_max = np.full(nq, -np.inf, dtype=dtype)
    denom = np.zeros(nq, dtype=dtype)
    acc = np.zeros((nq, ed), dtype=dtype)
    rows_kept = 0
    for lo in range(0, len(m_in), chunk):
        if lo == chunk:
            # A second tile: what crosses a tile boundary is float64
            # whatever the memory is.
            denom, acc = denom.astype(np.float64), acc.astype(np.float64)
        scores = u @ m_in[lo : lo + chunk].T
        new_max = np.maximum(log_max, scores.max(axis=1))
        with np.errstate(invalid="ignore"):
            scale = np.where(
                np.isneginf(log_max),
                0.0,
                np.exp(np.subtract(log_max, new_max, dtype=np.float64)),
            )
        denom *= scale
        acc *= scale[:, None]
        log_max = new_max
        exp = np.exp(np.maximum(scores - log_max[:, None], floor))
        denom += exp.sum(axis=1)
        if skip is not None:
            log_running = log_max + np.log(denom)
            log_p = scores.astype(np.float64) - log_running[:, None]
            # The cut is clamped to 1: a running-max row is always kept.
            keep = (log_p >= np.log(skip.threshold)) | (exp >= np.nextafter(one, 0))
            exp = exp * keep
            rows_kept += int(np.count_nonzero(keep))
        else:
            rows_kept += scores.size
        acc += exp @ m_out[lo : lo + chunk]
    return acc, denom, log_max, rows_kept


#: The K = 1 arrangements of the tile kernel: constructor + keywords.
ARRANGEMENTS = {
    "column": (ColumnMemNN, {}),
    "sharded": (ShardedMemNN, {"num_shards": 1}),
    "fused": (
        ShardedMemNN,
        {"num_shards": 1, "execution": ExecutionConfig(fused=True)},
    ),
}


def assert_bitwise(actual, expected, what):
    assert actual.dtype == expected.dtype, what
    assert actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


def assert_matches_seed(m_in, m_out, u, chunk, dtype, skip, **tier):
    """Every arrangement against the seed loop; returns the (common)
    partial."""
    weighted, denom, log_max, rows_kept = seed_partial(
        m_in, m_out, np.atleast_2d(u), chunk, dtype, skip
    )
    for name, (solver_type, arrangement) in ARRANGEMENTS.items():
        solver = solver_type(
            m_in,
            m_out,
            chunk=ChunkConfig(chunk_size=chunk),
            dtype=dtype,
            **arrangement,
            **tier,
        )
        partial, stats = solver.partial_output(u, zero_skip=skip)
        assert_bitwise(partial.weighted, weighted, name)
        assert_bitwise(partial.denom, denom, name)
        assert_bitwise(partial.log_max, log_max, name)
        assert stats.rows_computed == rows_kept, name
    return partial


@pytest.fixture
def memories(rng):
    return rng.normal(size=(NS, ED)), rng.normal(size=(NS, ED))


@pytest.mark.parametrize("skip", SKIPS.values(), ids=SKIPS.keys())
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("chunk", [1, 3, NS - 1, NS, NS + 1])
class TestAgainstSeedKernel:
    def test_partial_is_bit_identical(self, memories, rng, chunk, dtype, skip):
        u = rng.normal(size=(NQ, ED))
        assert_matches_seed(*memories, u, chunk, dtype, skip)

    def test_chunk_pipeline_is_bit_identical(
        self, memories, rng, chunk, dtype, skip
    ):
        """The same tiles served through the prefetch pipeline's chunk
        generator (the store-backed solvers' path)."""
        u = rng.normal(size=(NQ, ED))
        assert_matches_seed(
            *memories, u, chunk, dtype, skip, resident_bytes=1 << 20
        )


@pytest.mark.parametrize("skip", SKIPS.values(), ids=SKIPS.keys())
class TestPeeledEdges:
    def test_empty_memory_is_the_identity_partial(self, rng, skip):
        empty = np.zeros((0, ED))
        u = rng.normal(size=(NQ, ED))
        partial = assert_matches_seed(empty, empty, u, 3, np.float64, skip)
        assert not partial.weighted.any() and not partial.denom.any()
        with pytest.raises(ValueError, match="empty denominator"):
            ColumnMemNN(empty, empty).output(u, zero_skip=skip)

    def test_one_row_memory(self, rng, skip):
        m_in, m_out = rng.normal(size=(1, ED)), rng.normal(size=(1, ED))
        u = rng.normal(size=(NQ, ED))
        assert_matches_seed(m_in, m_out, u, 3, np.float64, skip)

    def test_no_questions(self, memories, skip):
        u = np.zeros((0, ED))
        for chunk in (3, NS + 1):
            assert_matches_seed(*memories, u, chunk, np.float64, skip)
        result = ColumnMemNN(*memories).output(u, zero_skip=skip)
        assert result.output.shape == (0, ED)

    def test_later_tile_raises_the_max_for_some_questions_only(self, rng, skip):
        # Question 0 scores 1 then 3 (its max grows in the second tile);
        # question 1 scores 5 then 2 (its max stays).
        m_in = np.array([[1.0, 5.0], [3.0, 2.0], [0.5, 0.5]])
        m_out = rng.normal(size=(3, 2))
        u = np.eye(2)
        partial = assert_matches_seed(m_in, m_out, u, 1, np.float64, skip)
        np.testing.assert_array_equal(partial.log_max, [3.0, 5.0])
