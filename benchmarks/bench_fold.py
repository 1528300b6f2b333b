"""The subnormal cliff of the compiled tile fold: a peaked tile must fold
at a flat one's cost (DESIGN.md §10, "The subnormal cliff").

A question copied from a memory row scores its own row ~100 above most
others, so most shifted scores of its tile fall below ``exp_floor``.
The compiled fold writes those cells as 0: neither its float64 sum nor
the th = 0 weighted-sum GEMM after it meets a subnormal.  Writing them
as ``exp(floor)`` ~ 8.7e-38 instead kept ``exp`` normal but not the
GEMM: that value times any ``M_OUT`` entry below 0.135 in magnitude is
subnormal, and a peaked tile folded at about twice a flat one's cost.

The gate replays one peaked and one flat 16 x 1000 float32 tile (the
shape ``table1_batch`` and ``out_of_core_stream`` fold; ``M_OUT`` rows
are bags of N(0, 0.1) vectors) through ``TileState.fold`` at th 0 and
0.1, alternating the four cases round by round and keeping each one's
fastest fold.  It is wall-clock, so it runs by hand (``make bench``),
and only on the compiled fold.
"""

import time

import numpy as np
import pytest

from repro.core import compiled_fold
from repro.core.column import TileState, exp_floor
from repro.report import format_table

pytestmark = pytest.mark.skipif(
    compiled_fold.fold_backend() != "c", reason=compiled_fold.fold_backend()
)

NQ, N, ED, WORDS, VOCAB = 16, 1000, 48, 8, 8192
ROUNDS, REPLAYS = 7, 20
THRESHOLDS = (0.0, 0.1)
#: At th 0 a peaked tile may cost at most this many flat ones.
GATE = 1.25


def _tiles():
    """``{kind: (scores, m_out)}`` for a peaked and a flat tile."""
    rng = np.random.default_rng(0)
    words = rng.integers(1, VOCAB, size=(N, WORDS))
    m_in = rng.normal(0.0, 0.5, (VOCAB, ED))[words].sum(axis=1).astype(np.float32)
    m_out = rng.normal(0.0, 0.1, (VOCAB, ED))[words].sum(axis=1).astype(np.float32)
    questions = {
        "peaked": m_in[rng.integers(0, N, size=NQ)],
        "flat": rng.normal(0.0, 0.1, (NQ, ED)).astype(np.float32),
    }
    return {kind: (u @ m_in.T, m_out) for kind, u in questions.items()}


def _floored_share(scores):
    shifted = scores - scores.max(axis=1, keepdims=True)
    return float(np.mean(shifted < exp_floor(scores.dtype)))


def _fastest_fold(state, scores, m_out, block):
    """The fastest of REPLAYS first folds of ``scores``, in seconds."""
    best = float("inf")
    for _ in range(REPLAYS):
        np.copyto(block, scores)
        state.restart()
        start = time.perf_counter()
        state.fold(block, m_out)
        best = min(best, time.perf_counter() - start)
    return best


def test_a_peaked_tile_folds_at_a_flat_ones_cost(benchmark, report):
    tiles = _tiles()
    cases = [(kind, th) for th in THRESHOLDS for kind in tiles]
    states = {case: TileState(NQ, ED, case[1]) for case in cases}
    block = np.empty((NQ, N), np.float32)

    def run():
        best = dict.fromkeys(cases, float("inf"))
        for round_ in range(ROUNDS):
            for case in cases if round_ % 2 == 0 else cases[::-1]:
                seconds = _fastest_fold(states[case], *tiles[case[0]], block)
                best[case] = min(best[case], seconds)
        return best

    best = benchmark.pedantic(run, iterations=1, rounds=1)
    ratio = best["peaked", 0.0] / best["flat", 0.0]
    report(format_table(
        ["tile", "floored cells", *(f"th {th}" for th in THRESHOLDS)],
        [
            [
                kind,
                f"{_floored_share(scores):.0%}",
                *(f"{best[kind, th] * 1e6:.1f} us" for th in THRESHOLDS),
            ]
            for kind, (scores, _) in tiles.items()
        ],
        title=(
            f"Compiled fold of one {NQ} x {N} float32 tile, best of "
            f"{ROUNDS} x {REPLAYS}: peaked / flat at th 0 = {ratio:.2f}x"
        ),
    ))  # fmt: skip
    benchmark.extra_info["peaked_vs_flat_th0"] = round(ratio, 3)

    # The peaked tile is in the regime the gate is about, the flat one
    # is not, and the M_OUT entries that made products subnormal exist.
    assert _floored_share(tiles["peaked"][0]) > 0.5
    assert _floored_share(tiles["flat"][0]) == 0
    assert np.mean(np.abs(tiles["peaked"][1]) < 0.135) > 0.3
    assert ratio <= GATE, (
        f"a peaked tile folds at {ratio:.2f}x a flat one's cost at th 0 "
        f"(gate {GATE}x)"
    )
