"""The subnormal cliff of the compiled tile fold and of the gate's
softmax margin, the answer layer's per-call cost, and what an engine hop
pays beside its GEMMs and compiled calls (DESIGN.md §10, "The subnormal
cliff", "The answer layer" and "Tile plan").

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
0.1, the four cases taking turns fold by fold; each round keeps each
case's fastest fold, and the gate reads the median of the rounds'
peaked / flat ratios (the hop gate's rule).

The answer layer's rows time one projection (logits and argmax) and one
gate check (logits and softmax margin) per call, BLAS + NumPy against
the compiled layer, at the ``W`` shapes of docqa, table1 and story: hot,
and cold after a sweep that evicts L2.  Its gate mirrors the fold's: a
check of peaked logits (most shifted logits below ``exp_floor``) may
cost at most 1.25x a flat one, under both layers.

The hop gate times ``ColumnMemNN.output(u, zero_skip, u_tile=...)`` over
the ``table1_batch`` memory (8 192 rows in 9 tiles, 16 questions, th
0.1) — one ``repro_scan`` call — against a bare loop of ``np.matmul``
and ``repro_fold`` calls on pointers taken beforehand, and against the
GEMMs alone, the three taking turns replay by replay: in the median
round the hop may cost at most 1.10x the bare loop.  Its table splits a
tile into GEMM, fold and glue (what the hop costs beside the bare loop:
negative when the scan's in-C GEMM calls beat the loop's).

Everything here is wall-clock, so it runs by hand (``make bench``), and
only where the compiled fold builds; run it with
``OPENBLAS_NUM_THREADS=1``, as perfbench runs, or a two-thread ``sgemm``
on a two-vCPU host reads milliseconds.
"""

import ctypes
import time

import numpy as np
import pytest

from repro.core import ChunkConfig, ColumnMemNN, ZeroSkipConfig, compiled_fold
from repro.core.column import TileState, exp_floor
from repro.core.early_exit import AnswerLayer
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


def _fold_seconds(state, scores, m_out, block):
    """One first fold of ``scores``, in seconds."""
    np.copyto(block, scores)
    state.restart()
    start = time.perf_counter()
    state.fold(block, m_out)
    return time.perf_counter() - start


def test_a_peaked_tile_folds_at_a_flat_ones_cost(benchmark, report):
    tiles = _tiles()
    cases = [(kind, th) for th in THRESHOLDS for kind in tiles]
    states = {case: TileState(NQ, ED, case[1]) for case in cases}
    block = np.empty((NQ, N), np.float32)

    def run():
        """Per round, each case's fastest of REPLAYS, the cases taking
        turns fold by fold so that a round's minimums see the same host."""
        rounds = []
        for round_ in range(ROUNDS):
            best = dict.fromkeys(cases, float("inf"))
            for _ in range(REPLAYS):
                for case in cases if round_ % 2 == 0 else cases[::-1]:
                    seconds = _fold_seconds(states[case], *tiles[case[0]], block)
                    best[case] = min(best[case], seconds)
            rounds.append(best)
        return rounds

    rounds = benchmark.pedantic(run, iterations=1, rounds=1)
    ratios = {
        th: float(np.median([best["peaked", th] / best["flat", th] for best in rounds]))
        for th in THRESHOLDS
    }
    ratio = ratios[0.0]
    median = {case: float(np.median([best[case] for best in rounds])) for case in cases}
    report(format_table(
        ["tile", "floored cells", *(f"th {th}" for th in THRESHOLDS)],
        [
            [
                kind,
                f"{_floored_share(scores):.0%}",
                *(f"{median[kind, th] * 1e6:.1f} us" for th in THRESHOLDS),
            ]
            for kind, (scores, _) in tiles.items()
        ]
        + [["peaked / flat", "", *(f"{ratios[th]:.3f}x" for th in THRESHOLDS)]],
        title=(
            f"Compiled fold of one {NQ} x {N} float32 tile, median over "
            f"{ROUNDS} rounds of each round's best of {REPLAYS}: peaked / "
            f"flat at th 0 = {ratio:.3f}x (median of the rounds' ratios)"
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


#: ``W`` shapes (answers, ed) of the workloads' answer layers.
ANSWER_SHAPES = {"docqa": (5975, 64), "table1": (2048, 48), "story": (140, 48)}
ANSWER_NQ = (1, 2, 4, 8, 16)
#: Bytes read between cold calls: twice a 2 MiB L2.
SWEEP_BYTES = 4 << 20
CALLS = 50


def _answer_layers(monkeypatch, weight):
    """``{"numpy": ..., "c": ...}``: the same float32 layer as BLAS +
    NumPy (the library hidden while it is made) and compiled."""
    with monkeypatch.context() as patch:
        patch.setattr(compiled_fold, "kernels", lambda: None)
        numpy_layer = AnswerLayer(weight, np.float32)
    return {"numpy": numpy_layer, "c": AnswerLayer(weight, np.float32)}


def _per_call(call, cold, sweep):
    """Median seconds of CALLS calls, each after a sweep when ``cold``."""
    seconds = []
    for _ in range(CALLS):
        if cold:
            sweep.sum()
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return float(np.median(seconds))


def test_answer_layer_per_call(monkeypatch, benchmark, report):
    rng = np.random.default_rng(0)
    sweep = np.ones(SWEEP_BYTES // 8)
    cases = []
    for name, (na, ed) in ANSWER_SHAPES.items():
        weight = np.asfortranarray(rng.normal(0.0, 1 / np.sqrt(ed), (na, ed)))
        layers = _answer_layers(monkeypatch, weight)
        for nq in ANSWER_NQ:
            states = rng.normal(size=(nq, ed))
            logits = np.empty((nq, na), np.float32)
            cases.append((name, nq, layers, states, logits))

    def run():
        rows = []
        for name, nq, layers, states, logits in cases:
            row = [name, nq]
            for cold in (False, True):
                for layer in layers.values():
                    row.append(_per_call(lambda: layer.project(states), cold, sweep))
                for layer in layers.values():
                    row.append(
                        _per_call(lambda: layer.margin(states, logits), cold, sweep)
                    )
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    report(format_table(
        ["W", "nq", *(
            f"{what} {layer} {heat}"
            for heat in ("hot", "cold")
            for what in ("project", "gate")
            for layer in ("numpy", "c")
        )],
        [[name, nq, *(f"{t * 1e6:.1f}" for t in times)] for name, nq, *times in rows],
        title="Answer layer per call (us, median of 50): BLAS + NumPy vs compiled",
    ))  # fmt: skip


def test_a_peaked_gate_check_costs_a_flat_ones(monkeypatch, benchmark, report):
    """The margin of peaked logits (most cells' exp below the float32
    normal range) at a flat one's cost: NumPy's float32 exp slows ~6x on
    subnormal outputs unless the shifted logits are floored."""
    na, ed = ANSWER_SHAPES["docqa"]
    nq = 4
    rng = np.random.default_rng(1)
    weight = np.asfortranarray(rng.normal(0.0, 1 / np.sqrt(ed), (na, ed)))
    layers = _answer_layers(monkeypatch, weight)
    direction = rng.normal(size=(nq, ed))
    states = {"peaked": 40 * direction, "flat": 0.1 * direction}
    logits = np.empty((nq, na), np.float32)
    cases = [(kind, layer) for layer in layers for kind in states]

    def run():
        best = dict.fromkeys(cases, float("inf"))
        for round_ in range(ROUNDS):
            for kind, layer in cases if round_ % 2 == 0 else cases[::-1]:
                for _ in range(REPLAYS):
                    start = time.perf_counter()
                    layers[layer].margin(states[kind], logits)
                    seconds = time.perf_counter() - start
                    best[kind, layer] = min(best[kind, layer], seconds)
        return best

    best = benchmark.pedantic(run, iterations=1, rounds=1)
    floored = {}
    for kind, u in states.items():
        shifted, _ = layers["numpy"].project(u)
        shifted -= shifted.max(axis=1, keepdims=True)
        floored[kind] = float(np.mean(shifted < exp_floor(np.dtype(np.float32))))
    ratios = {layer: best["peaked", layer] / best["flat", layer] for layer in layers}
    report(format_table(
        ["logits", "below the floor", *(f"{layer} gate" for layer in layers)],
        [
            [kind, f"{floored[kind]:.0%}",
             *(f"{best[kind, layer] * 1e6:.1f} us" for layer in layers)]
            for kind in states
        ],
        title=(
            f"Gate check, {nq} x {na}, best of {ROUNDS} x {REPLAYS}: peaked / flat "
            + ", ".join(f"{layer} {ratio:.2f}x" for layer, ratio in ratios.items())
        ),
    ))  # fmt: skip
    benchmark.extra_info["gate_peaked_vs_flat"] = {
        layer: round(ratio, 3) for layer, ratio in ratios.items()
    }
    assert floored["peaked"] > 0.5 and floored["flat"] == 0
    for layer, ratio in ratios.items():
        assert ratio <= GATE, (
            f"a peaked gate check costs {ratio:.2f}x a flat one under the "
            f"{layer} layer (gate {GATE}x)"
        )


#: The ``table1_batch`` memory: rows, chunk, threshold.
HOP_ROWS, HOP_CHUNK, HOP_THRESHOLD = 8192, 1000, 0.1
#: A hop may cost at most this many bare loops of its GEMMs and calls.
HOP_GATE = 1.10
HOP_ROUNDS = 21


def _table1_hop():
    """``(solver, u)``: a resident ``table1_batch``-shaped memory and 16
    questions copied from its rows."""
    rng = np.random.default_rng(0)
    words = rng.integers(1, VOCAB, size=(HOP_ROWS, WORDS))
    m_in = rng.normal(0.0, 0.5, (VOCAB, ED))[words].sum(axis=1).astype(np.float32)
    m_out = rng.normal(0.0, 0.1, (VOCAB, ED))[words].sum(axis=1).astype(np.float32)
    solver = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(HOP_CHUNK), dtype=np.float32)
    return solver, m_in[rng.integers(0, HOP_ROWS, size=NQ)].astype(np.float64)


def _bare_hop(solver, u, u_tile):
    """``(hop, gemms)``: the hop's score GEMMs and compiled calls with
    nothing around them — views, workspace, fold state and pointers made
    here, once — and its GEMMs alone."""
    library = compiled_fold.kernels()
    m_in, m_out = solver.store.m_in, solver.store.m_out
    starts = range(0, HOP_ROWS, HOP_CHUNK)
    tiles_in = [m_in[a : a + HOP_CHUNK].T for a in starts]
    tiles_out = [m_out[a : a + HOP_CHUNK] for a in starts]
    workspace = np.empty((NQ, HOP_CHUNK), np.float32)
    blocks = [workspace[:, : len(out)] for out in tiles_out]
    state = np.zeros(NQ * (ED + 2))
    base = state.ctypes.data
    fold_state = compiled_fold.FoldState(
        NQ, ED, base, base + 8 * NQ, base + 8 * NQ * (ED + 1), HOP_THRESHOLD,
        float(exp_floor(np.dtype(np.float32))), 0,
    )  # fmt: skip
    address = ctypes.addressof(fold_state)
    capsules, pointers = compiled_fold.structs([*blocks, *tiles_out, u, u_tile])
    scores_at, rows_at = pointers[: len(blocks)], pointers[len(blocks) : -2]
    fold, finish = library.repro_fold, library.repro_hop
    matmul = np.matmul
    calls = list(zip(tiles_in, blocks, scores_at, rows_at))

    def hop():
        fold_state.folded = 0
        for tile_in, block, block_at, rows in calls:
            matmul(u_tile, tile_in, out=block)
            fold(address, block_at, rows)
        finish(address, *pointers[-2:])

    def gemms():
        for tile_in, block, _, _ in calls:
            matmul(u_tile, tile_in, out=block)

    hop.keep = (capsules, state, fold_state)
    return hop, gemms


def test_a_hop_costs_its_gemms_and_compiled_calls(benchmark, report):
    solver, start = _table1_hop()
    zero_skip = ZeroSkipConfig(HOP_THRESHOLD)
    states = {name: (start.copy(), start.astype(np.float32)) for name in ("hop", "bare")}
    bare, gemms = _bare_hop(solver, *states["bare"])
    u, u_tile = states["hop"]
    runs = {
        "hop": lambda: solver.output(u, zero_skip, u_tile=u_tile),
        "bare": bare,
        "gemms": gemms,
    }
    # The same arithmetic: the hop and the bare loop end in equal states.
    for name in ("hop", "bare"):
        runs[name]()
    assert states["hop"][0].tobytes() == states["bare"][0].tobytes()

    def run():
        """Per round, each case's fastest of REPLAYS, the cases taking
        turns replay by replay so that a round's three minimums see the
        same host."""
        rounds = []
        for round_ in range(HOP_ROUNDS):
            best = dict.fromkeys(runs, float("inf"))
            for _ in range(REPLAYS):
                for name in runs if round_ % 2 == 0 else list(runs)[::-1]:
                    for hop_u, hop_tile in states.values():
                        np.copyto(hop_u, start)
                        np.copyto(hop_tile, start)
                    began = time.perf_counter()
                    runs[name]()
                    best[name] = min(best[name], time.perf_counter() - began)
            rounds.append(best)
        return rounds

    rounds = benchmark.pedantic(run, iterations=1, rounds=1)
    tiles = -(-HOP_ROWS // HOP_CHUNK)
    ratio = float(np.median([best["hop"] / best["bare"] for best in rounds]))
    parts = {
        "GEMM": [best["gemms"] for best in rounds],
        "fold": [best["bare"] - best["gemms"] for best in rounds],
        "glue": [best["hop"] - best["bare"] for best in rounds],
    }
    per_hop = {part: float(np.median(times)) for part, times in parts.items()}
    report(format_table(
        ["part", "per tile", "per hop"],
        [[part, f"{t / tiles * 1e6:.1f} us", f"{t * 1e6:.1f} us"] for part, t in per_hop.items()],
        title=(
            f"A {tiles}-tile hop, {NQ} x {HOP_ROWS} float32, th {HOP_THRESHOLD}, "
            f"median over {HOP_ROUNDS} rounds of each round's best of {REPLAYS}: "
            f"hop / bare loop = {ratio:.3f}x"
        ),
    ))  # fmt: skip
    benchmark.extra_info["hop_vs_bare"] = round(ratio, 3)
    assert ratio <= HOP_GATE, (
        f"a hop costs {ratio:.3f}x the bare loop of its GEMMs and compiled "
        f"calls (gate {HOP_GATE}x)"
    )
