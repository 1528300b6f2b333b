"""Top-k retrieval tier: sublinear attention time at a held recall floor.

The tier's claim is complementary to MnnFast's zero-skipping
(§3.2, Fig. 6): the attention mass of a MANN concentrates on a few
memory rows, so an IVF index over ``M_IN`` can *retrieve* candidate
rows in ``O(nlist·ed)`` and hand only those to the exact lazy-softmax
column kernel — ``O(candidates·ed)`` instead of ``O(ns·ed)`` per pass,
sublinear in ``ns`` at the default ``nlist ≈ √ns`` sizing.

This benchmark sweeps the memory size over a 64x range on a topical
workload (:func:`repro.index.harness.synthetic_topical_workload` — the
concentrated-attention regime Fig. 6 documents).  At each size it
first **calibrates the operating point**: ``nprobe`` is walked up a
ladder until both quality floors hold (answer agreement with the
exact engine >= 0.99, mean attention-mass recall >= 0.95) — the
ANN-benchmarks methodology, because a fixed ``nprobe`` probes an
ever-smaller *fraction* of the growing ``nlist ≈ √ns`` cluster table
and cannot hold recall across a 64x sweep.  It then measures, at the
calibrated point:

* **attention wall-clock**, solver-level (index already built, recall
  measurement off), exact column kernel vs. the top-k tier, over
  small question batches — candidates are a *batch union*, so small
  batches are where the tier's candidate set stays tight.  Both run
  the hop the engine serves: float32 memories (the compiled fold) and
  the in-place ``u += o`` of ``output(u, zero_skip, u_tile=...)``;
* the quality metrics themselves (agreement via engine answers,
  recall via a separate ``measure_recall`` engine, so the timed path
  never pays the full-scan audit).

Acceptance: the floors hold at every size, and the top-k time grows
sublinearly — the largest/smallest time ratio stays under half the
64x size ratio.  The floors are deterministic and tier-1 holds them
on a smaller grid (``tests/test_topk_recall.py``); the time ratio and
the speed-up are wall-clock and live only here.

The second bench, ``test_topk_crossover`` (``make topk-crossover``),
is the sweep ``TopKConfig.min_rows`` is set from: ``engine.answer``
time, exact scan against the tier, on perfbench's ``docqa_sessions``
surrogate grown from 2 048 to 32 768 rows, at nq 1/4/8, each call next
to one host-reference call (``perfbench/host_ref.py``).  The tier runs
at ``with_topk()``'s sizing and at docqa's (nlist 64, nprobe 16).  Its
gate: at twice ``min_rows`` the default-sized tier answers nq 4 no
slower than the exact scan.  Run it with ``OPENBLAS_NUM_THREADS=1``, as
perfbench pins BLAS.
"""

import sys
import time
from pathlib import Path

import numpy as np

from repro.core import (
    ChunkConfig, ColumnMemNN, EngineConfig, EngineWeights, MemNNConfig, TopKConfig,
)  # fmt: skip
from repro.core.engine import MnnFastEngine
from repro.docqa import docqa_network, docqa_weights, generate_queries, synthetic_corpus
from repro.index import TopKMemNN
from repro.index.harness import synthetic_topical_workload
from repro.report import format_table

sys.path.insert(0, str(Path(__file__).resolve().parent / "perfbench"))
from host_ref import HostRef, RefSpec  # noqa: E402

#: Memory sizes swept — largest is 64x the smallest.
SIZES = (4_096, 32_768, 262_144)
#: ed=64: the workload's sqrt(ns) topics (512 at the largest size) need
#: the dimensions to separate — at ed=32 centroid inner products
#: overlap enough that holding the floors forces nprobe up the ladder
#: with ns, i.e. a constant probed *fraction* and no sublinearity.
ED, NW, VOCAB = 64, 8, 4_000
#: Extra Lloyd iterations align clusters to topics at the largest
#: sizes; build cost is off the timed path (the index is reused).
KMEANS_ITERS = 12
#: Questions per kernel pass: the tier unions candidates across the
#: batch, so sublinear serving lives at small batch sizes.
NQ_BATCH = 8
NUM_BATCHES = 16  # 128 questions per size for the agreement statistic
#: Calibration ladder: smallest nprobe that holds both floors wins.
NPROBE_LADDER = (4, 8, 16, 32, 64)
REPEATS = 5
WEIGHT_SCALE = 0.35  # peaked-attention operating point (cf. Fig. 6)

#: The crossover sweep: memory sizes, batch sizes, timed rounds per cell.
CROSSOVER_SIZES = (2_048, 4_096, 8_192, 16_384, 32_768)
CROSSOVER_NQ = (1, 4, 8)
CROSSOVER_ROUNDS = 40

RECALL_FLOOR = 0.95
AGREEMENT_FLOOR = 0.99
#: Sublinearity acceptance: t(max)/t(min) under half the ns ratio.
SUBLINEAR_FACTOR = 0.5


def _best_of(fn):
    """Min wall-clock seconds over REPEATS after one warm-up call."""
    fn()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _hop(solver, u, zero_skip=None):
    """One engine hop over ``solver``: the float64 state ``u`` (copied)
    and its float32 narrowing advance in place, as
    :meth:`MnnFastEngine.answer` runs them."""
    state = u.copy()
    solver.output(state, zero_skip, u_tile=state.astype(np.float32))


def _quality_at(nprobe, config, weights, stories, batches):
    """(agreement, recalls, fractions) of the tier at one nprobe."""
    base = EngineConfig(algorithm="column")
    exact_engine = MnnFastEngine(config, weights, engine_config=base)
    topk_engine = MnnFastEngine(
        config, weights,
        engine_config=base.with_topk(
            nprobe=nprobe, min_rows=0, measure_recall=True,
            kmeans_iters=KMEANS_ITERS,
        ),
    )
    for engine in (exact_engine, topk_engine):
        engine.store_story(stories)
    agree = 0
    recalls, fractions = [], []
    for batch in batches:
        exact = exact_engine.answer(batch)
        topk = topk_engine.answer(batch)
        agree += int(np.sum(exact.answer_ids == topk.answer_ids))
        for s in topk.tier_stats()["index"]:
            if s is not None:
                fractions.append(s.candidate_fraction)
                if s.recall is not None:
                    recalls.append(s.recall)
    total = sum(len(batch) for batch in batches)
    return agree / total, recalls, fractions, exact_engine


def _measure_size(ns: int) -> dict:
    config = MemNNConfig(
        embedding_dim=ED, num_sentences=ns, num_questions=NQ_BATCH,
        vocab_size=VOCAB, max_words=NW, hops=1,
    )
    rng = np.random.default_rng(ns)
    weights = EngineWeights.random(config, rng=rng, scale=WEIGHT_SCALE)
    stories, questions = synthetic_topical_workload(
        config, NQ_BATCH * NUM_BATCHES, rng=rng
    )
    batches = [
        questions[i * NQ_BATCH:(i + 1) * NQ_BATCH] for i in range(NUM_BATCHES)
    ]

    # --- calibrate nprobe to the quality floors -------------------------
    for nprobe in NPROBE_LADDER:
        agreement, recalls, fractions, exact_engine = _quality_at(
            nprobe, config, weights, stories, batches
        )
        if agreement >= AGREEMENT_FLOOR and np.mean(recalls) >= RECALL_FLOOR:
            break
    else:
        raise AssertionError(
            f"ns={ns}: no nprobe in {NPROBE_LADDER} holds agreement >= "
            f"{AGREEMENT_FLOOR} and recall >= {RECALL_FLOOR} "
            f"(last: {agreement:.3f} / {np.mean(recalls):.3f})"
        )

    # --- wall-clock, solver-level (index pre-built, recall audit off) ---
    m_in, m_out = exact_engine.memories
    chunk = ChunkConfig()
    topk_cfg = EngineConfig(algorithm="column").with_topk(
        nprobe=nprobe, min_rows=0, kmeans_iters=KMEANS_ITERS
    )
    exact_solver = ColumnMemNN(m_in, m_out, chunk=chunk, dtype=np.float32)
    topk_solver = TopKMemNN(
        m_in, m_out, config=topk_cfg.topk, chunk=chunk, dtype=np.float32
    )
    u_batches = [exact_engine.embed_question(batch)[0] for batch in batches]

    def run(solver):
        for u in u_batches:
            _hop(solver, u)

    exact_seconds = _best_of(lambda: run(exact_solver))
    topk_seconds = _best_of(lambda: run(topk_solver))
    index = topk_solver.index

    return {
        "ns": ns,
        "nlist": index.nlist if index is not None else 0,
        "nprobe": nprobe,
        "exact_seconds": round(exact_seconds, 6),
        "topk_seconds": round(topk_seconds, 6),
        "speedup": round(exact_seconds / topk_seconds, 3),
        "candidate_fraction": round(float(np.mean(fractions)), 4),
        "agreement": round(agreement, 4),
        "mean_recall": round(float(np.mean(recalls)), 6),
        "min_recall": round(float(np.min(recalls)), 6),
    }


def test_topk_sublinear_at_recall_floor(benchmark, report):
    sweep = benchmark.pedantic(
        lambda: [_measure_size(ns) for ns in SIZES], iterations=1, rounds=1
    )

    report(format_table(
        ["ns", "nlist", "nprobe", "exact", "topk", "speedup", "cand frac",
         "agree", "recall (mean/min)"],
        [
            [
                f"{row['ns']:,}",
                row["nlist"],
                row["nprobe"],
                f"{row['exact_seconds'] * 1e3:.1f} ms",
                f"{row['topk_seconds'] * 1e3:.1f} ms",
                f"{row['speedup']:.2f}x",
                f"{row['candidate_fraction']:.3f}",
                f"{row['agreement']:.3f}",
                f"{row['mean_recall']:.4f} / {row['min_recall']:.4f}",
            ]
            for row in sweep
        ],
        title=(
            f"Top-k tier vs exact column kernel, nprobe calibrated to "
            f"agreement >= {AGREEMENT_FLOOR} and recall >= {RECALL_FLOOR} "
            f"(topical workload, batch={NQ_BATCH}, "
            f"{NQ_BATCH * NUM_BATCHES} questions/size)"
        ),
    ))

    ns_ratio = SIZES[-1] / SIZES[0]
    t_ratio = sweep[-1]["topk_seconds"] / sweep[0]["topk_seconds"]
    benchmark.extra_info["topk_time_ratio"] = round(t_ratio, 3)
    benchmark.extra_info["headline_speedup_at_max"] = sweep[-1]["speedup"]

    # Acceptance: quality floors hold at every size (the calibration
    # guarantees it or raises)...
    for row in sweep:
        assert row["agreement"] >= AGREEMENT_FLOOR, row
        assert row["mean_recall"] >= RECALL_FLOOR, row
    # ...and at those held floors the tier's time grows sublinearly
    # while the exact kernel's tracks ns.
    assert t_ratio <= SUBLINEAR_FACTOR * ns_ratio, (
        f"top-k time ratio {t_ratio:.1f} over a {ns_ratio:.0f}x size "
        f"sweep is not sublinear"
    )
    assert sweep[-1]["speedup"] > 1.0, "top-k slower than exact at max size"


def _crossover_engines(ns: int):
    """The docqa_sessions surrogate grown to ``ns`` rows (128-row
    documents), behind the exact scan and the tier at both sizings."""
    corpus = synthetic_corpus(
        num_docs=ns // 128, rows_per_doc=128, max_words=8, seed=0
    )
    queries, _ = generate_queries(corpus, 16 * max(CROSSOVER_NQ), seed=1)
    network = docqa_network(corpus, embedding_dim=64, hops=2)
    weights = docqa_weights(network, seed=2, scale=0.7, out_scale=0.02)
    exact = EngineConfig.mnnfast()
    engines = {
        name: MnnFastEngine(network, weights, engine_config=config)
        for name, config in (
            ("exact", exact),
            ("default", exact.with_topk(min_rows=0)),
            ("docqa", exact.with_topk(nlist=64, nprobe=16, min_rows=0)),
        )
    }
    for engine in engines.values():
        engine.store_story(corpus.rows)
    return engines, np.stack([query.words for query in queries])


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _crossover_sweep() -> dict:
    """``{(ns, nq): {sizing: median ref units per engine.answer}}``:
    each answer is timed next to one host-reference call and divided by
    it, so the host's slow and fast phases cancel."""
    ref = HostRef(RefSpec(ed=64, nq=4, chunk=1000, hops=2, rows=2048))
    sweep = {}
    for ns in CROSSOVER_SIZES:
        engines, questions = _crossover_engines(ns)
        for nq in CROSSOVER_NQ:
            batches = [
                questions[start : start + nq] for start in range(0, 16 * nq, nq)
            ]
            for engine in engines.values():
                engine.answer(batches[0])  # builds the index and its copy
            rel = {name: [] for name in engines}
            for round_ in range(CROSSOVER_ROUNDS):
                batch = batches[round_ % len(batches)]
                for name, engine in engines.items():
                    seconds = _timed(lambda: engine.answer(batch))
                    rel[name].append(seconds / _timed(ref))
            sweep[ns, nq] = {name: float(np.median(r)) for name, r in rel.items()}
        for engine in engines.values():
            engine.close()
    ref.close()
    return sweep


def _crossover_rule(speedups: dict) -> int:
    """``TopKConfig.min_rows`` by the sweep's rule: the largest swept
    size at which the default-sized tier is not faster than the exact
    scan at every nq (``speedups[ns, nq]`` = exact time / top-k time)."""
    return max(
        (
            ns for ns in CROSSOVER_SIZES
            if any(speedups[ns, nq] <= 1.0 for nq in CROSSOVER_NQ)
        ),  # fmt: skip
        default=0,
    )


def test_topk_crossover(benchmark, report):
    """engine.answer, the exact scan against the tier at ``with_topk()``'s
    sizing (nprobe 8, nlist sqrt(ns)) and at docqa_sessions' (nlist 64,
    nprobe 16), on the docqa surrogate from 2 048 to 32 768 rows.  The
    rule's size is what ``TopKConfig.min_rows`` is set to; the gate is
    that at twice that size the default-sized tier answers nq 4 no
    slower than the exact scan."""
    sweep = benchmark.pedantic(_crossover_sweep, iterations=1, rounds=1)
    speedups = {
        (key, sizing): cell["exact"] / cell[sizing]
        for key, cell in sweep.items()
        for sizing in ("default", "docqa")
    }
    report(format_table(
        ["ns", "nq", "exact", "top-k sqrt(ns)/8", "exact / top-k",
         "top-k 64/16", "exact / top-k"],
        [
            [
                f"{ns:,}", nq, f"{cell['exact']:.3f}",
                f"{cell['default']:.3f}", f"{speedups[(ns, nq), 'default']:.2f}x",
                f"{cell['docqa']:.3f}", f"{speedups[(ns, nq), 'docqa']:.2f}x",
            ]
            for (ns, nq), cell in sweep.items()
        ],
        title=(
            "engine.answer in host-ref units (median of "
            f"{CROSSOVER_ROUNDS}), exact scan vs the top-k tier, docqa "
            "surrogate, float32, 2 hops"
        ),
    ))
    default = {key: speedups[key, "default"] for key in sweep}
    rule = _crossover_rule(default)
    min_rows = TopKConfig().min_rows
    report(f"crossover by the rule: {rule:,} rows; TopKConfig.min_rows: {min_rows:,}")
    for (ns, nq), speedup in default.items():
        benchmark.extra_info[f"exact_over_topk_ns{ns}_nq{nq}"] = round(speedup, 3)
    benchmark.extra_info["crossover_rule"] = rule
    assert default[2 * min_rows, 4] >= 1.0, (
        f"at {2 * min_rows:,} rows the default-sized tier answers nq 4 "
        f"{1 / default[2 * min_rows, 4]:.2f}x slower than the exact scan"
    )
