"""Document-QA retrieval quality: qrels-gated approximation sweep.

The repo's other BENCH artifacts gate *performance* (wall-clock,
bytes, scaling); this one gates *retrieval quality* (ISSUE 10).  A
deterministic synthetic document corpus with planted supporting spans
(:func:`repro.docqa.corpus.synthetic_corpus`) and queries lifted from
those spans (:func:`repro.docqa.queries.generate_queries`) give ground
truth by construction; the engine configs under test are scored as
retrievers against the qrels ledger
(:mod:`repro.docqa.evaluate` — recall@k, MRR, span-hit rate,
final-hop attention mass on relevant rows).

The sweep mirrors the serving stack's approximation levers:

* **exact** — the full MnnFast column path (the quality ceiling);
* **top-k** — the IVF retrieval tier, with ``nprobe`` walked up a
  calibration ladder (ANN-benchmarks style) until supporting-span
  recall@k holds the floor; the artifact records the whole ladder and
  the calibrated operating point;
* **early exit** — confidence-gated adaptive depth; queries that
  retire early are ranked by their *final executed hop's* attention,
  so the gate genuinely changes rankings and the span-hit comparison
  against full depth is a real measurement.

A traffic section exercises the workload generator: session-shaped
arrivals must fill batches better than rate-matched uniform arrivals
(:func:`repro.batching.batcher.form_batches`), and document-affine
sessions routed by cache affinity must beat round-robin on chunk hit
rate (:class:`repro.cluster.simulation.ClusterSim`).

Acceptance: top-k recall@k >= 0.95 at the calibrated ``nprobe``;
early-exit span-hit within 0.01 of full depth while actually exiting
early (mean hops < configured); every config scored every query.

Writes ``BENCH_docqa.json`` (see :mod:`emit`); ``BENCH_SMOKE`` shrinks
the corpus for the CI gate.
"""

from emit import emit, smoke_mode

from repro.batching.batcher import form_batches
from repro.cluster import ClusterConfig, ClusterSim
from repro.core import EngineConfig
from repro.core.config import BatchConfig
from repro.docqa import (
    docqa_network,
    docqa_weights,
    docqa_workload,
    evaluate_retriever_runs,
    generate_queries,
    run_retriever,
    synthetic_corpus,
    to_cluster_requests,
)
from repro.core.engine import MnnFastEngine
from repro.report import format_table

NUM_DOCS = 16 if smoke_mode() else 32
ROWS_PER_DOC = 64 if smoke_mode() else 128
NUM_QUERIES = 24 if smoke_mode() else 64
#: ed=64 at full size: 4096 random BoW rows need the dimensions to
#: separate (same sizing note as bench_topk_recall.py) — at ed=32 the
#: max noise inner product overtakes the supporting row's self-score
#: and even the exact ranking loses the span.
ED = 32 if smoke_mode() else 64
NW, HOPS = 8, 2
K = 4
KMEANS_ITERS = 12  # align clusters to documents; build is off-gate
#: Peaked hop-1 attention (cf. Fig. 6) with a damped output embedding
#: (the trained-model surrogate — see repro.docqa.evaluate.docqa_weights).
WEIGHT_SCALE, OUT_SCALE = 0.35, 0.2
CORPUS_SEED, QUERY_SEED, WEIGHT_SEED = 3, 5, 7
CHUNK_SIZE = 256

#: Calibration ladder: smallest nprobe holding the recall floor wins.
NPROBE_LADDER = (2, 4, 8, 16, 32)
RECALL_FLOOR = 0.95
#: Early exit may move span-hit rate at most this far from full depth.
SPAN_HIT_TOLERANCE = 0.01
EXIT_THRESHOLD = 0.8

#: Traffic section: session shape and cluster routing.
QUESTIONS_PER_SESSION = 4
SESSION_RATE = 20.0
ROUTING_CHUNK = 16


def _evaluate(config, network, weights, corpus, queries, qrels):
    """Score one engine config as a retriever over the full query set."""
    engine = MnnFastEngine(network, weights=weights, engine_config=config)
    try:
        engine.store_story(corpus.rows)
        runs = run_retriever(engine, queries)
    finally:
        engine.close()
    return evaluate_retriever_runs(runs, qrels, k=K)


def _metrics(evaluation) -> dict:
    return {
        "recall_at_k": round(evaluation.recall_at_k, 4),
        "mrr": round(evaluation.mrr, 4),
        "span_hit_rate": round(evaluation.span_hit_rate, 4),
        "mean_attention_mass": round(evaluation.mean_attention_mass, 4),
        "mean_hops": round(evaluation.mean_hops, 3),
        "mean_candidate_fraction": round(
            evaluation.mean_candidate_fraction, 4
        ),
        "runs": evaluation.num_queries,
    }


def _measure() -> dict:
    corpus = synthetic_corpus(
        num_docs=NUM_DOCS, rows_per_doc=ROWS_PER_DOC, max_words=NW,
        seed=CORPUS_SEED,
    )
    queries, qrels = generate_queries(
        corpus, num_queries=NUM_QUERIES, seed=QUERY_SEED
    )
    network = docqa_network(corpus, embedding_dim=ED, hops=HOPS)
    weights = docqa_weights(
        network, seed=WEIGHT_SEED, scale=WEIGHT_SCALE, out_scale=OUT_SCALE
    )
    base = EngineConfig.mnnfast(chunk_size=CHUNK_SIZE)

    exact = _evaluate(base, network, weights, corpus, queries, qrels)

    # --- calibrate nprobe to the supporting-span recall floor -----------
    ladder = []
    topk = None
    calibrated_nprobe = None
    for nprobe in NPROBE_LADDER:
        cfg = base.with_topk(
            nprobe=nprobe, min_rows=0, record_candidates=True,
            kmeans_iters=KMEANS_ITERS,
        )
        evaluation = _evaluate(cfg, network, weights, corpus, queries, qrels)
        ladder.append({"nprobe": nprobe, **_metrics(evaluation)})
        if evaluation.recall_at_k >= RECALL_FLOOR:
            topk, calibrated_nprobe = evaluation, nprobe
            break
    if topk is None:
        raise AssertionError(
            f"no nprobe in {NPROBE_LADDER} holds recall@{K} >= "
            f"{RECALL_FLOOR}; ladder: {ladder}"
        )

    early_exit = _evaluate(
        base.with_early_exit(EXIT_THRESHOLD),
        network, weights, corpus, queries, qrels,
    )

    # --- traffic shapes -------------------------------------------------
    policy = BatchConfig(max_batch_size=8, max_wait=0.02)
    sessioned = docqa_workload(
        queries, session_rate=SESSION_RATE,
        questions_per_session=QUESTIONS_PER_SESSION,
        intra_session_gap=0.002, num_sessions=32, seed=11,
    )
    uniform = docqa_workload(
        queries, session_rate=SESSION_RATE * QUESTIONS_PER_SESSION,
        questions_per_session=1, num_sessions=len(sessioned), seed=11,
    )
    fills = {}
    for label, stream in (("sessioned", sessioned), ("uniform", uniform)):
        batches = form_batches(stream, policy)
        fills[label] = round(
            sum(b.size for b in batches) / (len(batches) * policy.max_batch_size),
            4,
        )

    chunk_bytes = 2 * ROUTING_CHUNK * ED * 8
    doc_chunks = ROWS_PER_DOC // ROUTING_CHUNK
    cluster_config = ClusterConfig(
        num_rows=corpus.num_rows, embedding_dim=ED, chunk_size=ROUTING_CHUNK,
        replicas=4, resident_bytes=3 * doc_chunks * chunk_bytes,
        disk_bandwidth=2e8,
    )
    cluster_stream = docqa_workload(
        queries, session_rate=150.0,
        questions_per_session=QUESTIONS_PER_SESSION,
        num_sessions=250, seed=19,
    )
    cluster_requests = to_cluster_requests(
        cluster_stream, corpus, chunk_size=ROUTING_CHUNK,
        total_chunks=cluster_config.total_chunks,
    )
    hit_rates = {
        routing: round(
            ClusterSim(cluster_config, policy=routing)
            .run(cluster_requests)
            .chunk_hit_rate,
            4,
        )
        for routing in ("round_robin", "cache_affinity")
    }

    return {
        "corpus": corpus,
        "exact": exact,
        "topk": topk,
        "early_exit": early_exit,
        "ladder": ladder,
        "calibrated_nprobe": calibrated_nprobe,
        "batch_fill": fills,
        "chunk_hit_rate": hit_rates,
    }


def test_docqa_quality_gates(benchmark, report):
    result = benchmark.pedantic(_measure, iterations=1, rounds=1)
    corpus = result["corpus"]
    evaluations = {
        name: result[name] for name in ("exact", "topk", "early_exit")
    }

    report(format_table(
        ["config", f"recall@{K}", "MRR", "span hit", "attn mass",
         "mean hops", "rows examined"],
        [
            [
                name,
                f"{ev.recall_at_k:.3f}",
                f"{ev.mrr:.3f}",
                f"{ev.span_hit_rate:.3f}",
                f"{ev.mean_attention_mass:.3f}",
                f"{ev.mean_hops:.2f}",
                f"{ev.mean_candidate_fraction:.3f}",
            ]
            for name, ev in evaluations.items()
        ],
        title=(
            f"Document-QA qrels sweep — {corpus.num_docs} docs x "
            f"{ROWS_PER_DOC} rows, {NUM_QUERIES} queries, top-k "
            f"calibrated to nprobe={result['calibrated_nprobe']}"
        ),
    ))
    report(
        f"batch fill: sessioned {result['batch_fill']['sessioned']:.3f} vs "
        f"uniform {result['batch_fill']['uniform']:.3f}; chunk hit-rate: "
        f"affinity {result['chunk_hit_rate']['cache_affinity']:.3f} vs "
        f"round-robin {result['chunk_hit_rate']['round_robin']:.3f}"
    )

    span_hit_delta = abs(
        evaluations["early_exit"].span_hit_rate
        - evaluations["exact"].span_hit_rate
    )
    emit("docqa", {
        "workload": {
            "num_docs": corpus.num_docs, "rows_per_doc": ROWS_PER_DOC,
            "num_rows": corpus.num_rows, "num_queries": NUM_QUERIES,
            "ed": ED, "nw": NW, "hops": HOPS, "k": K,
            "weight_scale": WEIGHT_SCALE, "out_scale": OUT_SCALE,
            "chunk_size": CHUNK_SIZE,
            "exit_threshold": EXIT_THRESHOLD,
            "nprobe_ladder": list(NPROBE_LADDER),
        },
        "gates": {
            "recall_floor": RECALL_FLOOR,
            "span_hit_tolerance": SPAN_HIT_TOLERANCE,
        },
        "configs": {
            name: _metrics(ev) for name, ev in evaluations.items()
        },
        "calibration": result["ladder"],
        "calibrated_nprobe": result["calibrated_nprobe"],
        "span_hit_delta": round(span_hit_delta, 4),
        "traffic": {
            "batch_fill": result["batch_fill"],
            "chunk_hit_rate": result["chunk_hit_rate"],
        },
    })
    benchmark.extra_info["topk_recall_at_k"] = round(
        evaluations["topk"].recall_at_k, 4
    )
    benchmark.extra_info["span_hit_delta"] = round(span_hit_delta, 4)

    # Acceptance: every config scored every query; the calibrated top-k
    # point holds the recall floor while examining a strict subset of
    # memory; early exit stays within the span-hit tolerance of full
    # depth while actually exiting early; the workload's locality
    # structure is real (sessions fill batches, affinity beats
    # round-robin).
    for name, evaluation in evaluations.items():
        assert evaluation.num_queries == NUM_QUERIES, (
            f"{name} scored {evaluation.num_queries}/{NUM_QUERIES} queries"
        )
    assert evaluations["topk"].recall_at_k >= RECALL_FLOOR
    assert evaluations["topk"].mean_candidate_fraction < 1.0, (
        "calibrated top-k examined the whole memory — vacuous"
    )
    assert span_hit_delta <= SPAN_HIT_TOLERANCE, (
        f"early-exit span-hit moved {span_hit_delta:.4f} from full depth"
    )
    assert evaluations["early_exit"].mean_hops < HOPS, (
        "early-exit gate never fired — the span-hit comparison is vacuous"
    )
    assert result["batch_fill"]["sessioned"] > result["batch_fill"]["uniform"]
    assert (
        result["chunk_hit_rate"]["cache_affinity"]
        >= result["chunk_hit_rate"]["round_robin"]
    )
