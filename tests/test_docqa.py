"""The document-QA workload subsystem: corpus determinism, qrels
completeness, metric arithmetic, the traffic adapters, and the
retrieval-quality gates.

The subsystem's value rests on two invariants that make its scores
trustworthy:

* **Determinism** — the same seed reproduces the corpus, queries, and
  ledger byte for byte, so benchmark gates compare like with like
  across runs.
* **Ledger completeness** — every synthesized query has at least one
  supporting-span row (relevance 2) that exists in the store, so no
  metric mean is computed over an unjudgeable query.

Metric tests use hand-built :class:`RetrievalRun` records with known
answers; the engine-facing tests pin the evaluator's refusal to score
a top-k run that did not record its candidate rows.
"""

import dataclasses

import numpy as np
import pytest

from repro.batching import BatchConfig, form_batches
from repro.core import EngineConfig, MnnFastEngine
from repro.data import tokenize
from repro.docqa import (
    DocqaRequest,
    QrelsLedger,
    RetrievalRun,
    default_docqa_configs,
    docqa_network,
    docqa_weights,
    docqa_workload,
    evaluate_retriever_runs,
    generate_queries,
    ingest_documents,
    run_retriever,
    sweep_docqa_configs,
    synthetic_corpus,
    to_serving_workload,
)
from repro.docqa.queries import RELEVANCE_SAME_DOC, RELEVANCE_SUPPORTING


def _small_corpus(seed=0):
    return synthetic_corpus(
        num_docs=4, rows_per_doc=8, max_words=6, background_vocab=100, seed=seed
    )


# --- ingestion ----------------------------------------------------------------


class TestIngestion:
    def test_tokenize_strips_punctuation_and_lowercases(self):
        assert tokenize("Hello, World! (again)") == ["hello", "world", "again"]
        assert tokenize("  ") == []

    def test_raw_text_documents_chunk_with_provenance(self):
        corpus = ingest_documents(
            ["The cat sat on the mat.", "Dogs bark loudly."], max_words=3
        )
        assert corpus.num_docs == 2
        # Doc 0 has 6 tokens -> 2 rows; doc 1 has 3 tokens -> 1 row.
        assert corpus.doc_row_ranges == ((0, 2), (2, 3))
        assert corpus.provenance[0].span == (0, 3)
        assert corpus.provenance[1].span == (3, 6)
        assert corpus.provenance[2] .doc_id == 1
        assert corpus.doc_of_row(1) == 0
        assert list(corpus.rows_of_doc(1)) == [2]
        decoded = corpus.vocabulary.decode(corpus.rows[0])
        assert decoded == ["the", "cat", "sat"]

    def test_final_row_is_padded(self):
        corpus = ingest_documents([["a", "b", "c", "d", "e"]], max_words=3)
        assert corpus.rows.shape == (2, 3)
        assert corpus.rows[1, 2] == 0  # pad ID
        assert corpus.provenance[1].span == (3, 5)

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="no tokens"):
            ingest_documents(["words here", "..."], max_words=4)

    def test_vocabulary_is_frozen(self):
        corpus = ingest_documents(["some words"], max_words=4)
        with pytest.raises(KeyError):
            corpus.vocabulary.encode(["unseen"], width=4)


# --- determinism --------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_reproduces_corpus_bytes(self):
        a = _small_corpus(seed=3)
        b = _small_corpus(seed=3)
        np.testing.assert_array_equal(a.rows, b.rows)
        assert a.provenance == b.provenance
        assert a.doc_row_ranges == b.doc_row_ranges

    def test_different_seed_changes_background(self):
        a = _small_corpus(seed=3)
        b = _small_corpus(seed=4)
        assert not np.array_equal(a.rows, b.rows)

    def test_same_seed_reproduces_queries_and_qrels(self):
        corpus = _small_corpus()
        queries_a, qrels_a = generate_queries(corpus, num_queries=12, seed=5)
        queries_b, qrels_b = generate_queries(corpus, num_queries=12, seed=5)
        for qa, qb in zip(queries_a, queries_b):
            assert qa.query_id == qb.query_id
            assert qa.doc_id == qb.doc_id
            assert qa.supporting_rows == qb.supporting_rows
            np.testing.assert_array_equal(qa.words, qb.words)
        assert qrels_a.judgments == qrels_b.judgments

    def test_same_seed_reproduces_workload_arrivals(self):
        corpus = _small_corpus()
        queries, _ = generate_queries(corpus, num_queries=12, seed=5)
        a = docqa_workload(queries, session_rate=50.0, seed=9)
        b = docqa_workload(queries, session_rate=50.0, seed=9)
        assert [r.arrival for r in a] == [r.arrival for r in b]
        assert [r.query.query_id for r in a] == [r.query.query_id for r in b]


# --- qrels ledger -------------------------------------------------------------


class TestQrels:
    def test_every_query_has_a_supporting_row_in_store(self):
        corpus = _small_corpus()
        queries, qrels = generate_queries(corpus, num_queries=20, seed=1)
        assert len(qrels) == 20
        for query in queries:
            supporting = qrels.relevant_rows(
                query.query_id, min_relevance=RELEVANCE_SUPPORTING
            )
            assert len(supporting) >= 1
            for row in supporting:
                assert 0 <= row < corpus.num_rows
                assert corpus.doc_of_row(row) == query.doc_id
            assert supporting == query.supporting_rows

    def test_same_doc_rows_judged_at_grade_one(self):
        corpus = _small_corpus()
        queries, qrels = generate_queries(corpus, num_queries=4, seed=1)
        query = queries[0]
        judged = qrels.judgments[query.query_id]
        assert set(judged) == set(corpus.rows_of_doc(query.doc_id))
        grades = set(judged.values())
        assert grades == {RELEVANCE_SUPPORTING, RELEVANCE_SAME_DOC}

    def test_round_robin_covers_every_document(self):
        corpus = _small_corpus()
        queries, _ = generate_queries(corpus, num_queries=corpus.num_docs, seed=0)
        assert sorted(q.doc_id for q in queries) == list(range(corpus.num_docs))

    def test_unjudged_query_is_a_key_error(self):
        ledger = QrelsLedger(judgments={0: {1: 2}})
        with pytest.raises(KeyError):
            ledger.relevant_rows(99)

    def test_empty_or_nonpositive_judgments_rejected(self):
        with pytest.raises(ValueError, match="empty judgment"):
            QrelsLedger(judgments={0: {}})
        with pytest.raises(ValueError, match="relevance"):
            QrelsLedger(judgments={0: {1: 0}})


# --- metric arithmetic --------------------------------------------------------


def _run(query_id, ranking, scores, hops_run=2, num_rows=10, used_index=False):
    return RetrievalRun(
        query_id=query_id,
        ranking=tuple(ranking),
        scores=tuple(scores),
        hops_run=hops_run,
        num_rows=num_rows,
        used_index=used_index,
    )


class TestMetrics:
    def test_known_ranking_scores(self):
        # Query 0: relevant row 3 ranked first.  Query 1: relevant row 7
        # ranked third (inside k=2?  no — outside top-2).
        qrels = QrelsLedger(judgments={0: {3: 2}, 1: {7: 2}})
        runs = [
            _run(0, [3, 1, 2], [0.7, 0.2, 0.1]),
            _run(1, [4, 5, 7], [0.5, 0.3, 0.2]),
        ]
        ev = evaluate_retriever_runs(runs, qrels, k=2)
        assert ev.recall_at_k == pytest.approx(0.5)  # (1 + 0) / 2
        assert ev.mrr == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)
        assert ev.span_hit_rate == pytest.approx(0.5)
        assert ev.mean_attention_mass == pytest.approx((0.7 + 0.2) / 2.0)
        assert ev.mean_hops == pytest.approx(2.0)
        assert ev.mean_candidate_fraction == pytest.approx(0.3)

    def test_min_relevance_widens_to_document_grade(self):
        qrels = QrelsLedger(judgments={0: {3: 2, 4: 1}})
        runs = [_run(0, [4, 1], [0.6, 0.4])]
        strict = evaluate_retriever_runs(runs, qrels, k=1, min_relevance=2)
        loose = evaluate_retriever_runs(runs, qrels, k=1, min_relevance=1)
        assert strict.span_hit_rate == 0.0
        assert loose.span_hit_rate == 1.0

    def test_missing_grade_is_an_error(self):
        qrels = QrelsLedger(judgments={0: {3: 1}})
        with pytest.raises(ValueError, match="relevance"):
            evaluate_retriever_runs(
                [_run(0, [3], [1.0])], qrels, k=1, min_relevance=2
            )

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError, match="no retrieval runs"):
            evaluate_retriever_runs([], QrelsLedger(judgments={0: {1: 2}}))


# --- engine-facing evaluation -------------------------------------------------


class TestRetrieverSweep:
    def test_sweep_scores_every_query_per_config(self):
        corpus = _small_corpus()
        queries, qrels = generate_queries(corpus, num_queries=8, seed=2)
        evaluations = sweep_docqa_configs(
            corpus,
            queries,
            qrels,
            default_docqa_configs(nprobe=2, chunk_size=16),
            k=4,
        )
        assert set(evaluations) == {"exact", "topk", "early_exit"}
        for ev in evaluations.values():
            assert ev.num_queries == len(queries)
        # With the damped-output surrogate weights the exact ranking
        # recovers the planted supporting span.
        assert evaluations["exact"].recall_at_k == pytest.approx(1.0)
        assert all(not run.used_index for run in evaluations["exact"].runs)
        assert any(run.used_index for run in evaluations["topk"].runs)

    def test_topk_without_recorded_candidates_is_an_error(self):
        corpus = _small_corpus()
        queries, _ = generate_queries(corpus, num_queries=2, seed=2)
        network = docqa_network(corpus)
        engine = MnnFastEngine(
            network,
            weights=docqa_weights(network),
            engine_config=EngineConfig.mnnfast(chunk_size=16).with_topk(
                nprobe=2, min_rows=0
            ),
        )
        try:
            engine.store_story(corpus.rows)
            with pytest.raises(ValueError, match="record_candidates"):
                run_retriever(engine, queries)
        finally:
            engine.close()

    def test_network_corpus_mismatch_rejected(self):
        corpus = _small_corpus()
        queries, qrels = generate_queries(corpus, num_queries=2, seed=2)
        wrong = dataclasses.replace(docqa_network(corpus), num_sentences=99)
        with pytest.raises(ValueError, match="corpus"):
            sweep_docqa_configs(corpus, queries, qrels, network=wrong)


# --- traffic shapes and adapters ----------------------------------------------


class TestWorkloadAdapters:
    def _stream(self):
        corpus = _small_corpus()
        queries, _ = generate_queries(corpus, num_queries=16, seed=2)
        requests = docqa_workload(
            queries,
            session_rate=100.0,
            questions_per_session=4,
            intra_session_gap=0.001,
            seed=7,
        )
        return corpus, requests

    def test_stream_is_sorted_and_session_shaped(self):
        _, requests = self._stream()
        arrivals = [r.arrival for r in requests]
        assert arrivals == sorted(arrivals)
        assert len(requests) == 16  # ceil(16 / 4) sessions x 4 questions

    def test_requests_feed_form_batches_directly(self):
        _, requests = self._stream()
        batches = form_batches(
            requests, BatchConfig(max_batch_size=4, max_wait=0.05)
        )
        batched = [item for batch in batches for item in batch.items]
        assert sorted(r.arrival for r in batched) == [
            r.arrival for r in requests
        ]
        assert all(isinstance(item, DocqaRequest) for item in batched)

    def test_serving_adapter_counts_nonpad_words(self):
        _, requests = self._stream()
        workload = to_serving_workload(requests)
        assert len(workload.requests) == len(requests)
        for docqa, serving in zip(requests, workload.requests):
            assert serving.arrival == docqa.arrival
            assert serving.words == int(
                np.count_nonzero(docqa.query.words != 0)
            )


# --- quality gates (benchmarks/bench_docqa.py reports them at 32 x 128 rows) --

#: The gates' scale: 1 024 rows at ed 32, two hops, recall@4.
GATE_DOCS, GATE_ROWS, GATE_QUERIES, GATE_ED, GATE_HOPS, GATE_K = 16, 64, 24, 32, 2, 4


@pytest.fixture(scope="module")
def gate_problem():
    corpus = synthetic_corpus(
        num_docs=GATE_DOCS, rows_per_doc=GATE_ROWS, max_words=8, seed=3
    )
    queries, qrels = generate_queries(corpus, num_queries=GATE_QUERIES, seed=5)
    network = docqa_network(corpus, embedding_dim=GATE_ED, hops=GATE_HOPS)
    weights = docqa_weights(network, seed=7, scale=0.35, out_scale=0.2)

    def evaluate(config):
        return sweep_docqa_configs(
            corpus, queries, qrels, {"gate": config},
            network=network, weights=weights, k=GATE_K,
        )["gate"]

    return corpus, queries, evaluate


class TestQualityGates:
    """The deterministic gates of the document-QA bench: the
    approximations keep the ranking quality, and the workload's
    locality structure is real."""

    BASE = EngineConfig.mnnfast(chunk_size=256)

    def test_calibrated_topk_holds_recall_on_a_strict_subset(self, gate_problem):
        _, _, evaluate = gate_problem
        for nprobe in (2, 4, 8, 16, 32):
            topk = evaluate(self.BASE.with_topk(
                nprobe=nprobe, min_rows=0, record_candidates=True,
                kmeans_iters=12,
            ))
            if topk.recall_at_k >= 0.95:
                break
        assert topk.num_queries == GATE_QUERIES
        assert topk.recall_at_k >= 0.95
        assert topk.mean_candidate_fraction < 1.0

    def test_early_exit_keeps_span_hits_while_exiting(self, gate_problem):
        _, _, evaluate = gate_problem
        exact = evaluate(self.BASE)
        early = evaluate(self.BASE.with_early_exit(0.8))
        assert exact.num_queries == early.num_queries == GATE_QUERIES
        assert abs(early.span_hit_rate - exact.span_hit_rate) <= 0.01
        assert early.mean_hops < GATE_HOPS

    def test_sessions_fill_batches_better_than_uniform(self, gate_problem):
        _, queries, _ = gate_problem
        policy = BatchConfig(max_batch_size=8, max_wait=0.02)
        sessioned = docqa_workload(
            queries, session_rate=20.0, questions_per_session=4,
            intra_session_gap=0.002, num_sessions=32, seed=11,
        )
        uniform = docqa_workload(
            queries, session_rate=80.0, questions_per_session=1,
            num_sessions=len(sessioned), seed=11,
        )

        def fill(stream):
            batches = form_batches(stream, policy)
            return np.mean([batch.formation.fill_ratio for batch in batches])

        assert fill(sessioned) > fill(uniform)
