"""Document-QA workload with qrels-style retrieval evaluation.

The paper evaluates MnnFast on throughput and numerical fidelity; this
subsystem adds the *quality* axis for the approximations layered on
top (top-k retrieval, confidence-gated early exit): a document-QA
workload whose ground truth is known by construction, scored with
standard retrieval metrics.

* :mod:`repro.docqa.corpus` — chunk documents into provenance-tagged
  memory rows (``(doc_id, span)`` per row); deterministic synthetic
  corpus with planted anchor-word signal.
* :mod:`repro.docqa.queries` — synthesize questions from supporting
  spans and emit the graded qrels ledger
  (``query_id -> {row_id: relevance}``).
* :mod:`repro.docqa.evaluate` — rank each query's candidate rows by
  the final executed hop's attention, score recall@k / MRR / span-hit
  rate / attention mass against the ledger, and sweep engine configs
  (exact vs top-k vs early exit) over one shared network.
* :mod:`repro.docqa.workload` — session-shaped many-questions-per-
  document traffic, fed to the batcher directly and to the serving
  simulator through an adapter.
"""

from .corpus import DocqaCorpus, RowProvenance, ingest_documents, synthetic_corpus
from .evaluate import (
    RetrievalEvaluation,
    RetrievalRun,
    default_docqa_configs,
    docqa_network,
    docqa_weights,
    evaluate_retriever_runs,
    run_retriever,
    sweep_docqa_configs,
)
from .queries import DocqaQuery, QrelsLedger, generate_queries
from .workload import (
    DocqaRequest,
    docqa_workload,
    to_serving_workload,
)

__all__ = [
    "DocqaCorpus",
    "RowProvenance",
    "ingest_documents",
    "synthetic_corpus",
    "DocqaQuery",
    "QrelsLedger",
    "generate_queries",
    "RetrievalRun",
    "RetrievalEvaluation",
    "run_retriever",
    "evaluate_retriever_runs",
    "docqa_network",
    "docqa_weights",
    "default_docqa_configs",
    "sweep_docqa_configs",
    "DocqaRequest",
    "docqa_workload",
    "to_serving_workload",
]
