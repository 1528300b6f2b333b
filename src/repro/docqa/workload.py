"""Document-QA traffic shapes: many questions per document.

Real document-QA traffic is *session-shaped*: a reader opens a
document and asks several questions about it in a burst before moving
on.  That gives the stream two kinds of structure the serving stack
can exploit:

* **temporal clustering** — session bursts fill batches quickly
  (:func:`repro.batching.batcher.form_batches` sees tight arrival
  gaps inside a session);
* **document locality** — consecutive requests touch the same
  document's contiguous row span, i.e. the same memory chunks.

:func:`docqa_workload` generates the stream; :func:`to_serving_workload`
projects it onto serving's request container
(:class:`~repro.serving.requests.QuestionRequest` for
``QaServer.run``).  A :class:`DocqaRequest` itself carries
``arrival``/``deadline``, so the stream also feeds
:func:`~repro.batching.batcher.form_batches` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.numerics import PAD_ID
from ..serving.requests import QuestionRequest, Workload
from .queries import DocqaQuery

__all__ = [
    "DocqaRequest",
    "docqa_workload",
    "to_serving_workload",
]


@dataclass(frozen=True)
class DocqaRequest:
    """One timed question about one document.

    Carries ``arrival`` and ``deadline``, so a stream of these plugs
    straight into :func:`~repro.batching.batcher.form_batches`.
    """

    arrival: float
    query: DocqaQuery
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")


def docqa_workload(
    queries: list[DocqaQuery],
    session_rate: float,
    questions_per_session: int = 4,
    intra_session_gap: float = 0.01,
    num_sessions: int | None = None,
    zipf_s: float = 1.1,
    deadline: float | None = None,
    seed: int = 0,
) -> list[DocqaRequest]:
    """Session-shaped request stream over synthesized queries.

    Sessions arrive as a Poisson process at ``session_rate`` per
    second; each session picks a document (Zipf-skewed popularity —
    a few hot documents dominate, the regime where affinity routing
    pays) and fires ``questions_per_session`` of that document's
    queries back-to-back with exponential gaps of mean
    ``intra_session_gap``.  Queries cycle within a document when a
    session asks for more than the document has.

    Args:
        queries: the synthesized question pool
            (:func:`~repro.docqa.queries.generate_queries`); every
            document with queries can be picked.
        session_rate: sessions per second (> 0).
        questions_per_session: questions each session asks (>= 1).
        intra_session_gap: mean seconds between a session's questions.
        num_sessions: sessions to generate (default: enough to offer
            every query once, ``ceil(len(queries) / per_session)``).
        zipf_s: document-popularity skew (0 = uniform).
        deadline: per-request latency budget (``None`` = none).
        seed: RNG seed; the same inputs reproduce the stream exactly.

    Returns:
        Requests sorted by arrival time.
    """
    if not queries:
        raise ValueError("need at least one query")
    if session_rate <= 0:
        raise ValueError(f"session_rate must be > 0, got {session_rate}")
    if questions_per_session < 1:
        raise ValueError(
            f"questions_per_session must be >= 1, got {questions_per_session}"
        )
    if intra_session_gap < 0:
        raise ValueError(
            f"intra_session_gap must be >= 0, got {intra_session_gap}"
        )
    by_doc: dict[int, list[DocqaQuery]] = {}
    for query in queries:
        by_doc.setdefault(query.doc_id, []).append(query)
    doc_ids = sorted(by_doc)
    if num_sessions is None:
        num_sessions = -(-len(queries) // questions_per_session)
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(doc_ids) + 1, dtype=float)
    weights = ranks**-zipf_s
    weights /= weights.sum()
    # Shuffle the rank->document assignment so popularity is not
    # correlated with store position.
    popularity = rng.permutation(len(doc_ids))

    requests: list[DocqaRequest] = []
    cursor = {doc_id: 0 for doc_id in doc_ids}
    time = 0.0
    for _ in range(num_sessions):
        time += rng.exponential(1.0 / session_rate)
        doc_id = doc_ids[popularity[rng.choice(len(doc_ids), p=weights)]]
        pool = by_doc[doc_id]
        t = time
        for i in range(questions_per_session):
            if i > 0 and intra_session_gap > 0:
                t += rng.exponential(intra_session_gap)
            query = pool[cursor[doc_id] % len(pool)]
            cursor[doc_id] += 1
            requests.append(
                DocqaRequest(arrival=t, query=query, deadline=deadline)
            )
    requests.sort(key=lambda r: r.arrival)
    return requests


def to_serving_workload(requests: list[DocqaRequest]) -> Workload:
    """Project a docqa stream onto the single-node serving simulator.

    Each request becomes a
    :class:`~repro.serving.requests.QuestionRequest` whose ``words``
    is the query's non-pad word count (the quantity the serving cost
    model embeds) — feed the result to
    :meth:`repro.serving.server.QaServer.run` on a server whose
    ``engine.batch`` sets the batch size.
    """
    return Workload(
        requests=[
            QuestionRequest(
                arrival=request.arrival,
                words=max(1, int(np.count_nonzero(request.query.words != PAD_ID))),
                deadline=request.deadline,
            )
            for request in requests
        ]
    )
