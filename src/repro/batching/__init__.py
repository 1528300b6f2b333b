"""Continuous batching: the serving-side ``nq`` amortization lever.

The paper sizes the question batch ``nq`` to keep the hardware busy
(§5, Fig. 12) — the column-based algorithm streams ``M_IN``/``M_OUT``
once per batch, so memory traffic amortizes across the questions while
compute scales per question.  This subsystem turns that batch
dimension into a serving discipline:

* :mod:`repro.batching.batcher` — a deadline-aware continuous batcher:
  :class:`ContinuousBatcher` coalesces an online question stream under
  a :class:`~repro.core.config.BatchConfig` (``max_batch_size`` /
  ``max_wait``) policy, never holding a request past its admission
  deadline; every dispatch carries a :class:`BatchFormation` record
  (fill ratio, queue waits, deadline slack).
* the **vectorized engine path** —
  :meth:`repro.core.engine.MnnFastEngine.answer_batch` runs all hops
  on the full ``nq x ed`` question matrix through the
  baseline/column/sharded dataflows and returns per-question
  :class:`~repro.core.engine.AnswerResult` views plus batch-level
  :class:`~repro.core.stats.OpStats` showing the amortized traffic.
* the **serving simulator** —
  :meth:`repro.serving.server.QaServer.run` puts every question
  through this batcher under the engine's ``BatchConfig`` (the default
  ``max_batch_size=1`` serves batches of one) and charges memory
  streaming once per batch but compute per question;
  :class:`repro.serving.metrics.ServingMetrics` reports batch
  occupancy and per-request queueing percentiles.

``python -m repro batching`` and ``benchmarks/bench_batching.py``
sweep batch size against throughput and tail latency to reproduce the
Fig. 12-style amortization curve on the simulated substrate.
"""

from ..core.config import BatchConfig
from ..core.engine import BatchAnswer
from .batcher import (
    BatcherStats,
    BatchFormation,
    ContinuousBatcher,
    FormedBatch,
    QueuedQuestion,
    form_batches,
)

__all__ = [
    "BatchConfig",
    "BatchAnswer",
    "ContinuousBatcher",
    "BatchFormation",
    "BatcherStats",
    "FormedBatch",
    "QueuedQuestion",
    "form_batches",
]
