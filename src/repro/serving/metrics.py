"""Latency/throughput statistics for the serving simulator.

:class:`ServingMetrics` is the run's metrics registry: the original
completed-request latency samples (p50/p95/p99, throughput) plus the
robustness counters (arrivals / admissions / sheds / timeouts /
retries), the degradation-controller summary, the full set of
request-lifecycle traces from which the per-stage latency breakdown is
aggregated, and one :class:`BatchSample` per formed question batch
(batches of one on an unbatched server) from which batch occupancy and
per-request queueing percentiles are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .trace import STAGE_GROUPS, RequestTrace

__all__ = ["BatchSample", "LatencySample", "ServingMetrics"]


@dataclass(frozen=True)
class LatencySample:
    """One completed request."""

    kind: str  # "question" or "story"
    arrival: float
    start: float
    finish: float

    @property
    def latency(self) -> float:
        return self.finish - self.arrival

    @property
    def queueing(self) -> float:
        return self.start - self.arrival

    @property
    def service(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class BatchSample:
    """One question batch formed by the serving simulator.

    Attributes:
        formed_at: when the batcher dispatched the batch.
        size: questions the batch carried at dispatch.
        capacity: the policy's ``max_batch_size``.
        queue_waits: per-member seconds spent in the batcher.
        deadline_slacks: per-member ``deadline - formed_at`` for the
            members that carry deadlines.
        service_start: when a worker began serving the batch (when it
            gave up waiting for one, if every member timed out queued).
        service_end: when the batch finished or was cancelled.
        served: members actually served (those still within deadline
            when the worker was granted).
        hop_survivors: members still running at each hop the batch
            started — the realised, per-member-sampled early-exit
            counts (constant with the gate off, empty when nothing was
            served).  A shrinking tuple is the freed compute: hop ``h``
            is charged at ``hop_seconds(batch_size=hop_survivors[h])``.
    """

    formed_at: float
    size: int
    capacity: int
    queue_waits: tuple[float, ...]
    deadline_slacks: tuple[float, ...]
    service_start: float
    service_end: float
    served: int
    hop_survivors: tuple[int, ...] = ()

    @property
    def fill_ratio(self) -> float:
        """``size / capacity`` — 1.0 is a perfectly amortized batch."""
        return self.size / self.capacity

    @property
    def service_seconds(self) -> float:
        return self.service_end - self.service_start


@dataclass
class ServingMetrics:
    """Aggregated results of one simulated run.

    ``samples`` holds one entry per *completed* request (the pre-
    robustness contract); the counters below reconcile against the full
    arrival stream: ``arrivals == completed + shed + timed_out`` once a
    run finishes.
    """

    samples: list[LatencySample] = field(default_factory=list)
    simulated_seconds: float = 0.0

    # --- request-lifecycle registry ------------------------------------------
    traces: list[RequestTrace] = field(default_factory=list)
    arrivals: int = 0
    admitted: int = 0
    completed: int = 0
    shed: int = 0
    timed_out: int = 0
    retries: int = 0
    degradation_peak_level: int = 0
    degradation_transitions: int = 0
    degradation_final_level: int = 0
    # Early-exit accounting: hops actually charged for served questions
    # vs. the full-depth budget those questions would have cost.
    question_hops_run: int = 0
    question_hops_full: int = 0

    # --- batch registry ------------------------------------------------------
    batches: list[BatchSample] = field(default_factory=list)

    def add(self, sample: LatencySample) -> None:
        self.samples.append(sample)

    def record_batch(self, sample: BatchSample) -> None:
        self.batches.append(sample)

    def of_kind(self, kind: str) -> list[LatencySample]:
        return [s for s in self.samples if s.kind == kind]

    def latency_percentile(self, percentile: float, kind: str = "question") -> float:
        samples = self.of_kind(kind)
        if not samples:
            return 0.0
        return float(np.percentile([s.latency for s in samples], percentile))

    def percentiles(self, kind: str = "question") -> dict[str, float]:
        """The standard p50/p95/p99 triple for one request kind."""
        return {
            f"p{p:g}": self.latency_percentile(p, kind) for p in (50.0, 95.0, 99.0)
        }

    def mean_latency(self, kind: str = "question") -> float:
        samples = self.of_kind(kind)
        if not samples:
            return 0.0
        return float(np.mean([s.latency for s in samples]))

    def throughput(self, kind: str = "question") -> float:
        """Completed requests per simulated second."""
        if self.simulated_seconds <= 0:
            return 0.0
        return len(self.of_kind(kind)) / self.simulated_seconds

    def queueing_percentile(self, percentile: float, kind: str = "question") -> float:
        """Percentile of per-request queueing delay (arrival → service)."""
        samples = self.of_kind(kind)
        if not samples:
            return 0.0
        return float(np.percentile([s.queueing for s in samples], percentile))

    def queueing_percentiles(self, kind: str = "question") -> dict[str, float]:
        """p50/p95/p99 of queueing delay for one request kind."""
        return {
            f"p{p:g}": self.queueing_percentile(p, kind) for p in (50.0, 95.0, 99.0)
        }

    # --- batch-occupancy aggregates --------------------------------------------

    @property
    def batch_occupancy(self) -> float:
        """Mean batch fill ratio (1.0 = every batch at capacity)."""
        if not self.batches:
            return 0.0
        return float(np.mean([b.fill_ratio for b in self.batches]))

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return float(np.mean([b.size for b in self.batches]))

    @property
    def batch_formation_wait(self) -> float:
        """Mean per-request seconds spent waiting for batch-mates."""
        waits = [w for b in self.batches for w in b.queue_waits]
        return float(np.mean(waits)) if waits else 0.0

    # --- robustness aggregates -------------------------------------------------

    @property
    def shed_rate(self) -> float:
        """Fraction of arrivals that were shed."""
        return self.shed / self.arrivals if self.arrivals else 0.0

    @property
    def timeout_rate(self) -> float:
        """Fraction of arrivals that exhausted their deadline."""
        return self.timed_out / self.arrivals if self.arrivals else 0.0

    @property
    def hops_saved_fraction(self) -> float:
        """Fraction of the full-depth hop budget the exit gate shed."""
        if self.question_hops_full <= 0:
            return 0.0
        return 1.0 - self.question_hops_run / self.question_hops_full

    def stage_breakdown(self, kind: str | None = None) -> dict[str, float]:
        """Mean seconds spent per stage group, over completed requests.

        Aggregated from the span traces — the queueing / embed /
        inference / backoff decomposition of the end-to-end latency.
        """
        traces = [
            t
            for t in self.traces
            if t.outcome == "completed" and (kind is None or t.kind == kind)
        ]
        if not traces:
            return {group: 0.0 for group in STAGE_GROUPS}
        return {
            group: float(np.mean([t.stage_seconds(group) for t in traces]))
            for group in STAGE_GROUPS
        }

    def reconcile(self) -> None:
        """Assert the lifecycle counters are mutually consistent.

        Every arrival must have exactly one terminal outcome, every
        completed request one latency sample, and every trace must be
        well-ordered.  Raises ``ValueError`` on the first violation.
        """
        if self.arrivals != self.completed + self.shed + self.timed_out:
            raise ValueError(
                f"{self.arrivals} arrivals != {self.completed} completed + "
                f"{self.shed} shed + {self.timed_out} timed out"
            )
        if self.completed != len(self.samples):
            raise ValueError(
                f"{self.completed} completed but {len(self.samples)} samples"
            )
        outcomes = {"completed": 0, "shed": 0, "timeout": 0}
        for trace in self.traces:
            trace.validate()
            outcomes[trace.outcome] += 1
        if (
            outcomes["completed"] != self.completed
            or outcomes["shed"] != self.shed
            or outcomes["timeout"] != self.timed_out
        ):
            raise ValueError(f"trace outcomes {outcomes} disagree with counters")

    def summary(self) -> dict[str, float]:
        breakdown = self.stage_breakdown("question")
        return {
            "batches": float(len(self.batches)),
            "batch_occupancy": self.batch_occupancy,
            "mean_batch_size": self.mean_batch_size,
            "batch_formation_wait": self.batch_formation_wait,
            "queueing_p50": self.queueing_percentile(50.0),
            "queueing_p99": self.queueing_percentile(99.0),
            "questions_completed": float(len(self.of_kind("question"))),
            "stories_completed": float(len(self.of_kind("story"))),
            "question_throughput": self.throughput("question"),
            "question_mean_latency": self.mean_latency("question"),
            "question_p50_latency": self.latency_percentile(50.0),
            "question_p95_latency": self.latency_percentile(95.0),
            "question_p99_latency": self.latency_percentile(99.0),
            "simulated_seconds": self.simulated_seconds,
            "arrivals": float(self.arrivals),
            "admitted": float(self.admitted),
            "shed": float(self.shed),
            "shed_rate": self.shed_rate,
            "timed_out": float(self.timed_out),
            "retries": float(self.retries),
            "degradation_peak_level": float(self.degradation_peak_level),
            "question_hops_run": float(self.question_hops_run),
            "question_hops_full": float(self.question_hops_full),
            "hops_saved_fraction": self.hops_saved_fraction,
            "queueing_seconds": breakdown["queueing"],
            "embed_seconds": breakdown["embed"],
            "inference_seconds": breakdown["inference"],
        }
