"""Deadline-aware continuous batching of question requests.

The column-based algorithm streams ``M_IN``/``M_OUT`` once per *batch*
of questions, so its dominant cost — the memory stream — amortizes
across the batch (the sizing observation behind the paper's GPU
scalability results, §5 / Fig. 12, and the reason
:meth:`~repro.core.column.ColumnMemNN.partial_output` takes an
``nq x ed`` question matrix).  This module provides the serving-side
half of that bargain: a request queue that coalesces an *online*
question stream into engine batches under a
:class:`~repro.core.config.BatchConfig` policy.

Dispatch rules (continuous batching, the core trick of modern
inference stacks):

* a batch dispatches **immediately** when it reaches
  ``max_batch_size`` — no artificial waiting once full;
* the oldest queued question is never held longer than ``max_wait``
  seconds — the latency ceiling batching may add;
* a question is never coalesced **past its admission deadline**: the
  batcher's next forced-dispatch time is clamped to the earliest
  absolute deadline in the queue, so a driver that honors
  :meth:`ContinuousBatcher.next_forced_dispatch` ships every request
  while it can still meet its deadline (the PR-1 deadline machinery of
  :mod:`repro.serving.requests`, applied at batch-formation time).

Every formed batch carries a :class:`BatchFormation` record — fill
ratio, per-request queue waits, per-request deadline slack and the
dispatch reason — which the serving metrics aggregate into
batch-occupancy statistics.

The batcher is deliberately *request-type agnostic*: it queues any
object (the serving simulator feeds it
:class:`~repro.serving.requests.QuestionRequest` instances; the tests
feed it plain tuples) and tracks time/deadlines itself, so it composes
with any driver — the discrete-event serving simulator, an offline
trace replay via :func:`form_batches`, or a real asyncio loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..core.config import BatchConfig

__all__ = [
    "BatchFormation",
    "BatcherStats",
    "ContinuousBatcher",
    "FormedBatch",
    "QueuedQuestion",
    "form_batches",
]

#: Forced-dispatch comparisons tolerate this much floating-point slop.
_TIME_EPS = 1e-12

#: Dispatch reasons a batch may form under.
DISPATCH_REASONS = ("full", "wait", "deadline", "flush")


@dataclass(frozen=True)
class QueuedQuestion:
    """One queued request with its admission bookkeeping.

    Attributes:
        item: the underlying request object (opaque to the batcher).
        enqueued: simulated time the request entered the queue.
        deadline: *absolute* time by which the request must have been
            dispatched (``None`` for no deadline).
    """

    item: Any
    enqueued: float
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline < self.enqueued:
            raise ValueError(
                f"deadline {self.deadline} predates enqueue {self.enqueued}"
            )


@dataclass(frozen=True)
class BatchFormation:
    """Formation statistics of one dispatched batch.

    Attributes:
        formed_at: dispatch time.
        size: questions in the batch.
        capacity: the policy's ``max_batch_size``.
        reason: what triggered dispatch — ``"full"`` (capacity
            reached), ``"wait"`` (oldest member hit ``max_wait``),
            ``"deadline"`` (a member's admission deadline loomed) or
            ``"flush"`` (explicit drain).
        queue_waits: per-member seconds spent waiting in the batcher,
            in admission order.
        deadline_slacks: per-member ``deadline - formed_at`` for the
            members that carry deadlines (non-negative when the driver
            honors :meth:`ContinuousBatcher.next_forced_dispatch`).
    """

    formed_at: float
    size: int
    capacity: int
    reason: str
    queue_waits: tuple[float, ...]
    deadline_slacks: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.reason not in DISPATCH_REASONS:
            raise ValueError(
                f"reason must be one of {DISPATCH_REASONS}, got {self.reason!r}"
            )

    @property
    def fill_ratio(self) -> float:
        """``size / capacity`` — 1.0 is a perfectly amortized batch."""
        return self.size / self.capacity

    @property
    def mean_queue_wait(self) -> float:
        return sum(self.queue_waits) / self.size if self.size else 0.0

    @property
    def min_deadline_slack(self) -> float:
        """Tightest member slack (``inf`` when no member has one)."""
        return min(self.deadline_slacks) if self.deadline_slacks else float("inf")


@dataclass(frozen=True)
class FormedBatch:
    """A dispatched batch: the member requests plus formation stats."""

    entries: tuple[QueuedQuestion, ...]
    formation: BatchFormation

    @property
    def items(self) -> tuple[Any, ...]:
        """The underlying request objects, in admission order."""
        return tuple(entry.item for entry in self.entries)

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass
class BatcherStats:
    """Aggregate formation statistics across a batcher's lifetime."""

    submitted: int = 0
    dispatched: int = 0
    formations: list[BatchFormation] = field(default_factory=list)

    @property
    def batches_formed(self) -> int:
        return len(self.formations)

    @property
    def mean_fill_ratio(self) -> float:
        """Mean per-batch fill — the batch-occupancy headline."""
        if not self.formations:
            return 0.0
        return sum(f.fill_ratio for f in self.formations) / len(self.formations)

    @property
    def mean_batch_size(self) -> float:
        if not self.formations:
            return 0.0
        return self.dispatched / len(self.formations)

    @property
    def mean_queue_wait(self) -> float:
        """Mean per-request formation wait across all dispatches."""
        if not self.dispatched:
            return 0.0
        return (
            sum(sum(f.queue_waits) for f in self.formations) / self.dispatched
        )


class ContinuousBatcher:
    """A deadline-aware question-coalescing queue.

    Drive it with three calls: :meth:`submit` on every arrival,
    :meth:`poll` whenever the clock reaches
    :meth:`next_forced_dispatch`, and :meth:`flush` to drain at end of
    stream.  Dispatch is FIFO and never reorders requests.

    Args:
        policy: ``max_batch_size`` / ``max_wait`` knobs
            (:class:`~repro.core.config.BatchConfig`).
    """

    def __init__(self, policy: BatchConfig | None = None) -> None:
        self.policy = policy if policy is not None else BatchConfig()
        self._queue: deque[QueuedQuestion] = deque()
        self._clock = 0.0
        self.stats = BatcherStats()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to be batched."""
        return len(self._queue)

    # --- admission -----------------------------------------------------------

    def submit(
        self, item: Any, now: float, deadline: float | None = None
    ) -> FormedBatch | None:
        """Admit one request at time ``now``.

        ``deadline`` is the request's *absolute* admission deadline
        (``None`` for no deadline).  Returns a :class:`FormedBatch`
        when this admission filled the batch to capacity (dispatching
        it immediately), else ``None``.  ``now`` must be monotone
        across calls.
        """
        if now + _TIME_EPS < self._clock:
            raise ValueError(
                f"time went backwards: submit at {now} after {self._clock}"
            )
        self._clock = max(self._clock, now)
        self._queue.append(QueuedQuestion(item, enqueued=now, deadline=deadline))
        self.stats.submitted += 1
        if len(self._queue) >= self.policy.max_batch_size:
            return self._dispatch(now, "full")
        return None

    # --- dispatch ------------------------------------------------------------

    def next_forced_dispatch(self) -> float | None:
        """Earliest time the queued batch must dispatch, or ``None``.

        The minimum of the oldest member's ``max_wait`` expiry and the
        earliest member admission deadline — the invariant that no
        request is coalesced past its deadline lives here.  A driver
        must call :meth:`poll` no later than this time.
        """
        if not self._queue:
            return None
        forced = self._queue[0].enqueued + self.policy.max_wait
        for entry in self._queue:
            if entry.deadline is not None:
                forced = min(forced, entry.deadline)
        return forced

    def poll(self, now: float) -> FormedBatch | None:
        """Dispatch the pending batch if a rule fires at time ``now``.

        Returns the batch when the queue is at capacity, the oldest
        member has waited ``max_wait``, or a member's admission
        deadline has arrived; ``None`` otherwise.
        """
        if not self._queue:
            return None
        self._clock = max(self._clock, now)
        if len(self._queue) >= self.policy.max_batch_size:
            return self._dispatch(now, "full")
        forced = self.next_forced_dispatch()
        if forced is not None and now + _TIME_EPS >= forced:
            wait_expiry = self._queue[0].enqueued + self.policy.max_wait
            reason = "wait" if forced + _TIME_EPS >= wait_expiry else "deadline"
            return self._dispatch(now, reason)
        return None

    def flush(self, now: float) -> FormedBatch | None:
        """Dispatch whatever is queued (end-of-stream drain)."""
        if not self._queue:
            return None
        self._clock = max(self._clock, now)
        return self._dispatch(now, "flush")

    def _dispatch(self, now: float, reason: str) -> FormedBatch:
        size = min(len(self._queue), self.policy.max_batch_size)
        entries = tuple(self._queue.popleft() for _ in range(size))
        formation = BatchFormation(
            formed_at=now,
            size=size,
            capacity=self.policy.max_batch_size,
            reason=reason,
            queue_waits=tuple(now - e.enqueued for e in entries),
            deadline_slacks=tuple(
                e.deadline - now for e in entries if e.deadline is not None
            ),
        )
        self.stats.dispatched += size
        self.stats.formations.append(formation)
        return FormedBatch(entries=entries, formation=formation)


def form_batches(
    requests: Iterable[Any],
    policy: BatchConfig | None = None,
    default_deadline: float | None = None,
) -> list[FormedBatch]:
    """Replay an arrival stream through a batcher offline.

    ``requests`` are objects with an ``arrival`` attribute and an
    optional per-request ``deadline`` (relative seconds, as on
    :class:`~repro.serving.requests.QuestionRequest`);
    ``default_deadline`` fills in for requests without one.  The
    stream is processed in arrival order with forced dispatches
    honored exactly at :meth:`ContinuousBatcher.next_forced_dispatch`
    times, so no request is ever coalesced past its admission
    deadline.  Returns every batch, in dispatch order.
    """
    batcher = ContinuousBatcher(policy)
    batches: list[FormedBatch] = []
    ordered: Sequence[Any] = sorted(requests, key=lambda r: r.arrival)
    for request in ordered:
        while True:
            forced = batcher.next_forced_dispatch()
            if forced is None or forced > request.arrival + _TIME_EPS:
                break
            batch = batcher.poll(forced)
            if batch is None:
                break
            batches.append(batch)
        relative = getattr(request, "deadline", None)
        if relative is None:
            relative = default_deadline
        absolute = request.arrival + relative if relative is not None else None
        batch = batcher.submit(request, now=request.arrival, deadline=absolute)
        if batch is not None:
            batches.append(batch)
    while batcher.queue_depth:
        forced = batcher.next_forced_dispatch()
        batch = batcher.poll(forced)
        if batch is None:  # pragma: no cover — poll always fires at forced
            batch = batcher.flush(forced)
        batches.append(batch)
    return batches
