"""Span tracing from outside the program.

The traced run replaces the layers' public callables with wrappers
that record a span — name, start, end, parent span, op id — and
restores them afterwards.  Nothing under ``src/`` knows about it;
spans inside the program (GEMM vs exp vs weighted sum within the chunk
loop) are ROADMAP's ``repro.obs`` item.

The wrappers are installed on the classes, not on instances: the
engine rebuilds its solver after every write, so an instance-level
wrapper on the cached solver would be lost on the first
``store_story``.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import repro.core.engine as engine_module
from repro.batching.batcher import ContinuousBatcher
from repro.core.column import ColumnMemNN, PartialOutput
from repro.core.engine import MnnFastEngine
from repro.core.sharded import ShardedMemNN
from repro.index.ivf import IVFIndex
from repro.index.topk import TopKMemNN
from repro.store.mmap_store import MmapStore
from repro.store.prefetch import ChunkPrefetcher
from repro.store.resident import ResidentStore

#: (owner, attribute, span name).  ``store.fetch`` is listed although
#: the engine's chunk loop goes through ``ChunkPrefetcher.chunks`` and
#: never calls it: a span that never fires is reported absent.
BOUNDARIES = (
    (MnnFastEngine, "answer_batch", "engine.answer_batch"),
    (MnnFastEngine, "answer", "engine.answer"),
    (MnnFastEngine, "store_story", "engine.store_story"),
    (MnnFastEngine, "clear_memories", "engine.clear_memories"),
    (MnnFastEngine, "embed_question", "embed.question"),
    (ColumnMemNN, "__init__", "column.init"),
    (ColumnMemNN, "output", "column.output"),
    (ShardedMemNN, "__init__", "sharded.init"),
    (ShardedMemNN, "output", "sharded.output"),
    (PartialOutput, "merge", "sharded.merge"),
    (TopKMemNN, "__init__", "topk.init"),
    (TopKMemNN, "output", "topk.output"),
    (IVFIndex, "build", "index.build"),
    (IVFIndex, "probe", "index.probe"),
    (ResidentStore, "read_rows", "index.gather"),
    (MmapStore, "save", "store.save"),
    (MmapStore, "read_chunk", "store.read_chunk"),
    (ChunkPrefetcher, "fetch", "store.fetch"),
    (engine_module, "logit_margin_confidence", "early_exit.gate"),
    (ContinuousBatcher, "submit", "batching.submit"),
    (ContinuousBatcher, "poll", "batching.poll"),
)

#: Spans that construct a solver (the cost of the first answer after a
#: write).  ``index.build`` is not here: it runs lazily inside
#: ``topk.output`` and has its own metric.
BUILD_SPANS = ("column.init", "sharded.init", "topk.init", "store.save")


class Tracer:
    """In-memory span list; ``op`` is set by the block runner."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every boundary with its span-recording wrapper."""
        originals = []
        try:
            for owner, attr, name in BOUNDARIES:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__))
                else:
                    wrapped = self.wrap(name, original)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def take(self) -> list[list]:
        """The spans recorded since the last call (parent indices are
        relative to the returned list).  Cleared in place: the wrappers
        close over the list object."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``self`` seconds (duration minus the part child
    spans cover), ``total`` seconds, ``count``, and ``root`` seconds
    (total of the spans with no parent)."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self": 0.0, "total": 0.0, "count": 0, "root": 0.0}
    )
    for span, self_seconds in zip(spans, own):
        row = table[span[0]]
        duration = span[2] - span[1]
        row["self"] += self_seconds
        row["total"] += duration
        row["count"] += 1
        if span[3] < 0:
            row["root"] += duration
    return table


def build_events(spans: list[list]) -> list[float]:
    """Seconds of solver construction inside each ``engine.answer``
    that had to build one (the first answer after a write)."""
    per_answer: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span[3]
        if span[0] in BUILD_SPANS and parent >= 0 and spans[parent][0] == "engine.answer":
            per_answer[parent] += span[2] - span[1]
    return list(per_answer.values())
