"""Planner side of the planner/executor split.

An :class:`InferencePlan` is a pure description of what one inference
pass *would* do — which chunks it streams, how many candidate rows the
top-k tier admits, how deep the early-exit gate is expected to let the
batch run — computed without touching the memories.  Execution stays
in :class:`~repro.core.engine.MnnFastEngine`; the plan exists so a
placement layer (the cluster router) can reason about a request's
memory footprint *before* deciding where it runs, and so cost models
and the executed pass agree on one description of the work.

The early-exit survivor model lives here as the pure function
:func:`expected_hop_survivors`, parameterized by a plain ``exit_rate``
probability: the calibration from a gate *threshold* to a rate is a
serving-policy concern (:func:`repro.serving.policy.
exit_rate_for_threshold`), and core must not import serving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import FLOAT_BYTES, EngineConfig, MemNNConfig

__all__ = [
    "InferencePlan", "expected_hop_survivors", "plan_engine_pass", "plan_inference"
]


def expected_hop_survivors(
    batch_size: int,
    hops: int,
    min_hops: int = 1,
    exit_rate: float = 0.0,
) -> list[int]:
    """Expected questions still running at each hop under the gate.

    The early-exit cost model: every question runs hop 1; after each
    gate check (hops ``min_hops .. hops - 1`` — the engine never
    checks after the last hop) an ``exit_rate`` fraction of the
    survivors retires, so the expected depth histogram is geometric.
    Entry ``h`` is the batch size hop ``h`` is charged at.  With the
    gate disabled (``exit_rate`` 0) every entry is ``batch_size``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if hops < 1:
        raise ValueError(f"hops must be positive, got {hops}")
    if not 0.0 <= exit_rate <= 1.0:
        raise ValueError(f"exit_rate must be in [0, 1], got {exit_rate}")
    survivors: list[int] = []
    current = float(batch_size)
    for hop in range(hops):
        survivors.append(int(round(current)))
        if exit_rate > 0.0 and min_hops <= hop + 1 < hops:
            current *= 1.0 - exit_rate
    return survivors


@dataclass(frozen=True)
class InferencePlan:
    """What one inference pass will do, described without running it.

    Attributes:
        batch_size: questions in the pass.
        num_rows: memory rows backing the pass (the full store).
        embedding_dim: embedding width ``ed``.
        chunk_size: rows per streamed chunk of the column dataflow.
        chunks: global chunk indices the pass streams, in stream
            order.  Full coverage by default; a retrieval tier or a
            topic-locality workload narrows this to the chunks its
            candidate rows actually occupy — the set the router
            intersects with replica LRU contents.
        candidate_rows: expected rows the exact kernel scans per hop
            (``num_rows`` without a top-k tier).
        hops: configured hop count.
        min_hops: first hop after which the early-exit gate may fire.
        exit_rate: per-check expected exit probability (0 disables).
        survivors: expected batch size charged at each hop
            (:func:`expected_hop_survivors`).
        num_shards: shard fan-out of each hop (1 = unsharded).
        shard_policy: ``"contiguous"`` or ``"strided"``.
        dtype_bytes: bytes per element of the streamed memories.
    """

    batch_size: int
    num_rows: int
    embedding_dim: int
    chunk_size: int
    chunks: tuple[int, ...]
    candidate_rows: int
    hops: int
    min_hops: int
    exit_rate: float
    survivors: tuple[int, ...]
    num_shards: int = 1
    shard_policy: str = "contiguous"
    dtype_bytes: int = FLOAT_BYTES

    def __post_init__(self) -> None:
        if self.num_rows < 1:
            raise ValueError(f"num_rows must be positive, got {self.num_rows}")
        if self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be positive, got {self.chunk_size}"
            )
        if not self.chunks:
            raise ValueError("a plan must stream at least one chunk")
        total = self.total_chunks
        bad = [c for c in self.chunks if not 0 <= c < total]
        if bad:
            raise ValueError(
                f"chunk indices {bad} outside [0, {total}) for "
                f"{self.num_rows} rows at chunk_size {self.chunk_size}"
            )
        if len(self.survivors) != self.hops:
            raise ValueError(
                f"survivors has {len(self.survivors)} entries for "
                f"{self.hops} hops"
            )

    @property
    def total_chunks(self) -> int:
        """Chunks covering the whole store (the plan may touch fewer)."""
        return math.ceil(self.num_rows / self.chunk_size)

    @property
    def num_chunks(self) -> int:
        """Chunks this pass streams."""
        return len(self.chunks)

    @property
    def executed_hops(self) -> int:
        """Hops expected to run at all (survivor count >= 1)."""
        return sum(1 for rows in self.survivors if rows >= 1)

    @property
    def expected_hops(self) -> float:
        """Expected per-question hop depth under the gate."""
        return sum(self.survivors) / self.batch_size

    @property
    def hop_bytes(self) -> int:
        """Memory traffic of one hop: the planned chunks of both
        ``M_IN`` and ``M_OUT``, streamed once per hop regardless of
        batch size (the column dataflow's amortization)."""
        per_chunk = self.chunk_rows_total * self.embedding_dim
        return 2 * per_chunk * self.dtype_bytes

    @property
    def chunk_rows_total(self) -> int:
        """Rows covered by the planned chunks (the tail chunk may be
        short)."""
        full, tail = divmod(self.num_rows, self.chunk_size)
        rows = 0
        for c in self.chunks:
            rows += self.chunk_size if c < full else tail
        return rows

    @property
    def bytes_streamed(self) -> int:
        """Total planned memory traffic across the executed hops."""
        return self.hop_bytes * self.executed_hops


def plan_inference(
    num_rows: int,
    embedding_dim: int,
    batch_size: int = 1,
    *,
    chunk_size: int = 1000,
    hops: int = 1,
    min_hops: int = 1,
    exit_rate: float = 0.0,
    candidate_rows: int | None = None,
    chunks: tuple[int, ...] | None = None,
    num_shards: int = 1,
    shard_policy: str = "contiguous",
    dtype_bytes: int = FLOAT_BYTES,
) -> InferencePlan:
    """Build an :class:`InferencePlan` from first principles.

    ``chunks`` defaults to full coverage of the store; pass an
    explicit subset when a retrieval tier (or workload topic locality)
    bounds which chunks the candidate rows can occupy.
    ``candidate_rows`` defaults to a full scan.
    """
    if chunks is None:
        chunks = tuple(range(math.ceil(num_rows / chunk_size)))
    if candidate_rows is None:
        candidate_rows = num_rows
    survivors = tuple(
        expected_hop_survivors(batch_size, hops, min_hops, exit_rate)
    )
    return InferencePlan(
        batch_size=batch_size,
        num_rows=num_rows,
        embedding_dim=embedding_dim,
        chunk_size=chunk_size,
        chunks=chunks,
        candidate_rows=candidate_rows,
        hops=hops,
        min_hops=min_hops,
        exit_rate=exit_rate,
        survivors=survivors,
        num_shards=num_shards,
        shard_policy=shard_policy,
        dtype_bytes=dtype_bytes,
    )


def plan_engine_pass(
    network: MemNNConfig,
    engine: EngineConfig,
    rows: int,
    batch_size: int,
    exit_rate: float,
    chunks: tuple[int, ...] | None = None,
) -> InferencePlan:
    """:func:`plan_inference` of one pass of ``network`` under
    ``engine`` over ``rows`` memory rows — what
    :meth:`~repro.core.engine.MnnFastEngine.plan` and
    :meth:`~repro.serving.server.QaServer.plan` both describe.  The
    top-k tier narrows the candidate rows when enabled, and
    ``exit_rate`` counts only when the early-exit gate is."""
    return plan_inference(
        num_rows=rows,
        embedding_dim=network.embedding_dim,
        batch_size=batch_size,
        chunk_size=engine.chunk.chunk_size,
        hops=network.hops,
        min_hops=engine.early_exit.min_hops,
        exit_rate=exit_rate if engine.early_exit.enabled else 0.0,
        candidate_rows=(
            engine.topk.expected_candidates(rows, batch_size=batch_size)
            if engine.topk.enabled
            else rows
        ),
        chunks=chunks,
        num_shards=engine.num_shards,
        shard_policy=engine.shard_policy,
    )
