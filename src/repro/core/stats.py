"""Operation accounting: FLOPs, bytes moved, and intermediate spills.

The paper's bottleneck analysis (§2.2) and every platform model in
:mod:`repro.perf` are driven by the same question: *for a given network
shape and algorithm, how much arithmetic happens in each phase and how
many bytes cross the memory hierarchy?*  This module centralizes that
arithmetic so the numerical engines, the cache simulator traces, and
the analytical platform models all agree.

Two layers:

* :class:`OpStats` — a counter bundle produced by the numerical engines
  while they run (exact, includes zero-skipping effects).
* :func:`baseline_phase_costs` / :func:`column_phase_costs` — closed-form
  per-phase costs (inner product, softmax, weighted sum) for a
  :class:`~repro.core.config.MemNNConfig`, used by the platform models
  where running the actual numerics at paper scale (100M sentences)
  would be impossible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import FLOAT_BYTES, ChunkConfig, MemNNConfig

__all__ = [
    "OpStats",
    "PhaseCost",
    "baseline_phase_costs",
    "column_phase_costs",
    "PHASES",
]

#: The three inference phases of Fig. 5, in dataflow order.
PHASES = ("inner_product", "softmax", "weighted_sum")


@dataclass
class OpStats:
    """Counters accumulated by a numerical inference engine.

    Attributes:
        flops: floating-point multiply/add/divide/exp operations.
        divisions: division operations (the column-based algorithm cuts
            these from ``O(ns)`` to ``O(ed)``, §3.1).
        exp_calls: exponentiations (softmax numerator).
        bytes_read: bytes loaded from the memory matrices.
        bytes_written: bytes stored (outputs and spills).
        intermediate_bytes: peak bytes of live intermediate data — the
            quantity the column-based algorithm exists to shrink.
        rows_computed: output-memory rows that entered the weighted sum.
        rows_skipped: rows bypassed by zero-skipping.
    """

    flops: int = 0
    divisions: int = 0
    exp_calls: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    intermediate_bytes: int = 0
    rows_computed: int = 0
    rows_skipped: int = 0

    def __add__(self, other: "OpStats") -> "OpStats":
        return OpStats(
            flops=self.flops + other.flops,
            divisions=self.divisions + other.divisions,
            exp_calls=self.exp_calls + other.exp_calls,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            intermediate_bytes=max(self.intermediate_bytes, other.intermediate_bytes),
            rows_computed=self.rows_computed + other.rows_computed,
            rows_skipped=self.rows_skipped + other.rows_skipped,
        )

    def accumulate(self, other: "OpStats") -> None:
        """``self = self + other`` in place, for a running total the
        caller owns (no new object per term)."""
        self.flops += other.flops
        self.divisions += other.divisions
        self.exp_calls += other.exp_calls
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        if other.intermediate_bytes > self.intermediate_bytes:
            self.intermediate_bytes = other.intermediate_bytes
        self.rows_computed += other.rows_computed
        self.rows_skipped += other.rows_skipped

    def amortized(self, num_questions: int) -> "OpStats":
        """Fair per-question share of a batch's counters.

        The column-based dataflow streams the memory matrices once per
        *batch*, so a batch of ``nq`` questions attributes ``1/nq`` of
        every additive counter to each question (integer division;
        ``intermediate_bytes`` is a peak, not additive, and is kept
        whole).  This is attribution for reporting — the batch-level
        counters remain the ground truth.
        """
        if num_questions <= 0:
            raise ValueError(
                f"num_questions must be positive, got {num_questions}"
            )
        n = num_questions
        return OpStats(
            flops=self.flops // n,
            divisions=self.divisions // n,
            exp_calls=self.exp_calls // n,
            bytes_read=self.bytes_read // n,
            bytes_written=self.bytes_written // n,
            intermediate_bytes=self.intermediate_bytes,
            rows_computed=self.rows_computed // n,
            rows_skipped=self.rows_skipped // n,
        )

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def skip_ratio(self) -> float:
        """Fraction of output rows bypassed by zero-skipping."""
        total = self.rows_computed + self.rows_skipped
        return self.rows_skipped / total if total else 0.0


@dataclass(frozen=True)
class PhaseCost:
    """Closed-form cost of one inference phase.

    Attributes:
        flops: arithmetic operations in the phase.
        dram_bytes: bytes that must come from / go to off-chip DRAM
            (compulsory memory-matrix traffic plus intermediate spills
            that exceed the cache).
        cache_bytes: bytes served by on-chip storage (chunk-resident
            intermediates in the column-based algorithm).
    """

    flops: float
    dram_bytes: float
    cache_bytes: float = 0.0

    def __add__(self, other: "PhaseCost") -> "PhaseCost":
        return PhaseCost(
            flops=self.flops + other.flops,
            dram_bytes=self.dram_bytes + other.dram_bytes,
            cache_bytes=self.cache_bytes + other.cache_bytes,
        )


def baseline_phase_costs(cfg: MemNNConfig) -> dict[str, PhaseCost]:
    """Per-phase costs of the baseline dataflow (Fig. 5a).

    The baseline materializes three ``nq x ns`` intermediates
    (``T_IN``, ``P_exp``, ``P``); at large ``ns`` they cannot stay in
    the LLC (§3.1's 800 MB example), so each is written to and re-read
    from DRAM between phases.
    """
    ns, nq, ed = cfg.num_sentences, cfg.num_questions, cfg.embedding_dim
    inter = ns * nq * FLOAT_BYTES  # one nq x ns intermediate matrix

    inner = PhaseCost(
        # u (nq x ed) . M_IN^T (ed x ns): 2 flops per MAC.
        flops=2.0 * nq * ns * ed,
        # Read M_IN once + write T_IN spill.
        dram_bytes=cfg.memory_bytes + inter,
    )
    softmax_phase = PhaseCost(
        # exp per element + sum + ns divisions per question (step 2-2).
        flops=3.0 * nq * ns,
        # Read T_IN back, write P_exp, read P_exp, write P.
        dram_bytes=4.0 * inter,
    )
    weighted = PhaseCost(
        # P (nq x ns) . M_OUT (ns x ed).
        flops=2.0 * nq * ns * ed,
        # Read P back + read M_OUT; output o is nq x ed (negligible).
        dram_bytes=inter + cfg.memory_bytes,
    )
    return {
        "inner_product": inner,
        "softmax": softmax_phase,
        "weighted_sum": weighted,
    }


def column_phase_costs(
    cfg: MemNNConfig,
    chunk: ChunkConfig,
    skip_ratio: float = 0.0,
) -> dict[str, PhaseCost]:
    """Per-phase costs of the column-based dataflow (Fig. 5b).

    Intermediates are ``nq x chunk`` and live in the cache
    (``cache_bytes``); only the memory matrices stream from DRAM.  The
    lazy softmax defers division to the end: ``nq x ed`` divisions
    total instead of ``nq x ns``.

    Args:
        skip_ratio: fraction of weighted-sum rows bypassed by
            zero-skipping (0 disables it).
    """
    if not 0.0 <= skip_ratio <= 1.0:
        raise ValueError(f"skip_ratio must be in [0, 1], got {skip_ratio}")
    ns, nq, ed = cfg.num_sentences, cfg.num_questions, cfg.embedding_dim
    chunk_inter = chunk.chunk_size * nq * FLOAT_BYTES
    n_chunks = chunk.num_chunks(ns)

    inner = PhaseCost(
        flops=2.0 * nq * ns * ed,
        dram_bytes=cfg.memory_bytes,  # M_IN streamed once
        cache_bytes=float(n_chunks * chunk_inter),  # T_IN per chunk
    )
    softmax_phase = PhaseCost(
        # exp + running sum per element, then the lazy division at the
        # very end: ed divisions per question.
        flops=2.0 * nq * ns + nq * ed,
        dram_bytes=0.0,
        cache_bytes=2.0 * n_chunks * chunk_inter,
    )
    weighted = PhaseCost(
        flops=2.0 * nq * ns * ed * (1.0 - skip_ratio),
        dram_bytes=cfg.memory_bytes * (1.0 - skip_ratio),  # skipped rows unread
        cache_bytes=float(n_chunks * chunk_inter),
    )
    return {
        "inner_product": inner,
        "softmax": softmax_phase,
        "weighted_sum": weighted,
    }
