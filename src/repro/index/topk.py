"""TopKMemNN — approximate retrieval in front of exact attention.

The solver wraps the existing exact kernels rather than replacing
them: an :class:`~repro.index.ivf.IVFIndex` selects candidate rows per
question batch, and the lazy-softmax column dataflow (or its sharded
fan-out) runs *unchanged* on the candidate subset.  A resident,
unsharded memory is copied once, at index-build time, into
*cluster-major* order (each cluster's rows contiguous, ``M_IN``
gathered feature-major), so a probe's candidates are a few row runs —
plain per-run score GEMMs — of that copy and one long-lived
:class:`~repro.core.column.ColumnMemNN` scans them in place — no
per-hop gather, no per-hop solver.  An out-of-core tier is scanned
through a :class:`~repro.store.base.RowSubsetStore` view and a sharded
fan-out over gathered rows (PR 5's gather substrate).  The only
approximation is which rows are examined; the arithmetic on the
examined rows is the exact kernel's.

At or below ``TopKConfig.min_rows`` (the measured crossover) the
solver builds no index and delegates to the exact kernel over the full
memory — *bit-exact* with the non-topk path; an engine hop there is
that kernel's own hop — so the tier can be left enabled
unconditionally and small memories pay nothing.

With ``measure_recall`` set, each pass also computes the attention-mass
recall: the fraction of the exact softmax mass the candidate set
captured, from two threshold-0 scans of the column kernel: one over the
candidates, one over the full memory.
That is the metric the differential harness and the recall benchmark
hold a floor on (answer agreement is checked separately at the
answer-ID level); it costs the ``O(ns * ed)`` scan the tier exists to
avoid, so it is measurement machinery, not the serving path — recall
measurement runs outside the pass's timed window.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..core.column import ColumnMemNN
from ..core.config import ChunkConfig, ExecutionConfig, TopKConfig, ZeroSkipConfig
from ..core.results import InferenceResult
from ..core.sharded import ShardedMemNN
from ..core.stats import OpStats
from ..store.base import MemoryStore, RowSubsetStore, StoreStats, check_questions
from ..store.resident import memory_store
from .ivf import IVFIndex
from .stats import IndexStats

__all__ = ["TopKMemNN", "probe_stats"]

class TopKMemNN:
    """Top-k candidate retrieval feeding the exact column kernels.

    Args:
        m_in: ``(ns, ed)`` input memory (omit when ``store`` is given).
        m_out: ``(ns, ed)`` output memory.
        config: the :class:`~repro.core.config.TopKConfig` driving the
            tier (must be enabled — a disabled tier has no reason to
            construct this solver).
        chunk: chunking of the downstream column dataflow.
        dtype: compute precision (a ``store`` dictates its own).
        store: a :class:`~repro.store.MemoryStore` to retrieve from
            instead of resident arrays; candidate subsets become lazy
            :class:`~repro.store.base.RowSubsetStore` views of it.
        num_shards: fan the candidate subset out over this many shards
            (1 runs the plain column kernel).
        shard_policy: row-partition policy of the candidate fan-out.
        execution: execution backend for the sharded fan-out.
        resident_bytes: chunk-LRU budget of store-backed passes.
        prefetch_depth: chunk lookahead of store-backed passes.
    """

    def __init__(
        self,
        m_in: np.ndarray | None = None,
        m_out: np.ndarray | None = None,
        config: TopKConfig | None = None,
        chunk: ChunkConfig | None = None,
        dtype=np.float64,
        store: MemoryStore | None = None,
        num_shards: int = 1,
        shard_policy: str = "contiguous",
        execution: ExecutionConfig | None = None,
        resident_bytes: int | None = None,
        prefetch_depth: int = 0,
    ) -> None:
        self.config = config if config is not None else TopKConfig(nprobe=8)
        if not self.config.enabled:
            raise ValueError(
                "TopKMemNN requires an enabled TopKConfig (nprobe > 0); "
                "run the exact kernels directly when the tier is off"
            )
        self.chunk = chunk if chunk is not None else ChunkConfig()
        self.num_shards = num_shards
        self.shard_policy = shard_policy
        self.execution = execution
        self._resident_bytes = resident_bytes
        self._prefetch_depth = prefetch_depth
        # An explicit store keeps store semantics end to end (subset
        # passes run through the chunk pipeline and its ledger); plain
        # arrays keep the pipeline-free hot path of the array kernels.
        self._explicit_store = store is not None
        self._base = memory_store(m_in, m_out, store, dtype)
        self.dtype = self._base.dtype
        self._index: IVFIndex | None = None
        #: The column kernel over the cluster-major copy of a resident
        #: unsharded memory; built with the index.
        self._cluster_scan: ColumnMemNN | None = None
        self._build_seconds = 0.0
        self._build_charged = False
        self._exact_solver: ColumnMemNN | ShardedMemNN | None = None
        self._subset_store_stats: StoreStats | None = None

    # --- geometry ------------------------------------------------------------

    @property
    def num_sentences(self) -> int:
        return self._base.num_rows

    @property
    def embedding_dim(self) -> int:
        return self._base.embedding_dim

    @property
    def store(self) -> MemoryStore:
        """The tier the candidate rows are retrieved from."""
        return self._base

    @property
    def uses_index(self) -> bool:
        """Whether this memory's size puts passes through the index."""
        return self.config.uses_index(self.num_sentences)

    @property
    def index(self) -> IVFIndex | None:
        """The built IVF index (``None`` until the first indexed pass)."""
        return self._index

    @property
    def store_stats(self) -> StoreStats | None:
        """Cumulative chunk-pipeline ledger across all passes (subset
        passes plus the exact-fallback solver), or ``None`` when no
        pass ran a pipeline."""
        total: StoreStats | None = self._subset_store_stats
        if self._exact_solver is not None:
            exact = self._exact_solver.store_stats
            if exact is not None:
                total = exact if total is None else total + exact
        return total.snapshot() if total is not None else None

    # --- inference -----------------------------------------------------------

    def output(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
        u_tile: np.ndarray | None = None,
    ) -> InferenceResult | tuple[np.ndarray, int, int, tuple]:
        """Response vectors via probe -> candidate scan with the exact
        kernel.

        Mirrors the exact solvers' ``output`` signature so the engine
        dispatches to it interchangeably; the result additionally
        carries an :class:`~repro.index.stats.IndexStats`.

        With ``u_tile``, an indexed pass over the cluster-major copy
        that records no recall or candidates is an engine hop, as in
        ``ColumnMemNN.output``: ``u`` and ``u_tile`` advance in place and
        ``(o, rows, kept, (num_rows, nlist, nprobe, build_seconds,
        probe_seconds))`` comes back, the engine's to build records from.
        So is a pass below ``min_rows`` over a plain resident memory,
        with ``nlist`` 0 (see :meth:`_exact_output`).
        """
        if not self.uses_index:
            return self._exact_output(u, zero_skip, u_tile)

        start = time.perf_counter()
        index = self._ensure_index()
        build_seconds = 0.0 if self._build_charged else self._build_seconds
        self._build_charged = True
        config = self.config
        recorded = config.measure_recall or config.record_candidates
        # An engine hop's one question check is the probe's: the scan
        # takes the hop state as it is and advances it in place.
        hop = u_tile is not None and self._cluster_scan is not None and not recorded
        if not hop:
            u_checked = check_questions(u, self.dtype, self.embedding_dim)
        probe_start = time.perf_counter()
        # The few centroids are float64: only the scan takes u narrowed.
        runs, _ = index.probe(u, config.nprobe)
        probe_seconds = time.perf_counter() - probe_start
        if hop:
            output, rows, kept = self._cluster_scan.output(
                u, zero_skip, runs=runs, u_tile=u_tile
            )
            tier = (
                self.num_sentences, index.nlist, config.nprobe,
                build_seconds, probe_seconds,
            )  # fmt: skip
            return output, rows, kept, tier

        # Original row ids: what the gather paths read by, and
        # measurement machinery on the run path.
        candidates = None
        if self._cluster_scan is None or recorded:
            candidates = index.rows(runs)
        if self._cluster_scan is not None:
            result = self._cluster_scan.output(
                u_checked, zero_skip=zero_skip, runs=runs
            )
        else:
            solver = self._build_solver(candidates=candidates)
            result = solver.output(u_checked, zero_skip=zero_skip)
            self._absorb_subset_ledger(solver)
            solver.close()
        result.stats = result.stats + probe_stats(
            len(u_checked), index.nlist, self.embedding_dim
        )
        elapsed = time.perf_counter() - start

        recall = None
        if config.measure_recall:
            # Diagnostics-only O(ns*ed) pass, outside the timed window.
            recall = self._attention_mass_recall(u_checked, candidates)
        result.index_stats = IndexStats(
            num_rows=self.num_sentences,
            candidate_rows=int(np.diff(runs).sum()),
            nlist=index.nlist,
            nprobe=config.nprobe,
            used_index=True,
            build_seconds=build_seconds,
            probe_seconds=probe_seconds,
            recall=recall,
            candidates=(
                tuple(int(row) for row in candidates)
                if config.record_candidates
                else None
            ),
        )
        result.elapsed_seconds = elapsed
        # Replace the subset solver's per-pass ledger with the tier's
        # cumulative one (private storage: tier_stats() is the only
        # read surface since the attribute shims were removed).
        result._store_stats = self.store_stats
        return result

    # --- internals -----------------------------------------------------------

    def _exact_output(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None,
        u_tile: np.ndarray | None,
    ) -> InferenceResult | tuple[np.ndarray, int, int, tuple]:
        """Exact-scan fallback: the configured kernel over every row,
        bit-identical to the tier being disabled.  An engine hop over a
        plain resident kernel is that kernel's own (one matmul and one C
        call per tile) and comes back as an indexed hop's record, with
        ``nlist`` 0: no index ran."""
        if self._exact_solver is None:
            self._exact_solver = self._build_solver(full_memory=True)
        exact = self._exact_solver
        if (
            u_tile is not None and not self.config.measure_recall
            and type(exact) is ColumnMemNN and exact.store_stats is None
        ):  # fmt: skip
            tier = (self.num_sentences, 0, self.config.nprobe, 0.0, 0.0)
            return *exact.output(u, zero_skip, u_tile=u_tile), tier
        result = exact.output(u, zero_skip=zero_skip)
        result.index_stats = IndexStats(
            num_rows=self.num_sentences,
            candidate_rows=self.num_sentences,
            nlist=0,
            nprobe=self.config.nprobe,
            used_index=False,
            recall=1.0 if self.config.measure_recall else None,
        )
        return result

    def _ensure_index(self) -> IVFIndex:
        if self._index is None:
            build_start = time.perf_counter()
            self._index = IVFIndex.build(
                self._base,
                nlist=self.config.effective_nlist(self.num_sentences),
                kmeans_iters=self.config.kmeans_iters,
                seed=self.config.seed,
            )
            if not self._explicit_store and self.num_shards == 1:
                self._cluster_scan = ColumnMemNN(
                    *self._base.read_rows(self._index.members),
                    chunk=self.chunk,
                    dtype=self.dtype,
                )
            self._build_seconds = time.perf_counter() - build_start
            self._build_charged = False
        return self._index

    def _build_solver(
        self,
        full_memory: bool = False,
        candidates: np.ndarray | None = None,
    ) -> ColumnMemNN | ShardedMemNN:
        """The exact kernel over the full memory or a candidate subset."""
        execution = self.execution
        if (
            not full_memory
            and execution is not None
            and execution.backend == "process"
        ):
            # Candidate-subset solvers are transient — one per pass,
            # over a different row set each time.  Routing them through
            # the process backend would spill the gathered subset and
            # spin a worker pool per pass, costing far more than the
            # fan-out parallelizes; the process backend accelerates the
            # long-lived full-memory fallback only, and subset passes
            # run the serial per-shard loop.
            execution = replace(execution, backend="serial", num_workers=1)
        source = self._base if full_memory else self._base.select(candidates)
        tier = {
            "resident_bytes": self._resident_bytes,
            "prefetch_depth": self._prefetch_depth,
        }
        if self._explicit_store:
            tier["store"] = source
        else:
            tier.update(m_in=source.m_in, m_out=source.m_out, dtype=self.dtype)
        if self.num_shards > 1:
            return ShardedMemNN(
                num_shards=self.num_shards,
                policy=self.shard_policy,
                chunk=self.chunk,
                execution=execution,
                **tier,
            )
        return ColumnMemNN(chunk=self.chunk, **tier)

    def close(self) -> None:
        """Release the full-memory fallback solver's backend resources
        (worker pool / self-spilled store).  The tier stays usable —
        the next exact-fallback pass rebuilds the solver."""
        if self._exact_solver is not None:
            self._exact_solver.close()
            self._exact_solver = None

    def _absorb_subset_ledger(self, solver: ColumnMemNN | ShardedMemNN) -> None:
        """Fold a transient subset solver's pipeline ledger into the
        tier-lifetime total (each subset solver serves one pass)."""
        stats = solver.store_stats
        if stats is None:
            return
        snapshot = stats.snapshot()
        self._subset_store_stats = (
            snapshot
            if self._subset_store_stats is None
            else self._subset_store_stats + snapshot
        )

    def _attention_mass_recall(
        self, u: np.ndarray, candidates: np.ndarray
    ) -> float:
        """Mean over questions of the exact softmax mass the candidate
        set captures: the denominators of two unskipped column scans,
        over the candidates and over every row, brought to one max."""
        partials = []
        for store in (RowSubsetStore(self._base, candidates), self._base):
            scan = ColumnMemNN(store=store, chunk=self.chunk)
            partials.append(scan.partial_output(u)[0])
            scan.close()
        cand, full = partials
        shift = np.subtract(cand.log_max, full.log_max, dtype=np.float64)
        return float(np.mean(cand.denom * np.exp(shift) / full.denom))


def probe_stats(nq: int, nlist: int, ed: int) -> OpStats:
    """Countable cost of the centroid probe (the candidate pass is
    already counted by the kernel that scanned it)."""
    return OpStats(
        flops=2 * nq * nlist * ed,
        bytes_read=nlist * ed * np.dtype(np.float64).itemsize,
    )
