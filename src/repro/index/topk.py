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

At or below ``TopKConfig.min_rows`` (the measured crossover), and
when ``nprobe`` reaches the cluster count, the solver builds no index
and delegates to the exact kernel over the full memory — *bit-exact*
with the non-topk path; an engine hop there is that kernel's own hop —
so the tier can be left enabled unconditionally and small memories
pay nothing.

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
from ..store.base import MemoryStore, RowSubsetStore, StoreStats
from ..store.resident import memory_store
from .ivf import IVFIndex
from .stats import IndexStats

__all__ = ["IndexedHop", "TopKMemNN", "probe_stats"]


class IndexedHop:
    """A top-k pass's record: ``kernel``, the record of the exact
    kernel's scan of the candidates (every row below ``min_rows``), the
    tier's cumulative store ledger and the raw probe record
    ``(num_rows, runs, nlist, nprobe, build_seconds, probe_seconds,
    recall, candidates)`` — ``runs`` ``None`` where no index ran.
    ``stats`` adds the centroid probe's counters to the kernel's, and
    :meth:`tier_stats` the :class:`IndexStats`, when read."""

    __slots__ = ("kernel", "_ed", "_store", "_index")

    def __init__(self, kernel, ed: int, store: StoreStats | None, index: tuple) -> None:
        self.kernel, self._ed, self._store, self._index = kernel, ed, store, index

    @property
    def output(self) -> np.ndarray:
        return self.kernel.output

    @property
    def stats(self) -> OpStats:
        # (No probe below min_rows, where a one-call hop keeps no output.)
        nq = len(self.kernel.output) if self._index[2] else 0
        return self.kernel.stats + probe_stats(nq, self._index[2], self._ed)

    def tier_stats(self) -> dict:
        num_rows, runs, nlist, nprobe, build, probe, recall, candidates = self._index
        index = IndexStats(
            num_rows, num_rows if runs is None else int(np.diff(runs).sum()),
            nlist, nprobe, runs is not None, build, probe, recall,
            None if candidates is None else tuple(int(row) for row in candidates),
        )  # fmt: skip
        shards = self.kernel.tier_stats()["shards"]
        return {"shards": shards, "store": self._store, "index": index}


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
        at: tuple | None = None,
    ) -> InferenceResult | IndexedHop:
        """Response vectors via probe -> candidate scan with the exact
        kernel.

        Mirrors the exact solvers' ``output`` signature so the engine
        dispatches to it interchangeably; the result additionally
        carries an :class:`~repro.index.stats.IndexStats`.  With
        ``u_tile`` this is an engine hop, as ``ColumnMemNN.output``'s
        (``at``: their pointers, as it takes them): the exact kernel
        scanning the candidates ends it, and the hop's
        :class:`IndexedHop` comes back.  Below ``min_rows`` that kernel
        scans every row and no index is built (the record's ``nlist``
        is 0).
        """
        start = time.perf_counter()
        config = self.config
        runs = candidates = None
        nlist, build_seconds, probe_seconds = 0, 0.0, 0.0
        if self.uses_index:
            index = self._ensure_index()
            build_seconds = 0.0 if self._build_charged else self._build_seconds
            self._build_charged = True
            probe_start = time.perf_counter()
            # The few centroids are float64: only the scan takes u narrowed.
            runs, _ = index.probe(u, config.nprobe)
            probe_seconds = time.perf_counter() - probe_start
            nlist = index.nlist
            if config.measure_recall:
                # Recall is measured on the questions the pass started
                # from, after the scan: a hop advances u in place.
                before = np.array(u, self.dtype)
            if (
                self._cluster_scan is None
                or config.measure_recall or config.record_candidates
            ):  # fmt: skip
                # Original row ids: what the gather paths read by, and
                # measurement machinery on the run path.
                candidates = index.rows(runs)
            if self._cluster_scan is not None:
                kernel = self._cluster_scan.output(
                    u, zero_skip, runs=runs, u_tile=u_tile, at=at
                )
            else:
                solver = self._build_solver(candidates=candidates)
                kernel = solver.output(u, zero_skip, u_tile=u_tile, at=at)
                self._absorb_subset_ledger(solver)
                solver.close()
        else:
            kernel = self.exact_solver().output(u, zero_skip, u_tile=u_tile, at=at)
        elapsed = time.perf_counter() - start
        recall = None
        if config.measure_recall:
            # Diagnostics-only O(ns*ed) pass, outside the timed window.
            recall = (
                1.0 if runs is None
                else self._attention_mass_recall(before, candidates)
            )  # fmt: skip
        record = IndexedHop(
            kernel, self.embedding_dim, self.store_stats,
            (self.num_sentences, runs, nlist, config.nprobe, build_seconds,
             probe_seconds, recall, candidates if config.record_candidates else None),
        )  # fmt: skip
        if u_tile is not None:
            return record
        tiers = record.tier_stats()
        return InferenceResult(
            record.output, record.stats, shard_stats=tiers["shards"],
            elapsed_seconds=elapsed, store_stats=tiers["store"],
            index_stats=tiers["index"],
        )  # fmt: skip

    def exact_solver(self) -> ColumnMemNN | ShardedMemNN:
        """The exact-scan fallback below ``min_rows``: the configured
        kernel over every row, bit-identical to the tier being disabled
        (an engine's one-call answer scans with it too: :meth:`exact_hop`)."""
        if self._exact_solver is None:
            self._exact_solver = self._build_solver(full_memory=True)
        return self._exact_solver

    def exact_hop(self, kernel) -> IndexedHop:
        """The record :meth:`output` makes of a fallback hop whose
        :meth:`exact_solver` record is ``kernel``: no index, no timings."""
        config = self.config
        recall = 1.0 if config.measure_recall else None
        index = (self.num_sentences, None, 0, config.nprobe, 0.0, 0.0, recall, None)
        return IndexedHop(kernel, self.embedding_dim, kernel.store, index)

    # --- internals -----------------------------------------------------------

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
