"""Configuration objects for memory networks and MnnFast optimizations.

The dataclasses in this module mirror the knobs the paper exposes:

* :class:`MemNNConfig` — the shape of the memory network itself
  (embedding dimension ``ed``, number of story sentences ``ns``, number
  of questions ``nq``, vocabulary size ``V``, maximum words per sentence
  ``nw`` and the number of inference hops).
* :class:`ChunkConfig` — the column-based algorithm's chunking (§3.1).
* :class:`ZeroSkipConfig` — the zero-skipping threshold (§3.2).
* :class:`EmbeddingCacheConfig` — the dedicated embedding cache (§3.3).
* :class:`BatchConfig` — continuous question batching (the §5/Fig. 12
  amortization lever: memory streams once per batch).
* :class:`StoreConfig` — where ``M_IN``/``M_OUT`` live (the tiered
  RAM/disk memory store) and how chunks are prefetched.
* :class:`TopKConfig` — the approximate top-k retrieval tier that
  selects candidate rows ahead of exact attention (sublinear in ``ns``;
  grounded in sparse-access memories / hierarchical memory networks).
* :class:`EarlyExitConfig` — per-question confidence-gated hop pruning
  (A2P-MANN-style adaptive depth: confident questions exit before
  running every configured hop).
* :class:`EngineConfig` — which optimizations an engine applies.

:class:`EngineConfig` is composed through a **builder API**: each
``with_*`` method returns a new frozen config with one concern changed
(``EngineConfig().with_sharding(8).with_topk(nprobe=16)``), and the
historical preset classmethods (``baseline()`` / ``mnnfast()`` / …)
are thin wrappers over the same builders.  Per-field validation still
happens at construction; *cross-field* constraints (e.g. a parallel
execution backend requires the sharded algorithm) are checked by
:meth:`EngineConfig.validate`, which the engines call on the final
composed config — so intermediate builder states never trip them.

The paper's Table 1 platform presets are provided as
:data:`CPU_CONFIG`, :data:`GPU_CONFIG` and :data:`FPGA_CONFIG` (with the
100M-sentence CPU/GPU databases scaled down by default so the presets
are directly runnable; the original sizes are kept in
``database_sentences``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..store.base import SUPPORTED_DTYPES

__all__ = [
    "MemNNConfig",
    "ChunkConfig",
    "ZeroSkipConfig",
    "EmbeddingCacheConfig",
    "BatchConfig",
    "ExecutionConfig",
    "StoreConfig",
    "TopKConfig",
    "EarlyExitConfig",
    "EngineConfig",
    "CPU_CONFIG",
    "GPU_CONFIG",
    "FPGA_CONFIG",
    "TABLE1",
]

#: Bytes per value; the paper assumes ``float`` (4 bytes) throughout §3.1.
FLOAT_BYTES = 4


@dataclass(frozen=True)
class MemNNConfig:
    """Shape of an end-to-end memory network (Fig. 2 of the paper).

    Attributes:
        embedding_dim: ``ed``, the internal state vector width.
        num_sentences: ``ns``, story sentences held in memory.
        num_questions: ``nq``, questions answered per batch.
        vocab_size: ``V``, words in the embedding dictionary.
        max_words: ``nw``, maximum words per sentence (BoW width).
        hops: number of input/output memory representation iterations.
    """

    embedding_dim: int = 48
    num_sentences: int = 10_000
    num_questions: int = 16
    vocab_size: int = 10_000
    max_words: int = 12
    hops: int = 1

    def __post_init__(self) -> None:
        for name in (
            "embedding_dim",
            "num_sentences",
            "num_questions",
            "vocab_size",
            "max_words",
            "hops",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    @property
    def memory_bytes(self) -> int:
        """Bytes of one memory matrix (``M_IN`` or ``M_OUT``)."""
        return self.num_sentences * self.embedding_dim * FLOAT_BYTES

    @property
    def intermediate_bytes(self) -> int:
        """Bytes of one full intermediate matrix (``T_IN``/``P_exp``/``P``)."""
        return self.num_sentences * self.num_questions * FLOAT_BYTES

    @property
    def embedding_matrix_bytes(self) -> int:
        """Bytes of the embedding dictionary (``ed`` x ``V``)."""
        return self.embedding_dim * self.vocab_size * FLOAT_BYTES

    def scaled(self, num_sentences: int) -> "MemNNConfig":
        """Return a copy with a different story-database size."""
        return replace(self, num_sentences=num_sentences)


@dataclass(frozen=True)
class ChunkConfig:
    """Chunking of the column-based algorithm (§3.1).

    Attributes:
        chunk_size: sentences processed per chunk (paper: 1000 on CPU,
            25 on FPGA, variable on GPU).
        streaming: overlap the next chunk's memory loads with the
            current chunk's computation (double buffering).
    """

    chunk_size: int = 1000
    streaming: bool = True

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")

    def num_chunks(self, num_sentences: int) -> int:
        """Number of chunks needed to cover ``num_sentences``."""
        return -(-num_sentences // self.chunk_size)


@dataclass(frozen=True)
class ZeroSkipConfig:
    """Zero-skipping of near-zero probability rows (§3.2).

    Attributes:
        threshold: skip rows whose softmax weight is below this value
            (paper sweeps 0.0001 - 0.5; CPU implementation uses 0.1).
    """

    threshold: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {self.threshold}")

    @property
    def enabled(self) -> bool:
        """Zero-skipping is a no-op at threshold 0."""
        return self.threshold > 0.0


@dataclass(frozen=True)
class EmbeddingCacheConfig:
    """Geometry of the dedicated embedding cache (§3.3, §4.2).

    Each entry holds a valid bit, a word ID tag and one full embedding
    vector (``32 * ed`` bits), so the number of entries follows from the
    cache capacity and embedding dimension.
    """

    size_bytes: int = 64 * 1024
    embedding_dim: int = 256

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.num_entries < 1:
            raise ValueError(
                "cache too small to hold a single embedding vector: "
                f"{self.size_bytes} bytes < {self.entry_bytes} bytes/entry"
            )

    @property
    def entry_bytes(self) -> int:
        """Data bytes per entry (the vector; tag overhead is separate)."""
        return self.embedding_dim * FLOAT_BYTES

    @property
    def num_entries(self) -> int:
        return self.size_bytes // self.entry_bytes


@dataclass(frozen=True)
class BatchConfig:
    """Continuous question batching (§5's ``nq`` amortization, served).

    The column-based algorithm streams ``M_IN``/``M_OUT`` once per
    *batch*, so its memory traffic amortizes over the questions it
    carries (the sizing note behind Fig. 12's "fully utilize SMs").
    These knobs govern how a serving-side batcher forms those batches
    from an online request stream.

    Attributes:
        max_batch_size: questions coalesced into one engine pass; a
            batch dispatches immediately once it reaches this size
            (1 disables batching — every question rides alone).
        max_wait: seconds the oldest queued question may wait for
            batch-mates before the batch dispatches anyway — the
            latency ceiling batching is allowed to add.
    """

    max_batch_size: int = 1
    max_wait: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.max_batch_size, int) or self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be a positive integer, "
                f"got {self.max_batch_size!r}"
            )
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be non-negative, got {self.max_wait}")

    @property
    def enabled(self) -> bool:
        """Batching is a no-op at ``max_batch_size`` 1."""
        return self.max_batch_size > 1


@dataclass(frozen=True)
class ExecutionConfig:
    """How the numerical engines execute (§3.1's scale-out, realized).

    The lazy-softmax partials merge exactly (DESIGN.md §8), so shard
    work is embarrassingly parallel *in principle*, and every
    arrangement runs the same tile kernel
    (:class:`~repro.core.column.TileState`, DESIGN.md §10).  Two of
    them move the work off a single Python loop:

    * ``"process"`` fans shards over a ``ProcessPoolExecutor`` whose
      workers map an :class:`~repro.store.MmapStore` read-only (the
      mmap store, or the resident rows the solver spills itself) — no
      GIL sharing, and
      no pickling of the ``O(ns x ed)`` memories: only the
      ``O(nq x ed)`` question matrix and partial-output triples cross
      the pipe.
    * ``fused=True`` (serial backend only) scores one batch x shard
      tile per BLAS call so BLAS's *own* thread pool does the
      parallelism, with no Python fan-out at all.

    Attributes:
        backend: ``"serial"`` (shards run in a loop, the reference
            behaviour) or ``"process"`` (multicore pool over the
            spilled store).
        num_workers: pool width for the process backend.  ``1`` runs
            sequentially even under the pool backend and is
            bit-identical to ``"serial"`` (same kernel, same order).
        dtype: precision of the *memory* (engine buffers, spill, chunk
            tier, cluster-major copy), of the answer matrix ``W`` and of
            the GEMMs reading them: ``"float32"`` (default; the paper's
            single precision) or ``"float64"`` (the reference the
            bitwise grid pins and :meth:`EngineConfig.baseline` runs).
            ``(denom, acc)``, the divide, the shard merge, the hop
            state, exit decisions and logits are float64 under either;
            float32 agrees within ``FLOAT32_LOGIT_TOLERANCE`` (§10).
        fused: run the sharded algorithm as one tiled sweep (one BLAS
            score call per ``chunk_size x num_shards``-row tile across
            *all* shards) instead of per-shard chunk loops.  Serial
            backend only — the fused sweep hands parallelism to BLAS
            threads, which a process fan-out would oversubscribe.
    """

    backend: str = "serial"
    num_workers: int = 1
    dtype: str = "float32"
    fused: bool = False

    _BACKENDS = ("serial", "process")

    def __post_init__(self) -> None:
        if self.backend not in self._BACKENDS:
            raise ValueError(
                f"backend must be one of {self._BACKENDS}, got {self.backend!r}"
            )
        if not isinstance(self.num_workers, int) or self.num_workers < 1:
            raise ValueError(
                f"num_workers must be a positive integer, got {self.num_workers!r}"
            )
        if self.num_workers > 1 and self.backend == "serial":
            raise ValueError(
                f"num_workers > 1 requires backend='process' (got {self.backend!r})"
            )
        dtypes = tuple(dtype.name for dtype in SUPPORTED_DTYPES)
        if self.dtype not in dtypes:
            raise ValueError(f"dtype must be one of {dtypes}, got {self.dtype!r}")
        if self.fused and self.backend != "serial":
            raise ValueError(
                "fused=True hands parallelism to BLAS threads and "
                "requires backend='serial' (a pool fan-out on top "
                f"would oversubscribe P x T threads; got {self.backend!r})"
            )

    @property
    def parallel(self) -> bool:
        """True when shard work actually fans out over a pool."""
        return self.backend == "process" and self.num_workers > 1

    def worker_blas_threads(self) -> int | None:
        """BLAS pool width each execution worker pins itself to (via
        :mod:`repro.core.thread_limits`), or ``None`` for the library
        default: 1 BLAS thread per process-pool worker when the pool
        fans out (P x 1, never P x T), the default otherwise."""
        if self.backend == "process" and self.num_workers > 1:
            return 1
        return None

    def shard_concurrency(self) -> int:
        """Shards this backend genuinely executes at once — the number
        the serving cost model may divide the fan-out by.

        The process backend delivers its pool width (separate
        interpreters, no GIL).  Serial (fused or not) is 1 — the fused
        sweep's BLAS-thread speedup shows up in per-GEMM throughput,
        not in shard-level concurrency.
        """
        if self.backend == "process":
            return self.num_workers
        return 1


@dataclass(frozen=True)
class StoreConfig:
    """Where ``M_IN``/``M_OUT`` live and how chunks reach the kernels.

    The column dataflow only ever touches one chunk of each memory at
    a time, so the matrices need not be resident: a
    :class:`~repro.store.MemoryStore` tier can hold them on disk and
    stream chunks through a budgeted RAM cache with double-buffered
    lookahead (§3.1's load/compute overlap) — numerically exact either
    way.

    Attributes:
        backend: ``"resident"`` (in-RAM arrays, today's behaviour) or
            ``"mmap"`` (the engine spills its memories to a
            :class:`~repro.store.MmapStore` and streams them back).
        path: directory for the mmap backend's store shards; ``None``
            uses an engine-owned temporary directory.
        resident_bytes: byte budget of the resident-chunk tier that
            fronts the backing tier (``None`` disables caching; below
            the footprint, the first chunks that fit stay resident).
        prefetch_depth: chunks fetched ahead of the kernel by the
            background prefetch thread (``0`` disables lookahead;
            the paper's double buffering is depth 1–2).
    """

    backend: str = "resident"
    path: str | None = None
    resident_bytes: int | None = None
    prefetch_depth: int = 0

    _BACKENDS = ("resident", "mmap")

    def __post_init__(self) -> None:
        if self.backend not in self._BACKENDS:
            raise ValueError(
                f"backend must be one of {self._BACKENDS}, got {self.backend!r}"
            )
        if self.prefetch_depth < 0:
            raise ValueError(
                f"prefetch_depth must be non-negative, got {self.prefetch_depth}"
            )
        if self.resident_bytes is not None and self.resident_bytes <= 0:
            raise ValueError(
                f"resident_bytes must be positive or None, got {self.resident_bytes}"
            )
        if self.path is not None and self.backend != "mmap":
            raise ValueError("path= only applies to the mmap backend")

    @property
    def out_of_core(self) -> bool:
        """True when the memories live on a disk tier."""
        return self.backend == "mmap"

    @property
    def enabled(self) -> bool:
        """True when any store machinery deviates from plain arrays."""
        return (
            self.out_of_core
            or self.prefetch_depth > 0
            or self.resident_bytes is not None
        )


@dataclass(frozen=True)
class TopKConfig:
    """Approximate top-k retrieval in front of exact attention.

    MnnFast's zero-skipping (§3.2, Fig. 6) shows the attention mass of
    a trained MANN concentrates on a few memory rows; sparse-access
    memories (Rae et al.) and hierarchical memory networks (Chandar et
    al.) exploit that by *retrieving* candidate rows with an
    approximate index and running exact attention on the candidates
    only.  This config drives that tier: an IVF (k-means clustered)
    index over ``M_IN`` selects the ``nprobe`` clusters nearest each
    question, and the exact lazy-softmax column kernel runs on the
    union of their rows — ``O(nlist·ed + candidates·ed)`` per question
    instead of ``O(ns·ed)``, sublinear in ``ns`` at ``nlist ≈ √ns``.

    Attributes:
        nprobe: clusters probed per question (``0`` disables the tier
            entirely — the engine runs the configured exact path).
        nlist: cluster count of the index; ``None`` picks
            ``round(sqrt(ns))`` at build time (the classic IVF sizing,
            which balances probe cost against candidate-list length).
        min_rows: at or below this many memory rows the tier falls
            back to the exact scan over all rows, bit-exact with the tier
            off, and builds no index.  8 192 is the measured crossover
            (``make topk-crossover``, DESIGN.md §12): the largest size at
            which the default-sized tier did not beat the exact scan at
            every nq of 1/4/8 (0.83–1.15× exact time over top-k time
            there, 1.2–1.6× at 16 384 rows).
        kmeans_iters: Lloyd iterations when building the index.
        seed: RNG seed for centroid initialization (deterministic
            builds — same memories, same index).
        measure_recall: also compute per-hop attention-mass recall
            (the exact softmax mass the candidate set captures).  This
            costs a full ``O(ns·ed)`` pass per hop, so it is for the
            differential harness and benchmarks, not production.
        record_candidates: also attach the probed candidate *row IDs*
            to each pass's :class:`~repro.index.stats.IndexStats`
            (``candidates``), so a retrieval evaluator can score which
            rows the tier actually examined against qrels ground truth
            (:mod:`repro.docqa.evaluate`).  Costs ``O(candidates)``
            memory per recorded pass — measurement machinery, off by
            default on serving paths.
    """

    nprobe: int = 0
    nlist: int | None = None
    min_rows: int = 8192
    kmeans_iters: int = 4
    seed: int = 0
    measure_recall: bool = False
    record_candidates: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.nprobe, int) or self.nprobe < 0:
            raise ValueError(
                f"nprobe must be a non-negative integer, got {self.nprobe!r}"
            )
        if self.nlist is not None and (
            not isinstance(self.nlist, int) or self.nlist < 1
        ):
            raise ValueError(
                f"nlist must be a positive integer or None, got {self.nlist!r}"
            )
        if self.min_rows < 0:
            raise ValueError(
                f"min_rows must be non-negative, got {self.min_rows}"
            )
        if self.kmeans_iters < 1:
            raise ValueError(
                f"kmeans_iters must be >= 1, got {self.kmeans_iters}"
            )

    @property
    def enabled(self) -> bool:
        """The tier is a no-op at ``nprobe`` 0."""
        return self.nprobe > 0

    def effective_nlist(self, num_rows: int) -> int:
        """Cluster count the index will use for ``num_rows`` rows."""
        nlist = (
            self.nlist
            if self.nlist is not None
            else max(1, int(round(math.sqrt(num_rows))))
        )
        return max(1, min(nlist, num_rows))

    def uses_index(self, num_rows: int) -> bool:
        """True when a memory of this size goes through the index
        (enabled, above the exact-scan fallback threshold, and probing
        fewer clusters than it has: all of them is the exact scan)."""
        nlist = self.effective_nlist(num_rows)
        return self.enabled and num_rows > self.min_rows and self.nprobe < nlist

    def expected_candidates(self, num_rows: int, batch_size: int = 1) -> int:
        """Expected candidate rows per pass — the cost model's ``ns``.

        Under the index, probing ``nprobe`` of ``nlist`` roughly
        balanced clusters yields ``ns · nprobe / nlist`` rows per
        question; in exact-scan fallback (or disabled) every row is a
        candidate.

        The kernel runs **once per batch** over the *union* of every
        question's probed clusters, so with ``batch_size`` questions
        drawing independently the expected covered fraction is
        ``1 - (1 - nprobe/nlist)^batch_size`` — approaching full-scan
        as the batch grows.  Sublinear serving therefore wants small
        batches (or per-topic affinity, which correlates the draws and
        keeps the union tight).
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if not self.uses_index(num_rows):
            return num_rows
        nlist = self.effective_nlist(num_rows)
        per_question = min(1.0, self.nprobe / nlist)
        fraction = 1.0 - (1.0 - per_question) ** batch_size
        return min(num_rows, int(math.ceil(num_rows * fraction)))


@dataclass(frozen=True)
class EarlyExitConfig:
    """Per-question confidence-gated hop pruning (adaptive depth).

    Every question today runs all configured hops even when hop 1
    already concentrates the attention mass on the answer; A2P-MANN
    shows per-question hop pruning preserves accuracy while cutting
    inference work, and MnnFast's own zero-skipping data (§3.2, Fig. 6)
    proves the p-vector is peaked enough to read confidence from.
    After each hop (except the last, whose work is already spent) the
    engine reads a cheap per-question confidence signal and retires the
    questions that clear the gate from the remaining hops — later hops
    run a shrinking ``nq x ed`` GEMM.  The signal is the softmax margin
    of the answer layer applied to the *extrapolated terminal state*
    ``u_k + (hops - k) * o_k`` (:func:`~repro.core.early_exit
    .logit_margin_confidence`): if attention has locked onto its rows,
    the remaining hops each add ≈ ``o_k``, so a wide margin there means
    running them cannot flip the answer.  It costs
    ``O(nq * num_answers * ed)`` per check, independent of ``ns``.

    ``threshold`` is the *pruning aggressiveness*: a question exits
    after hop ``k >= min_hops`` when its confidence reaches
    ``1 - threshold``.  Raising the threshold lowers the confidence
    bar, so exit depth is monotone non-increasing in the threshold —
    the direction the serving degradation lever turns under load — and
    ``threshold = 0`` demands unreachable perfect confidence, i.e.
    disables the gate entirely (bit-identical to the full-depth path).

    Attributes:
        threshold: pruning aggressiveness in ``[0, 1)``; a question
            exits when confidence ``>= 1 - threshold`` (0 disables).
        min_hops: hops every question must run before it may exit
            (>= 1; the gate never fires mid-first-hop).
    """

    threshold: float = 0.0
    min_hops: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(
                f"threshold must be in [0, 1), got {self.threshold}"
            )
        if not isinstance(self.min_hops, int) or self.min_hops < 1:
            raise ValueError(
                f"min_hops must be a positive integer, got {self.min_hops!r}"
            )

    @property
    def enabled(self) -> bool:
        """The gate is a no-op at threshold 0 (perfect confidence is
        unreachable, so no question ever exits early)."""
        return self.threshold > 0.0

    @property
    def required_confidence(self) -> float:
        """Confidence a question needs to exit: ``1 - threshold``."""
        return 1.0 - self.threshold


@dataclass(frozen=True)
class EngineConfig:
    """Which MnnFast optimizations an inference engine applies.

    Attributes:
        algorithm: ``"baseline"`` (Fig. 5a), ``"column"`` (Fig. 5b) or
            ``"sharded"`` (column on K disjoint memory shards with the
            exact max-rescaled merge).
        chunk: per-worker chunking of the column dataflow.
        zero_skip: zero-skipping threshold (applied per shard in
            sharded mode).
        num_shards: shard count ``K`` for the sharded algorithm (must
            be 1 otherwise).
        batch: continuous-batching policy a serving layer applies when
            coalescing questions into engine passes.
        execution: how the engine runs — backend (serial vs
            process-over-shards), pool width, and memory dtype.
        store: where the memories live (resident arrays vs an
            out-of-core disk tier) and the chunk prefetch policy.
        topk: the approximate top-k retrieval tier in front of exact
            attention (disabled by default — every path stays exact).
        early_exit: per-question confidence-gated hop pruning
            (disabled by default — every question runs every hop).
    """

    algorithm: str = "column"
    chunk: ChunkConfig = field(default_factory=ChunkConfig)
    zero_skip: ZeroSkipConfig = field(default_factory=lambda: ZeroSkipConfig(0.0))
    num_shards: int = 1
    batch: BatchConfig = field(default_factory=BatchConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    store: StoreConfig = field(default_factory=StoreConfig)
    topk: TopKConfig = field(default_factory=TopKConfig)
    early_exit: EarlyExitConfig = field(default_factory=EarlyExitConfig)

    _ALGORITHMS = ("baseline", "column", "sharded")

    def __post_init__(self) -> None:
        # Only *own-field* validation happens at construction; the
        # cross-field constraints live in validate() so builder chains
        # may pass through intermediate states (e.g. a process-parallel
        # execution config before with_sharding() sets the shards).
        if self.algorithm not in self._ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {self._ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")

    def validate(self) -> "EngineConfig":
        """Check the cross-field constraints of the *composed* config.

        Called by the engines (and the serving layer) on the final
        configuration; raises :class:`ValueError` on an inconsistent
        combination and returns ``self`` otherwise, so call sites can
        chain ``config.validate()``.
        """
        if self.num_shards > 1 and self.algorithm != "sharded":
            raise ValueError(
                "num_shards > 1 requires algorithm='sharded' "
                f"(got {self.algorithm!r})"
            )
        if self.execution.parallel and self.algorithm != "sharded":
            raise ValueError(
                "the process backend parallelizes over memory "
                "shards; num_workers > 1 requires algorithm='sharded' "
                f"(got {self.algorithm!r})"
            )
        if self.execution.fused and self.algorithm != "sharded":
            raise ValueError(
                "the fused tile kernel folds memory shards into one "
                "BLAS call; fused=True requires algorithm='sharded' "
                f"(got {self.algorithm!r})"
            )
        if self.store.enabled and self.algorithm == "baseline":
            raise ValueError(
                "the memory store streams chunks through the column "
                "dataflow; the baseline algorithm needs resident "
                "memories (use algorithm='column' or 'sharded')"
            )
        if self.topk.enabled and self.algorithm == "baseline":
            raise ValueError(
                "the top-k retrieval tier feeds candidates to the "
                "column dataflow; the baseline algorithm scans every "
                "row (use algorithm='column' or 'sharded')"
            )
        return self

    # --- builders ------------------------------------------------------------
    #
    # Each with_* method returns a NEW frozen config with one concern
    # changed, so configurations compose left to right:
    #
    #     EngineConfig().with_zero_skip(0.1).with_sharding(8).with_topk()
    #
    # The preset classmethods below are thin wrappers over these.

    def with_algorithm(self, algorithm: str) -> "EngineConfig":
        """A copy running ``algorithm`` (``baseline``/``column``/``sharded``)."""
        return replace(self, algorithm=algorithm)

    def with_chunking(self, **changes) -> "EngineConfig":
        """A copy with the column dataflow's chunking changed:
        :class:`ChunkConfig` fields (``chunk_size``, ``streaming``) by
        keyword; omitted ones keep their current values."""
        return replace(self, chunk=replace(self.chunk, **changes))

    def with_sharding(self, num_shards: int) -> "EngineConfig":
        """A copy fanning attention over ``num_shards`` contiguous memory
        shards (sets ``algorithm='sharded'``; the merge stays exact)."""
        return replace(self, algorithm="sharded", num_shards=num_shards)

    def with_zero_skip(self, threshold: float) -> "EngineConfig":
        """A copy with §3.2 zero-skipping at ``threshold`` (0 disables)."""
        return replace(self, zero_skip=ZeroSkipConfig(threshold))

    def with_batching(
        self, max_batch_size: int, max_wait: float = 0.0
    ) -> "EngineConfig":
        """A copy with continuous question batching (1 disables)."""
        return replace(
            self,
            batch=BatchConfig(max_batch_size=max_batch_size, max_wait=max_wait),
        )

    def with_execution(self, **changes) -> "EngineConfig":
        """A copy with the execution backend changed:
        :class:`ExecutionConfig` fields (``backend``, ``num_workers``,
        ``dtype``, ``fused``) by keyword; omitted ones keep their
        current values.

        As a convenience, asking for ``num_workers > 1`` without naming
        a backend upgrades a serial backend to ``"process"`` (the
        backend that actually parallelizes — see
        :class:`ExecutionConfig`), so
        ``.with_execution(num_workers=4)`` composes.
        """
        if changes.get("num_workers", 1) > 1 and self.execution.backend == "serial":
            changes.setdefault("backend", "process")
        return replace(self, execution=replace(self.execution, **changes))

    def with_store(self, **changes) -> "EngineConfig":
        """A copy with the memory-store tier changed:
        :class:`StoreConfig` fields (``backend``, ``path``,
        ``resident_bytes``, ``prefetch_depth``) by keyword; omitted
        ones keep their current values, and ``None`` is a real setting
        for ``path``/``resident_bytes``."""
        return replace(self, store=replace(self.store, **changes))

    def with_topk(self, nprobe: int = 8, **changes) -> "EngineConfig":
        """A copy with the approximate top-k retrieval tier enabled
        (``nprobe`` clusters probed per question; 0 disables).  The
        other :class:`TopKConfig` fields (``nlist``, ``min_rows``,
        ``kmeans_iters``, ``seed``, ``measure_recall``,
        ``record_candidates``) go by keyword; omitted ones keep their
        current values."""
        return replace(self, topk=replace(self.topk, nprobe=nprobe, **changes))

    def with_early_exit(self, threshold: float, **changes) -> "EngineConfig":
        """A copy with confidence-gated hop pruning at ``threshold``
        (the pruning aggressiveness; 0 disables — see
        :class:`EarlyExitConfig`).  ``min_hops`` goes by keyword; when
        omitted it keeps its current value."""
        return replace(
            self,
            early_exit=replace(self.early_exit, threshold=threshold, **changes),
        )

    # --- presets (thin wrappers over the builders) ---------------------------

    @classmethod
    def baseline(cls) -> "EngineConfig":
        """The paper's baseline MemNN (no optimizations), in float64: the
        referee of the differential grid and perfbench's ``answer_agreement``."""
        baseline = cls().with_algorithm("baseline").with_chunking(streaming=False)
        return baseline.with_execution(dtype="float64")

    @classmethod
    def mnnfast(
        cls, chunk_size: int = 1000, threshold: float = 0.1
    ) -> "EngineConfig":
        """Full MnnFast: column-based + streaming + zero-skipping."""
        return (
            cls()
            .with_chunking(chunk_size=chunk_size, streaming=True)
            .with_zero_skip(threshold)
        )

    @classmethod
    def sharded(
        cls,
        num_shards: int,
        chunk_size: int = 1000,
        threshold: float = 0.0,
    ) -> "EngineConfig":
        """Column algorithm fanned out over ``num_shards`` memory
        shards with the exact lazy-softmax merge."""
        return (
            cls()
            .with_chunking(chunk_size=chunk_size, streaming=True)
            .with_zero_skip(threshold)
            .with_sharding(num_shards)
        )

    @classmethod
    def fused(cls, num_shards: int, chunk_size: int = 1000) -> "EngineConfig":
        """Sharded algorithm as one fused batch x shard tile sweep: one
        BLAS score call per ``chunk_size x num_shards``-row tile across
        every shard, parallelism delegated to BLAS's own thread pool."""
        return cls.sharded(num_shards, chunk_size=chunk_size).with_execution(
            backend="serial", fused=True
        )

    @classmethod
    def out_of_core(
        cls,
        path: str | None = None,
        resident_bytes: int | None = 32 * 1024 * 1024,
        prefetch_depth: int = 2,
        chunk_size: int = 1000,
        threshold: float = 0.0,
        num_shards: int = 1,
    ) -> "EngineConfig":
        """Column algorithm streaming ``M_IN``/``M_OUT`` from a disk
        tier: the engine spills its memories to an
        :class:`~repro.store.MmapStore` (under ``path``, or a
        temporary directory) and the kernel consumes them through a
        ``resident_bytes``-budget resident-chunk tier (scan-resistant:
        the first chunks that fit stay in RAM) with ``prefetch_depth``
        chunks of double-buffered lookahead.  Exactly equivalent to
        the resident path — only the tier the bytes come from changes.
        """
        cfg = (
            cls()
            .with_chunking(chunk_size=chunk_size, streaming=True)
            .with_zero_skip(threshold)
            .with_store(
                backend="mmap",
                path=path,
                resident_bytes=resident_bytes,
                prefetch_depth=prefetch_depth,
            )
        )
        # A single shard stays on the plain column path (with_sharding
        # would flip the algorithm).
        return cfg.with_sharding(num_shards) if num_shards > 1 else cfg


# --- Table 1: memory network configurations used in the evaluation. ----------
#
# The CPU/GPU database size in the paper is 100M sentences; the presets
# keep that number in ``database_sentences`` but instantiate a runnable
# scale by default (callers pass ``num_sentences`` explicitly to scale).

#: Paper Table 1, CPU column (ed=48, ns=100M, chunk=1000).
CPU_CONFIG = MemNNConfig(embedding_dim=48, num_sentences=100_000, vocab_size=50_000)

#: Paper Table 1, GPU column (ed=64, ns=100M, chunk variable). The
#: question batch is sized up to keep the streaming multiprocessors
#: busy, mirroring the paper's "fully utilize SMs" sizing note.
GPU_CONFIG = MemNNConfig(
    embedding_dim=64, num_sentences=100_000, num_questions=32, vocab_size=50_000
)

#: Paper Table 1, FPGA column (ed=25, ns=1000, chunk=25).
FPGA_CONFIG = MemNNConfig(embedding_dim=25, num_sentences=1000, vocab_size=10_000)

#: The full Table 1 as data: platform -> (config, paper database size, chunk).
TABLE1 = {
    "CPU": {
        "config": CPU_CONFIG,
        "database_sentences": 100_000_000,
        "chunk_size": 1000,
    },
    "GPU": {
        "config": GPU_CONFIG,
        "database_sentences": 100_000_000,
        "chunk_size": None,  # variable, swept in Fig. 12
    },
    "FPGA": {
        "config": FPGA_CONFIG,
        "database_sentences": 1000,
        "chunk_size": 25,
    },
}
