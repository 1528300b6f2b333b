"""MnnFast reproduction: a fast and scalable system architecture for
memory-augmented neural networks (Jang, Kim, Jo, Lee & Kim, ISCA 2019).

The package layout mirrors the paper:

* :mod:`repro.core` — the contribution: baseline MemNN, the
  column-based algorithm with lazy softmax, zero-skipping, and the
  :class:`~repro.core.engine.MnnFastEngine` facade.
* :mod:`repro.store` — the tiered memory store: RAM/disk backing for
  ``M_IN``/``M_OUT`` with a budgeted chunk LRU and double-buffered
  background prefetch (out-of-core inference).
* :mod:`repro.memsim` — trace-driven LLC/DRAM/embedding-cache models.
* :mod:`repro.perf` — CPU / GPU / FPGA / energy platform models.
* :mod:`repro.data` — synthetic bAbI tasks and Zipfian word streams.
* :mod:`repro.model` — a trainable NumPy end-to-end memory network.
* :mod:`repro.batching` — continuous question batching: the serving-side
  ``nq`` amortization lever (deadline-aware batcher + vectorized
  multi-question engine path + batched service mode).
* :mod:`repro.serving` — a multi-tenant QA serving simulator.
* :mod:`repro.analysis` — one experiment driver per paper figure.
* :mod:`repro.report` — plain-text tables for the benchmark harness.
* :mod:`repro.cli` — ``python -m repro <experiment>`` regeneration.
"""

from .batching import (
    BatchAnswer,
    BatcherStats,
    BatchFormation,
    ContinuousBatcher,
    FormedBatch,
    form_batches,
)
from .core import (
    BaselineMemNN,
    BatchConfig,
    ChunkConfig,
    ColumnMemNN,
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    PartialOutput,
    ShardedMemNN,
    ShardPlan,
    StoreConfig,
    ZeroSkipConfig,
    merge_partials,
)
from .data import Vocabulary, ZipfCorpus, generate_mixed, generate_task
from .store import ChunkPrefetcher, MmapStore, ResidentStore, StoreStats
from .memsim import EmbeddingCache, MemoryHierarchy, SetAssociativeCache
from .model import MemN2N, MemN2NConfig, Trainer, train_on_task
from .perf import CpuModel, EnergyModel, FpgaModel, GpuModel

__version__ = "1.0.0"

__all__ = [
    "MnnFastEngine",
    "EngineConfig",
    "EngineWeights",
    "MemNNConfig",
    "BatchConfig",
    "ChunkConfig",
    "ZeroSkipConfig",
    "BatchAnswer",
    "ContinuousBatcher",
    "BatchFormation",
    "BatcherStats",
    "FormedBatch",
    "form_batches",
    "BaselineMemNN",
    "ColumnMemNN",
    "PartialOutput",
    "ShardedMemNN",
    "ShardPlan",
    "merge_partials",
    "StoreConfig",
    "ResidentStore",
    "MmapStore",
    "ChunkPrefetcher",
    "StoreStats",
    "CpuModel",
    "GpuModel",
    "FpgaModel",
    "EnergyModel",
    "EmbeddingCache",
    "SetAssociativeCache",
    "MemoryHierarchy",
    "generate_task",
    "generate_mixed",
    "Vocabulary",
    "ZipfCorpus",
    "MemN2N",
    "MemN2NConfig",
    "Trainer",
    "train_on_task",
    "__version__",
]
