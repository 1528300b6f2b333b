"""The paper's primary contribution: MnnFast's algorithms.

* :mod:`repro.core.baseline` — the baseline MemNN dataflow (Fig. 5a).
* :mod:`repro.core.column` — column-based algorithm + lazy softmax (Fig. 5b).
* :mod:`repro.core.compiled_fold` — its tile fold in C, built on first use.
* :mod:`repro.core.zero_skip` — zero-skipping masks (§3.2).
* :mod:`repro.core.engine` — the end-to-end inference facade.
"""

from .baseline import BaselineMemNN
from .cache import TraceCacheMixin, TraceVectorCache, VectorCache
from .column import ColumnMemNN, PartialOutput, merge_partials
from .compiled_fold import fold_backend
from .config import (
    CPU_CONFIG,
    FPGA_CONFIG,
    GPU_CONFIG,
    TABLE1,
    BatchConfig,
    ChunkConfig,
    EarlyExitConfig,
    EmbeddingCacheConfig,
    EngineConfig,
    ExecutionConfig,
    MemNNConfig,
    StoreConfig,
    TopKConfig,
    ZeroSkipConfig,
)
from .early_exit import (
    EXIT_CONFIDENCE,
    EXIT_FULL_DEPTH,
    HopTrace,
    logit_margin_confidence,
)
from .engine import AnswerResult, BatchAnswer, EngineWeights, MnnFastEngine
from .execution import FLOAT32_LOGIT_TOLERANCE
from .sharded import ShardedMemNN, ShardPlan
from .numerics import bow_embed, position_encoding, softmax, unstable_softmax
from .results import InferenceResult
from .stats import OpStats, PhaseCost, baseline_phase_costs, column_phase_costs

__all__ = [
    "BaselineMemNN",
    "ColumnMemNN",
    "PartialOutput",
    "merge_partials",
    "fold_backend",
    "ShardedMemNN",
    "ShardPlan",
    "MemNNConfig",
    "BatchConfig",
    "ChunkConfig",
    "ZeroSkipConfig",
    "EmbeddingCacheConfig",
    "EngineConfig",
    "ExecutionConfig",
    "StoreConfig",
    "TopKConfig",
    "EarlyExitConfig",
    "HopTrace",
    "EXIT_CONFIDENCE",
    "EXIT_FULL_DEPTH",
    "logit_margin_confidence",
    "FLOAT32_LOGIT_TOLERANCE",
    "CPU_CONFIG",
    "GPU_CONFIG",
    "FPGA_CONFIG",
    "TABLE1",
    "MnnFastEngine",
    "EngineWeights",
    "AnswerResult",
    "BatchAnswer",
    "VectorCache",
    "TraceVectorCache",
    "TraceCacheMixin",
    "InferenceResult",
    "OpStats",
    "PhaseCost",
    "baseline_phase_costs",
    "column_phase_costs",
    "softmax",
    "unstable_softmax",
    "bow_embed",
    "position_encoding",
]
