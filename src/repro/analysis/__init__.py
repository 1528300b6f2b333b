"""Experiment drivers, one per paper figure (see DESIGN.md §4)."""

from .accuracy import TaskAccuracy, accuracy_table
from .contention import ContentionResult, contention_experiment, contention_sweep
from .early_exit import early_exit_workload
from .offchip import OffchipResult, offchip_accesses
from .platforms import (
    embedding_cache_effectiveness,
    energy_comparison,
    fpga_latency_breakdown,
    gpu_multi_gpu_scaling,
    gpu_stream_scaling,
)
from .scalability import (
    algorithm_scalability,
    bandwidth_scalability,
    operation_breakdown,
    speedup_over_baseline,
)
from .sparsity import SparsityResult, probability_distribution
from .tradeoff import TradeoffCurve, TradeoffPoint, threshold_sweep

__all__ = [
    "accuracy_table",
    "TaskAccuracy",
    "early_exit_workload",
    "probability_distribution",
    "SparsityResult",
    "threshold_sweep",
    "TradeoffCurve",
    "TradeoffPoint",
    "bandwidth_scalability",
    "algorithm_scalability",
    "operation_breakdown",
    "speedup_over_baseline",
    "contention_experiment",
    "contention_sweep",
    "ContentionResult",
    "offchip_accesses",
    "OffchipResult",
    "gpu_stream_scaling",
    "gpu_multi_gpu_scaling",
    "fpga_latency_breakdown",
    "embedding_cache_effectiveness",
    "energy_comparison",
]
