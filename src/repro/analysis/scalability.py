"""Figs. 3, 9 and 10: CPU scalability and per-operation latency.

Thin drivers over :class:`repro.perf.cpu.CpuModel` that produce
exactly the series each figure plots.
"""

from __future__ import annotations

from ..core.config import CPU_CONFIG, MemNNConfig
from ..perf.cpu import ALGORITHMS, CpuModel

__all__ = [
    "bandwidth_scalability",
    "algorithm_scalability",
    "operation_breakdown",
    "speedup_over_baseline",
]


def bandwidth_scalability(
    config: MemNNConfig = CPU_CONFIG,
    channels: tuple[int, ...] = (2, 4, 8),
    max_threads: int = 24,
    algorithm: str = "baseline",
) -> dict[int, dict[int, float]]:
    """Fig. 3 (and Fig. 10 per algorithm): speedup vs. threads for each
    memory-channel configuration, normalized to the single-thread run
    of the same configuration."""
    return {
        ch: CpuModel().with_channels(ch).speedup_curve(
            config, algorithm, max_threads=max_threads
        )
        for ch in channels
    }


def algorithm_scalability(
    config: MemNNConfig = CPU_CONFIG,
    channels: int = 4,
    max_threads: int = 24,
) -> dict[str, dict[int, float]]:
    """Fig. 10 at one channel count: each algorithm's own speedup curve."""
    cpu = CpuModel().with_channels(channels)
    return {
        algorithm: cpu.speedup_curve(config, algorithm, max_threads=max_threads)
        for algorithm in ALGORITHMS
    }


def operation_breakdown(
    config: MemNNConfig = CPU_CONFIG,
    threads: int = 20,
) -> dict[str, dict[str, float]]:
    """Fig. 9(a): per-operation latency for each algorithm variant."""
    cpu = CpuModel()
    return {
        algorithm: cpu.run(config, algorithm, threads).phase_seconds
        for algorithm in ALGORITHMS
    }


def speedup_over_baseline(
    config: MemNNConfig = CPU_CONFIG,
    max_threads: int = 20,
) -> dict[str, dict[int, float]]:
    """Fig. 9(b): speedup of each variant over the baseline at equal
    thread counts."""
    cpu = CpuModel()
    return {
        algorithm: {
            threads: cpu.speedup_vs_baseline(config, algorithm, threads)
            for threads in range(1, max_threads + 1)
        }
        for algorithm in ALGORITHMS
        if algorithm != "baseline"
    }
