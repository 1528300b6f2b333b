"""Multi-node scale-out model (§5.3, closing remark).

The paper observes that multi-GPU scaling is ultimately limited by the
host's shared PCIe bandwidth, and that "this problem can be resolved
by using multiple nodes to isolate the memory accesses via PCIe", with
negligible synchronization overhead because each node's result is just
a partial weighted sum of size ``nq x ed``.

This model makes that argument quantitative: ``nodes`` machines each
run the multi-GPU model over their shard of the memory (each node has
its *own* host PCIe, so cross-node contention disappears), then the
``O(nq x ed)`` partials are tree-reduced over the cluster network.
The mergeability that makes this correct is
:class:`repro.core.column.PartialOutput` — tested to be associative
and commutative — so the reduce is exact, not approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..core.config import FLOAT_BYTES, MemNNConfig
from ..core.sharded import ShardPlan
from .gpu import GpuModel

__all__ = ["ClusterModel", "ClusterRunResult"]


@dataclass
class ClusterRunResult:
    """Timing decomposition of one cluster-wide inference."""

    nodes: int
    gpus_per_node: int
    compute_seconds: float
    reduce_seconds: float

    def __post_init__(self) -> None:
        # Fail here with the caller's numbers in hand rather than deep
        # inside GpuModel with a cryptic per-GPU shard error.
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.gpus_per_node < 1:
            raise ValueError(
                f"gpus_per_node must be >= 1, got {self.gpus_per_node}"
            )

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.reduce_seconds

    @property
    def total_gpus(self) -> int:
        return self.nodes * self.gpus_per_node

    @property
    def sync_fraction(self) -> float:
        """Share of the run spent synchronizing (paper: negligible)."""
        return self.reduce_seconds / self.total_seconds if self.total_seconds else 0.0


@dataclass(frozen=True)
class ClusterModel:
    """A cluster of multi-GPU nodes connected by a commodity network.

    Attributes:
        gpu: the per-node GPU model (each node gets its own host PCIe).
        network_bandwidth: node-to-node bytes/second (10 GbE default).
        network_latency: per-message latency.
    """

    gpu: GpuModel = field(default_factory=GpuModel)
    network_bandwidth: float = 1.25e9
    network_latency: float = 50e-6

    def __post_init__(self) -> None:
        if self.network_bandwidth <= 0 or self.network_latency < 0:
            raise ValueError("network parameters must be positive")

    def partial_bytes(self, config: MemNNConfig) -> int:
        """Wire size of one node's partial: the weighted-sum numerator
        (nq x ed), the denominator (nq) and the running max (nq)."""
        nq, ed = config.num_questions, config.embedding_dim
        return (nq * ed + 2 * nq) * FLOAT_BYTES

    def reduce_seconds(self, config: MemNNConfig, nodes: int) -> float:
        """Tree reduction of the partials across the cluster."""
        if nodes <= 1:
            return 0.0
        rounds = math.ceil(math.log2(nodes))
        per_round = (
            self.network_latency
            + self.partial_bytes(config) / self.network_bandwidth
        )
        return rounds * per_round

    def shard_plan(self, config: MemNNConfig, nodes: int) -> ShardPlan:
        """The cross-node memory partition — the same
        :class:`~repro.core.sharded.ShardPlan` the numerical
        :class:`~repro.core.sharded.ShardedMemNN` executes, so the
        timing model and the numerics agree on shard geometry."""
        if nodes <= 0:
            raise ValueError(f"nodes must be positive, got {nodes}")
        return ShardPlan(config.num_sentences, nodes)

    def run(
        self,
        config: MemNNConfig,
        nodes: int,
        gpus_per_node: int = 4,
    ) -> ClusterRunResult:
        """Cluster-wide inference over an evenly sharded memory.

        Each node processes its shard of the plan with its own PCIe
        and GPUs; nodes run concurrently, so the compute phase
        finishes when the *largest* shard does.
        """
        if gpus_per_node < 1:
            raise ValueError(
                f"gpus_per_node must be >= 1, got {gpus_per_node}"
            )
        plan = self.shard_plan(config, nodes)
        shard_sentences = max(1, plan.max_shard_rows)
        shard = replace(config, num_sentences=shard_sentences)
        node_result = self.gpu.run_multi_gpu(shard, gpus_per_node)
        return ClusterRunResult(
            nodes=nodes,
            gpus_per_node=gpus_per_node,
            compute_seconds=node_result.total_seconds,
            reduce_seconds=self.reduce_seconds(config, nodes),
        )

    def speedup_curve(
        self,
        config: MemNNConfig,
        node_counts: tuple[int, ...] = (1, 2, 4, 8),
        gpus_per_node: int = 4,
    ) -> dict[int, float]:
        """Speedup over the single-GPU baseline per node count."""
        baseline = self.gpu.run_baseline(config).total_seconds
        return {
            nodes: baseline / self.run(config, nodes, gpus_per_node).total_seconds
            for nodes in node_counts
        }
