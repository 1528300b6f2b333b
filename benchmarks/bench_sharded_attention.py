"""Extension bench: sharded lazy-softmax attention (§3.1 scale-out).

Sweeps the shard count K over one attention pass, verifying the
exact-merge property (sharded output equals single-shard column mode
to 1e-10) while measuring the fan-out's numerical cost and the
per-shard work split.  A second table prints
the serving model's sharded hop: max-of-shards compute plus the
modeled exact-merge cost.
"""

import numpy as np

from repro.core import ChunkConfig, ColumnMemNN, EngineConfig, ShardedMemNN
from repro.report import format_table
from repro.serving import QaServer, ServerConfig

NS, ED, NQ = 20_000, 48, 16
SHARD_COUNTS = (1, 2, 4, 8)


def _problem():
    rng = np.random.default_rng(7)
    m_in = rng.normal(size=(NS, ED))
    m_out = rng.normal(size=(NS, ED))
    u = rng.normal(size=(NQ, ED))
    return m_in, m_out, u


def test_sharded_attention_exact_merge(benchmark, report):
    m_in, m_out, u = _problem()
    chunk = ChunkConfig(1000)
    reference = ColumnMemNN(m_in, m_out, chunk=chunk).output(u)

    def sweep():
        return {
            shards: ShardedMemNN(m_in, m_out, num_shards=shards, chunk=chunk).output(u)
            for shards in SHARD_COUNTS
        }

    results = benchmark(sweep)

    rows = []
    worst = 0.0
    for shards, result in results.items():
        delta = float(np.abs(result.output - reference.output).max())
        worst = max(worst, delta)
        shard_rows = [
            s.rows_computed // NQ for s in result.tier_stats()["shards"]
        ]
        rows.append([
            shards,
            f"{delta:.2e}",
            f"{min(shard_rows)}..{max(shard_rows)}",
            f"{result.stats.flops / reference.stats.flops:.4f}",
        ])
    report(
        format_table(
            ["K", "max |Δ| vs column", "rows/shard", "flops ratio"],
            rows,
            title="Sharded attention — exact merge across K "
            "(paper §3.1: partials combine with negligible overhead)",
        )
    )

    benchmark.extra_info["worst_abs_delta"] = worst
    # The merge is exact, not approximate: machine-epsilon agreement.
    assert worst < 1e-10
    # The merge overhead is negligible next to the O(ns*ed) scan.
    eight = results[8]
    assert eight.stats.flops < reference.stats.flops * 1.01


def test_fan_out_cost_model(report):
    rows = []
    for shards in SHARD_COUNTS:
        engine = (
            EngineConfig(algorithm="column") if shards == 1
            else EngineConfig.sharded(shards)
        )
        server = QaServer(ServerConfig(engine=engine))
        hop = server.hop_seconds()
        plan = server.shard_plan()
        merge = server.shard_merge_seconds(plan) if plan is not None else 0.0
        rows.append([
            shards, f"{hop * 1e3:.3f} ms", f"{merge * 1e6:.2f} us",
            f"{merge / hop:.1%}",
        ])
    report(format_table(
        ["K", "hop latency", "merge cost", "merge share"],
        rows,
        title="Serving fan-out model — max-of-shards compute + exact-merge cost",
    ))
