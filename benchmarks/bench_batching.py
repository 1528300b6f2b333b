"""Extension bench: continuous batching amortization (§5, Fig. 12 style).

Sweeps the batcher's ``max_batch_size`` at a fixed story size and
offered load past single-question saturation: the column-based
algorithm streams ``M_IN``/``M_OUT`` once per batch, so throughput
must rise monotonically with batch size until the pool turns
compute-bound, while batching delay shows up in the latency
percentiles — the amortization-vs-latency tradeoff curve.
"""

from repro.core import EngineConfig
from repro.report import format_table
from repro.serving import QaServer, ServerConfig, generate_workload

#: Offered load past even the batch-8 pool's capacity, so every sweep
#: point is saturated and throughput reflects service capacity.
RATE = 120_000
WORKERS = 8
STORY_RATE = 50
BATCH_SIZES = (1, 2, 4, 8, 16)
DURATION = 0.3
#: Throughput may only dip by measurement noise between sweep points.
MONOTONE_TOLERANCE = 0.02


def _sweep():
    points = []
    for batch_size in BATCH_SIZES:
        config = ServerConfig(
            engine=EngineConfig.mnnfast().with_batching(batch_size, max_wait=2e-3),
            workers=WORKERS,
        )
        workload = generate_workload(
            question_rate=RATE, story_rate=STORY_RATE,
            duration=DURATION, seed=7,
        )
        metrics = QaServer(config, seed=9).run(workload)
        points.append({
            "max_batch_size": batch_size,
            "throughput": metrics.throughput("question"),
            "p50_ms": metrics.latency_percentile(50) * 1e3,
            "p99_ms": metrics.latency_percentile(99) * 1e3,
            "batch_occupancy": metrics.batch_occupancy,
        })
    return points


def test_batching_amortization_curve(benchmark, report):
    points = benchmark.pedantic(_sweep, iterations=1, rounds=1)

    report(
        format_table(
            ["max batch", "throughput", "p50", "p99", "occupancy"],
            [
                [p["max_batch_size"],
                 f"{p['throughput']:,.0f}/s",
                 f"{p['p50_ms']:.2f} ms",
                 f"{p['p99_ms']:.2f} ms",
                 f"{p['batch_occupancy']:.2f}"]
                for p in points
            ],
            title=f"Continuous batching at {RATE:,} questions/s offered "
            f"({WORKERS} workers, story ingestion co-tenant)",
        )
    )

    benchmark.extra_info["max_throughput"] = round(
        max(p["throughput"] for p in points), 1
    )

    # The headline acceptance: amortizing the memory stream over the
    # batch buys monotonically increasing throughput with batch size.
    for previous, current in zip(points, points[1:]):
        assert current["throughput"] >= previous["throughput"] * (
            1.0 - MONOTONE_TOLERANCE
        ), (
            f"throughput fell from {previous['throughput']:,.0f}/s at "
            f"batch {previous['max_batch_size']} to "
            f"{current['throughput']:,.0f}/s at "
            f"batch {current['max_batch_size']}"
        )
    assert points[-1]["throughput"] > 2.0 * points[0]["throughput"]
