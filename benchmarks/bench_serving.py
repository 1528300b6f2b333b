"""Extension bench: multi-tenant serving under load (§2.2.3 end to end).

Sweeps the offered question load across the three deployments and
reports throughput and tail latency — the system-level consequence of
the paper's optimizations.
"""

from repro.core import EmbeddingCacheConfig, EngineConfig
from repro.report import format_table
from repro.serving import QaServer, ServerConfig, generate_workload

ENGINES = {"baseline": EngineConfig.baseline, "mnnfast": EngineConfig.mnnfast}

RATE = 30_000  # past the baseline's saturation point
DURATION = 0.2


def _run(algorithm: str, use_cache: bool):
    workload = generate_workload(
        question_rate=RATE, story_rate=1000, duration=DURATION, seed=5
    )
    config = ServerConfig(
        engine=ENGINES[algorithm](),
        embedding_cache=(
            EmbeddingCacheConfig(size_bytes=64 * 1024, embedding_dim=48)
            if use_cache
            else None
        ),
    )
    return QaServer(config, seed=9).run(workload)


def test_serving_baseline(benchmark):
    metrics = benchmark.pedantic(
        _run, args=("baseline", False), iterations=1, rounds=2
    )
    benchmark.extra_info["throughput"] = round(metrics.throughput(), 1)
    benchmark.extra_info["p95_ms"] = round(
        metrics.latency_percentile(95) * 1e3, 2
    )


def test_serving_mnnfast(benchmark, report):
    metrics = benchmark.pedantic(
        _run, args=("mnnfast", True), iterations=1, rounds=2
    )
    baseline = _run("baseline", False)
    report(
        format_table(
            ["deployment", "throughput", "p95 latency"],
            [
                ["baseline",
                 f"{baseline.throughput():,.0f}/s",
                 f"{baseline.latency_percentile(95) * 1e3:.2f} ms"],
                ["mnnfast + embedding cache",
                 f"{metrics.throughput():,.0f}/s",
                 f"{metrics.latency_percentile(95) * 1e3:.2f} ms"],
            ],
            title=f"Serving at {RATE:,} questions/s offered "
            "(4 workers, co-tenant story ingestion)",
        )
    )
    benchmark.extra_info["throughput"] = round(metrics.throughput(), 1)
    # MnnFast must sustain the load the baseline cannot.
    assert metrics.throughput() > 1.5 * baseline.throughput()
    assert metrics.latency_percentile(95) < baseline.latency_percentile(95)
