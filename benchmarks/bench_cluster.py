"""Extension bench: cluster serving, reported at full scale.

Two measurements:

1. **Routing on a hot-chunk-skewed workload** (Zipf topic popularity,
   each topic a contiguous chunk block, per-replica LRU budget well
   under the hot set): cluster chunk hit-rate and latency for
   round-robin, least-backlog (the locality-blind load-aware
   reference) and cache-affinity routing, which keeps same-topic plans
   on the replica that already cached their chunks.

2. **A flash crowd against a static and an autoscaled fleet**:
   replaying one burst trace (quiet baseline → rate step → quiet),
   deadline timeouts and mean fleet size for each.

Both are simulations, so every number is deterministic; this bench only
reports them.  ``tests/test_cluster.py`` gates the claims at a smaller
scale: affinity wins on hit rate and p50 (``test_hit_rate_and_p50``),
and the autoscaler times out fewer requests than the static fleet,
scales, and comes back down (``test_autoscaled_burst_beats_static``).
"""

from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    ClusterConfig,
    ClusterSim,
    burst_trace,
    requests_from_trace,
    skewed_workload,
)
from repro.report import format_table

# --- shared geometry -----------------------------------------------------------

NUM_ROWS, ED, CHUNK = 32_000, 32, 500
CHUNK_BYTES = 2 * CHUNK * ED * 8  # M_IN + M_OUT, float64
#: LRU budget: ~1.25 topics' worth of chunks — small enough that a
#: replica serving every topic thrashes, the regime affinity wins in.
LRU_BUDGET = 10 * CHUNK_BYTES
NUM_TOPICS, CHUNKS_PER_TOPIC = 8, 8
DISK_BW = 2e8  # backing-tier stream bandwidth misses are charged at

ROUTING_REQUESTS = 2_000
ROUTING_RATE = 150.0
ROUTING_REPLICAS = 4

# Long enough past the burst for the scale-down cooldown (8 s) to
# elapse.
BURST_DURATION = 30.0
BURST_BASE, BURST_RATE = 20.0, 300.0
DEADLINE = 0.10
SCALE_FLOOR, SCALE_CEILING = 2, 10

POLICIES = ("round_robin", "least_backlog", "cache_affinity")


def _config(replicas: int) -> ClusterConfig:
    return ClusterConfig(
        num_rows=NUM_ROWS,
        embedding_dim=ED,
        chunk_size=CHUNK,
        replicas=replicas,
        resident_bytes=LRU_BUDGET,
        disk_bandwidth=DISK_BW,
    )


def _autoscaler() -> Autoscaler:
    return Autoscaler(
        AutoscalerConfig(
            min_replicas=SCALE_FLOOR,
            max_replicas=SCALE_CEILING,
            high_watermark=3.0,
            low_watermark=0.5,
            scale_up_cooldown=1.0,
            scale_down_cooldown=8.0,
        )
    )


def _policy_summary(metrics) -> dict:
    return {
        "chunk_hit_rate": metrics.chunk_hit_rate,
        "latency_p50": metrics.latency_percentile(50),
        "latency_p95": metrics.latency_percentile(95),
        "throughput_rps": metrics.throughput(),
    }


def test_cluster_serving(report):
    total_chunks = _config(ROUTING_REPLICAS).total_chunks

    # --- claim 1: routing policies on the skewed workload ---------------------
    requests = skewed_workload(
        num_requests=ROUTING_REQUESTS,
        num_topics=NUM_TOPICS,
        chunks_per_topic=CHUNKS_PER_TOPIC,
        total_chunks=total_chunks,
        rate=ROUTING_RATE,
        seed=11,
    )
    routing = {}
    for policy in POLICIES:
        sim = ClusterSim(_config(ROUTING_REPLICAS), policy=policy)
        routing[policy] = _policy_summary(sim.run(requests))

    report(
        format_table(
            ["policy", "chunk hit-rate", "p50 (ms)", "p95 (ms)", "rps"],
            [
                [
                    policy,
                    f"{row['chunk_hit_rate']:.1%}",
                    f"{row['latency_p50'] * 1e3:.3f}",
                    f"{row['latency_p95'] * 1e3:.3f}",
                    f"{row['throughput_rps']:.0f}",
                ]
                for policy, row in routing.items()
            ],
            title=(
                f"Routing policies, Zipf-skewed topics "
                f"({ROUTING_REQUESTS} requests, {ROUTING_REPLICAS} replicas, "
                f"LRU {LRU_BUDGET // CHUNK_BYTES} chunks/replica)"
            ),
        )
    )

    # --- claim 2: autoscaler vs static fleet under a burst --------------------
    trace = burst_trace(
        duration=BURST_DURATION,
        base_rate=BURST_BASE,
        burst_rate=BURST_RATE,
        burst_start=BURST_DURATION / 3,
        burst_duration=BURST_DURATION / 3,
    )
    burst_requests = requests_from_trace(
        trace,
        num_topics=NUM_TOPICS,
        chunks_per_topic=CHUNKS_PER_TOPIC,
        total_chunks=total_chunks,
        deadline=DEADLINE,
        seed=23,
    )
    static = ClusterSim(
        _config(SCALE_FLOOR), policy="least_backlog"
    ).run(burst_requests)
    autoscaled = ClusterSim(
        _config(SCALE_FLOOR),
        policy="least_backlog",
        autoscaler=_autoscaler(),
        tick_interval=0.5,
    ).run(burst_requests)

    report(
        format_table(
            ["fleet", "timeouts", "timeout rate", "mean replicas", "decisions"],
            [
                [
                    label,
                    str(fleet.timed_out),
                    f"{fleet.timeout_rate:.1%}",
                    f"{fleet.mean_replicas():.2f}",
                    str(len(fleet.decisions)),
                ]
                for label, fleet in (("static", static), ("autoscaled", autoscaled))
            ],
            title=(
                f"Flash crowd ({BURST_BASE:g}→{BURST_RATE:g} rps, "
                f"{len(burst_requests)} requests, {DEADLINE * 1e3:.0f} ms "
                f"deadline, floor {SCALE_FLOOR} replicas)"
            ),
        )
    )
