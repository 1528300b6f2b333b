"""Command-line interface: regenerate any paper experiment.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig13                # one experiment
    python -m repro fig7 --quick         # smaller training budget
    python -m repro all                  # every model-based experiment

Each command prints the same paper-vs-measured tables the benchmark
harness produces; the heavyweight trained experiments (fig6, fig7)
accept ``--quick`` to shrink their training budget.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .analysis import (
    accuracy_table,
    algorithm_scalability,
    bandwidth_scalability,
    contention_sweep,
    embedding_cache_effectiveness,
    energy_comparison,
    fpga_latency_breakdown,
    gpu_multi_gpu_scaling,
    gpu_stream_scaling,
    offchip_accesses,
    operation_breakdown,
    probability_distribution,
    speedup_over_baseline,
    threshold_sweep,
)
from .core.config import TABLE1
from .report import (
    format_overload_comparison,
    format_percent,
    format_series,
    format_serving_summary,
    format_speedup,
    format_stage_breakdown,
    format_table,
)
from .serving import run_overload_experiment

__all__ = ["main", "EXPERIMENTS"]


def _cmd_table1(args: argparse.Namespace) -> None:
    rows = [
        [
            platform,
            entry["config"].embedding_dim,
            f"{entry['database_sentences']:,}",
            entry["chunk_size"] or "variable",
        ]
        for platform, entry in TABLE1.items()
    ]
    print(format_table(
        ["platform", "embedding dim", "database", "chunk"],
        rows,
        title="Table 1 — memory network configurations",
    ))


def _cmd_fig3(args: argparse.Namespace) -> None:
    curves = bandwidth_scalability(channels=(2, 4, 8), max_threads=24)
    print("Fig. 3 — baseline speedup vs threads per memory-channel config")
    for channels, curve in curves.items():
        print(format_series(f"{channels}-channel", curve))


def _cmd_fig4(args: argparse.Namespace) -> None:
    grid = contention_sweep(thread_counts=(1, 2, 4, 8))
    rows = [
        [scale] + [f"{series[k]:.2f}" for k in (1, 2, 4, 8)]
        for scale, series in grid.items()
    ]
    print(format_table(
        ["scale", "1 emb", "2 emb", "4 emb", "8 emb"],
        rows,
        title="Fig. 4 — relative inference performance under embedding threads",
    ))


def _cmd_fig6(args: argparse.Namespace) -> None:
    budget = (200, 15) if args.quick else (400, 30)
    result = probability_distribution(
        task_id=1, num_questions=100, max_sentences=20,
        train_examples=budget[0], epochs=budget[1],
    )
    print("Fig. 6 — trained attention sparsity")
    for threshold, fraction in result.fraction_above.items():
        print(f"  entries above {threshold}: {format_percent(fraction)}")
    print(f"  mean per-question peak: {result.mean_max:.3f}")
    print(f"  test accuracy (sanity): {format_percent(result.test_accuracy)}")


def _cmd_fig7(args: argparse.Namespace) -> None:
    budget = (250, 15, (1, 15)) if args.quick else (400, 30, (1, 2, 6, 15, 16))
    curve = threshold_sweep(
        task_ids=budget[2], train_examples=budget[0], epochs=budget[1],
    )
    rows = [
        [p.threshold, format_percent(p.computation_reduction),
         format_percent(p.accuracy_loss)]
        for p in curve.points
    ]
    print(format_table(
        ["th_skip", "compute reduction", "accuracy loss"],
        rows,
        title="Fig. 7 — zero-skipping tradeoff "
        "(paper: 97% reduction / 0.87% loss at th=0.1)",
    ))


def _cmd_fig9(args: argparse.Namespace) -> None:
    breakdown = operation_breakdown(threads=20)
    base = breakdown["baseline"]
    rows = [
        [alg] + [f"{breakdown[alg][ph] / base[ph]:.2f}"
                 for ph in ("inner_product", "softmax", "weighted_sum")]
        for alg in breakdown
    ]
    print(format_table(
        ["variant", "inner", "softmax", "weighted"],
        rows,
        title="Fig. 9(a) — per-op latency normalized to baseline",
    ))
    speedups = speedup_over_baseline(max_threads=20)["mnnfast"]
    average = sum(speedups.values()) / len(speedups)
    print(
        f"Fig. 9(b) — MnnFast {format_speedup(speedups[20])} @20t "
        f"(paper 5.38x), avg {format_speedup(average)} (paper 4.02x)"
    )


def _cmd_fig10(args: argparse.Namespace) -> None:
    curves = algorithm_scalability(channels=4, max_threads=24)
    print("Fig. 10 — per-algorithm speedup at 4 channels")
    for algorithm, curve in curves.items():
        print(format_series(algorithm, {t: curve[t] for t in (1, 4, 8, 16, 24)}))


def _cmd_fig11(args: argparse.Namespace) -> None:
    result = offchip_accesses()
    rows = [
        [name, count, f"{result.normalized[name]:.3f}"]
        for name, count in result.counts.items()
    ]
    print(format_table(
        ["variant", "off-chip accesses", "normalized"],
        rows,
        title="Fig. 11 — off-chip accesses (paper: streaming removes >60%)",
    ))


def _cmd_fig12(args: argparse.Namespace) -> None:
    streams = gpu_stream_scaling(stream_counts=(1, 2, 4, 8))["speedup"]
    print(format_series("Fig. 12(a) stream speedup", streams))
    points = gpu_multi_gpu_scaling(gpu_counts=(1, 2, 3, 4))
    rows = [
        [p.gpus, format_speedup(p.speedup),
         f"{p.worst_h2d_seconds * 1e3:.2f} ms",
         f"{p.ideal_h2d_seconds * 1e3:.2f} ms"]
        for p in points
    ]
    print(format_table(
        ["GPUs", "speedup", "worst H2D", "ideal H2D"],
        rows,
        title="Fig. 12(b) — multi-GPU scaling (paper: 4.34x at 4 GPUs)",
    ))


def _cmd_fig13(args: argparse.Namespace) -> None:
    table = fpga_latency_breakdown()
    rows = [[name, f"{value:.3f}"] for name, value in table.items()]
    print(format_table(
        ["variant", "normalized latency"],
        rows,
        title="Fig. 13 — FPGA latency (paper: MnnFast up to 2.01x)",
    ))
    print(f"measured MnnFast speedup: {format_speedup(1 / table['mnnfast'])}")


def _cmd_fig14(args: argparse.Namespace) -> None:
    reductions = embedding_cache_effectiveness(num_lookups=50_000)
    paper = {32: "34.5%", 64: "41.7%", 128: "47.7%", 256: "53.1%"}
    rows = [
        [f"{size // 1024} KB", format_percent(value), paper[size // 1024]]
        for size, value in reductions.items()
    ]
    print(format_table(
        ["cache size", "measured reduction", "paper"],
        rows,
        title="Fig. 14 — embedding-cache latency reduction",
    ))


def _cmd_energy(args: argparse.Namespace) -> None:
    comparison = energy_comparison()
    print("§5.5 — energy per question")
    print(f"  CPU  MnnFast: {comparison.cpu_joules * 1e6:8.1f} uJ")
    print(f"  FPGA MnnFast: {comparison.fpga_joules * 1e6:8.1f} uJ")
    print(
        f"  ratio: {comparison.efficiency_ratio:.2f}x (paper: up to 6.54x)"
    )


def _cmd_serving(args: argparse.Namespace) -> None:
    duration = 0.02 if args.quick else 0.05
    result = run_overload_experiment(duration=duration)
    print(
        f"§2.2.3 — serving at {result.offered_rate:,.0f} questions/s "
        f"(2x the {result.saturating_rate:,.0f}/s saturation point, "
        f"{result.duration * 1e3:.0f} ms of arrivals)"
    )
    runs = {"no-policy": result.no_policy, "degraded": result.degraded}
    print(format_serving_summary(runs))
    print()
    print(
        format_overload_comparison(
            "no-policy", result.no_policy, "degraded", result.degraded
        )
    )
    print()
    print(format_stage_breakdown(runs))


def _cmd_sharded(args: argparse.Namespace) -> None:
    import numpy as np

    from .core import (
        EngineConfig,
        EngineWeights,
        MemNNConfig,
        MnnFastEngine,
    )
    from .serving import QaServer, ServerConfig

    config = MemNNConfig(
        embedding_dim=32, num_sentences=5000, num_questions=8,
        vocab_size=2000, max_words=8,
    )
    rng = np.random.default_rng(0)
    weights = EngineWeights.random(config, rng=rng)
    story = rng.integers(1, config.vocab_size, size=(2000, config.max_words))
    questions = rng.integers(1, config.vocab_size, size=(8, config.max_words))

    def run(engine_config):
        # At the float64 reference precision: what is on show is the
        # merge's exactness, not float32 tile rounding.
        engine_config = engine_config.with_execution(dtype="float64")
        engine = MnnFastEngine(config, weights, engine_config=engine_config)
        engine.store_story(story)
        return engine.answer(questions)

    reference = run(EngineConfig(algorithm="column"))
    rows = []
    for num_shards in (1, 2, 4, 8):
        for policy in ("contiguous", "strided"):
            result = run(EngineConfig.sharded(num_shards, policy))
            delta = float(np.abs(result.logits - reference.logits).max())
            agree = bool(
                np.array_equal(result.answer_ids, reference.answer_ids)
            )
            rows.append([num_shards, policy, f"{delta:.2e}", agree])
    print(format_table(
        ["shards", "policy", "max |Δlogit| vs column", "answers agree"],
        rows,
        title="Sharded lazy-softmax attention — exact-merge differential check",
    ))

    print()
    latency_rows = []
    for num_shards in (1, 2, 4, 8):
        engine = (
            EngineConfig(algorithm="column")
            if num_shards == 1
            else EngineConfig.sharded(num_shards)
        )
        server = QaServer(ServerConfig(engine=engine))
        hop = server.hop_seconds()
        plan = server.shard_plan()
        merge = server.shard_merge_seconds(plan) if plan is not None else 0.0
        latency_rows.append([
            num_shards,
            f"{hop * 1e3:.3f} ms",
            f"{merge * 1e6:.2f} us",
            format_percent(merge / hop if hop else 0.0),
        ])
    print(format_table(
        ["shards", "hop latency", "merge cost", "merge share"],
        latency_rows,
        title="Serving fan-out model — max-of-shards compute + exact-merge cost",
    ))


def _cmd_parallel(args: argparse.Namespace) -> None:
    import os

    import numpy as np

    from .core import ColumnMemNN, EngineConfig, ShardedMemNN

    ns = 20_000 if args.quick else 100_000
    ed, nq, repeats = 48, 16, 3
    rng = np.random.default_rng(0)
    m_in = rng.normal(size=(ns, ed))
    m_out = rng.normal(size=(ns, ed))
    u = m_in[rng.integers(0, ns, size=nq)] * 2.0

    def best_of(solver):
        solver.output(u)  # warm-up (BLAS thread spin-up, page faults)
        times, result = [], None
        for _ in range(repeats):
            result = solver.output(u)
            times.append(result.elapsed_seconds)
        return min(times), result

    reference_seconds, reference = best_of(ColumnMemNN(m_in, m_out))

    rows = []
    # Every row but the first runs the default precision (float32 memory).
    configs = [
        ("column f64 (reference)", EngineConfig().with_execution(dtype="float64")),
        ("column f32 (default)", EngineConfig()),
    ]
    for workers in (1, 2, 4):
        configs.append((
            f"sharded process x{workers}",
            EngineConfig.sharded(workers).with_execution(
                backend="process", num_workers=workers
            ),
        ))
    configs.append((
        "sharded serial K=4", EngineConfig.sharded(num_shards=4)
    ))
    configs.append(("sharded fused K=4", EngineConfig.fused(4)))
    for label, engine_config in configs:
        if engine_config.algorithm == "sharded":
            solver = ShardedMemNN(
                m_in, m_out,
                num_shards=engine_config.num_shards,
                policy=engine_config.shard_policy,
                chunk=engine_config.chunk,
                dtype=np.dtype(engine_config.execution.dtype),
                execution=engine_config.execution,
            )
        else:
            solver = ColumnMemNN(
                m_in, m_out,
                chunk=engine_config.chunk,
                dtype=np.dtype(engine_config.execution.dtype),
            )
        seconds, result = best_of(solver)
        delta = float(np.abs(result.output - reference.output).max())
        rows.append([
            label,
            f"{seconds * 1e3:.1f} ms",
            format_speedup(reference_seconds / seconds),
            f"{delta:.2e}",
        ])
        solver.close()
    print(format_table(
        ["configuration", "wall-clock", "vs column f64", "max |Δo|"],
        rows,
        title=(
            f"Parallel execution backend at ns={ns:,}, ed={ed}, nq={nq} "
            f"({os.cpu_count()} CPU(s) visible; process scaling needs cores)"
        ),
    ))


def _cmd_store(args: argparse.Namespace) -> None:
    import tempfile
    from pathlib import Path

    import numpy as np

    from .core import ColumnMemNN, EngineConfig, ShardedMemNN
    from .serving import QaServer, ServerConfig
    from .store import MmapStore

    ns = 20_000 if args.quick else 60_000
    ed, nq = 48, 16
    rng = np.random.default_rng(0)
    m_in = rng.normal(size=(ns, ed))
    m_out = rng.normal(size=(ns, ed))
    u = m_in[rng.integers(0, ns, size=nq)] * 2.0
    footprint = m_in.nbytes + m_out.nbytes
    budget = footprint // 8

    reference = ColumnMemNN(m_in, m_out).output(u).output

    with tempfile.TemporaryDirectory(prefix="repro-store-") as tmp:
        store = MmapStore.save(Path(tmp) / "memories", m_in, m_out)
        variants = [
            ("resident arrays", ColumnMemNN(m_in, m_out)),
            ("mmap demand (depth 0)", ColumnMemNN(store=store)),
            (
                "mmap prefetch depth 2 + RAM tier",
                ColumnMemNN(
                    store=store, resident_bytes=budget, prefetch_depth=2
                ),
            ),
            (
                "mmap sharded K=4 + prefetch",
                ShardedMemNN(
                    store=store, num_shards=4,
                    resident_bytes=budget, prefetch_depth=2,
                ),
            ),
        ]
        rows = []
        for label, solver in variants:
            result = solver.output(u)
            solver.close()
            delta = float(np.abs(result.output - reference).max())
            stats = result.tier_stats()["store"]
            if stats is None:
                rows.append([label, f"{delta:.2e}", "-", "-", "-", "-"])
            else:
                rows.append([
                    label,
                    f"{delta:.2e}",
                    f"{stats.disk_bytes / 1e6:.1f} MB",
                    f"{stats.ram_bytes / 1e6:.1f} MB",
                    format_percent(stats.prefetch_coverage),
                    f"{stats.stall_seconds * 1e3:.2f} ms",
                ])
        print(format_table(
            ["configuration", "max |Δo| vs resident", "disk bytes",
             "RAM bytes", "prefetch coverage", "stall"],
            rows,
            title=(
                f"Out-of-core memory store at ns={ns:,}, ed={ed} "
                f"({footprint / 1e6:.0f} MB footprint, "
                f"{budget / 1e6:.0f} MB RAM budget)"
            ),
        ))
        store.close()

    print()
    latency_rows = []
    for label, engine in [
        ("resident", EngineConfig()),
        ("out-of-core, no prefetch",
         EngineConfig.out_of_core(resident_bytes=None, prefetch_depth=0)),
        ("out-of-core, prefetch depth 2",
         EngineConfig.out_of_core(resident_bytes=None)),
        ("out-of-core, prefetch + 32 MB RAM tier", EngineConfig.out_of_core()),
    ]:
        server = QaServer(ServerConfig(engine=engine))
        hop = server.hop_seconds()
        disk = server.disk_stream_seconds()
        latency_rows.append([
            label,
            f"{hop * 1e3:.3f} ms",
            f"{disk * 1e3:.3f} ms",
            "overlapped" if engine.store.prefetch_depth > 0 and disk else (
                "serialized" if disk else "-"
            ),
        ])
    print(format_table(
        ["configuration", "hop latency", "disk stream", "disk vs compute"],
        latency_rows,
        title="Serving cost model — disk tier charged against disk_bandwidth",
    ))


def _cmd_topk(args: argparse.Namespace) -> None:
    import numpy as np

    from .core import EngineConfig, EngineWeights, MemNNConfig
    from .index import compare_topk_vs_exact, synthetic_topical_workload
    from .serving import QaServer, ServerConfig

    ns = 8_192 if args.quick else 32_768
    nq = 8
    config = MemNNConfig(
        embedding_dim=32, num_sentences=ns, num_questions=nq,
        vocab_size=4_000, max_words=8, hops=2,
    )
    rng = np.random.default_rng(0)
    weights = EngineWeights.random(config, rng=rng, scale=0.35)
    stories, questions = synthetic_topical_workload(config, nq, rng=rng)

    rows = []
    for nprobe in (2, 4, 8, 16):
        cfg = EngineConfig(algorithm="column").with_topk(
            nprobe=nprobe, min_rows=0
        )
        comparison = compare_topk_vs_exact(
            config, questions, cfg, weights=weights, stories=stories
        )
        rows.append([
            nprobe,
            format_percent(comparison.answer_agreement),
            f"{comparison.mean_recall:.4f}",
            f"{comparison.min_recall:.4f}",
            format_percent(comparison.mean_candidate_fraction),
        ])
    print(format_table(
        ["nprobe", "answer agreement", "mean recall", "min recall",
         "rows examined"],
        rows,
        title=(
            f"Top-k tier vs exact column kernel at ns={ns:,} "
            f"(topical workload, batch={nq}, nlist~sqrt(ns))"
        ),
    ))

    print()
    network = MemNNConfig(
        embedding_dim=48, num_sentences=200_000, num_questions=1,
        vocab_size=30_000,
    )
    latency_rows = []
    for label, engine in [
        ("exact mnnfast", EngineConfig.mnnfast()),
        ("+ top-k nprobe=8", EngineConfig.mnnfast().with_topk(nprobe=8)),
        ("+ top-k nprobe=32", EngineConfig.mnnfast().with_topk(nprobe=32)),
    ]:
        server = QaServer(ServerConfig(network=network, engine=engine))
        latency_rows.append([
            label,
            f"{server.hop_seconds(batch_size=1) * 1e3:.3f} ms",
            f"{server.hop_seconds(batch_size=8) * 1e3:.3f} ms",
            f"{server.hop_seconds(batch_size=64) * 1e3:.3f} ms",
            f"{server.probe_gather_seconds(batch_size=1) * 1e6:.1f} us",
        ])
    print(format_table(
        ["configuration", "hop (batch 1)", "hop (batch 8)", "hop (batch 64)",
         "probe+gather (b=1)"],
        latency_rows,
        title=(
            f"Serving cost model at ns={network.num_sentences:,} — "
            "candidates union across the batch, so big batches converge "
            "on the exact scan"
        ),
    ))


def _cmd_earlyexit(args: argparse.Namespace) -> None:
    from .analysis import sweep_early_exit
    from .serving import QaServer, ServerConfig
    from .core import EngineConfig, MemNNConfig

    num_questions = 64 if args.quick else 128
    sweep = sweep_early_exit(num_questions=num_questions)
    rows = []
    for point in sweep.points:
        rows.append([
            f"{point.threshold:g}",
            f"{point.mean_hops:.2f} / {sweep.hops}",
            format_percent(point.hops_saved_fraction),
            format_percent(point.exited_fraction),
            format_percent(point.agreement),
        ])
    print(format_table(
        ["threshold", "mean hops", "hops saved", "exited", "agreement"],
        rows,
        title=(
            "Confidence-gated early exit (logit-margin gate, topical "
            f"workload, {num_questions} questions)"
        ),
    ))

    print()
    network = MemNNConfig(
        embedding_dim=48, num_sentences=50_000, num_questions=1,
        vocab_size=30_000, hops=4,
    )
    latency_rows = []
    for exit_threshold in (0.0, 0.05, 0.2, 0.4):
        server = QaServer(ServerConfig(
            network=network,
            engine=EngineConfig.mnnfast().with_early_exit(exit_threshold),
        ))
        survivors = server.expected_hop_survivors(
            64, exit_threshold=exit_threshold
        )
        latency_rows.append([
            f"{exit_threshold:g}",
            " ".join(str(s) for s in survivors),
            f"{server.inference_seconds(batch_size=64) * 1e3:.3f} ms",
            f"{server.inference_seconds(batch_size=1) * 1e3:.3f} ms",
        ])
    print(format_table(
        ["exit threshold", "survivors/hop (batch 64)",
         "batch-64 inference", "batch-1 inference"],
        latency_rows,
        title=(
            "Serving cost model — ragged-depth batches charge each hop "
            "at its expected survivor count"
        ),
    ))


def _cmd_batching(args: argparse.Namespace) -> None:
    import numpy as np

    from .core import (
        EngineConfig,
        EngineWeights,
        MemNNConfig,
        MnnFastEngine,
    )
    from .serving import QaServer, ServerConfig, generate_workload

    # --- engine amortization: one batched pass vs a sequential loop -------
    max_nq = 8 if args.quick else 16
    config = MemNNConfig(
        embedding_dim=32, num_sentences=4000, num_questions=1,
        vocab_size=2000, max_words=8,
    )
    rng = np.random.default_rng(0)
    weights = EngineWeights.random(config, rng=rng)
    story = rng.integers(1, config.vocab_size, size=(1500, config.max_words))
    engine = MnnFastEngine(
        config, weights,
        engine_config=EngineConfig.mnnfast().with_batching(max_nq, max_wait=1e-3),
    )
    engine.store_story(story)

    rows = []
    nq = 1
    while nq <= max_nq:
        questions = rng.integers(
            1, config.vocab_size, size=(nq, config.max_words)
        )
        batched = engine.answer_batch(questions)
        solo_bytes = sum(
            engine.answer(questions[i : i + 1]).stats.bytes_read
            for i in range(nq)
        )
        delta = max(
            float(
                np.abs(r.logits - batched.batch.logits[i : i + 1]).max()
            )
            for i, r in enumerate(batched.results)
        )
        rows.append([
            nq,
            f"{batched.batch.stats.bytes_read / 1e6:.2f} MB",
            f"{solo_bytes / 1e6:.2f} MB",
            f"{solo_bytes / max(1, batched.batch.stats.bytes_read):.2f}x",
            f"{delta:.2e}",
        ])
        nq *= 2
    print(format_table(
        ["batch nq", "batched bytes", "sequential bytes", "amortization",
         "max |Δlogit| vs views"],
        rows,
        title="answer_batch — M_IN/M_OUT streamed once per batch (§5, Fig. 12)",
    ))

    print()
    # --- serving sweep: batch size vs throughput and tail latency ---------
    duration = 0.1 if args.quick else 0.3
    rate, workers = 120_000.0, 8
    sweep_rows = []
    bs = 1
    while bs <= max_nq:
        server = QaServer(ServerConfig(
            engine=EngineConfig.mnnfast().with_batching(bs, max_wait=2e-3),
            workers=workers,
        ))
        workload = generate_workload(
            question_rate=rate, story_rate=50.0, duration=duration, seed=7,
        )
        metrics = server.run(workload)
        sweep_rows.append([
            bs,
            format_percent(metrics.batch_occupancy),
            f"{metrics.throughput('question'):,.0f}/s",
            f"{metrics.latency_percentile(50) * 1e3:.2f} ms",
            f"{metrics.latency_percentile(99) * 1e3:.2f} ms",
            f"{metrics.queueing_percentile(99) * 1e3:.2f} ms",
        ])
        bs *= 2
    print(format_table(
        ["max batch", "occupancy", "throughput", "p50", "p99",
         "queueing p99"],
        sweep_rows,
        title=(
            f"Continuous batching at {rate:,.0f} questions/s offered, "
            f"{workers} workers — amortization vs batching delay"
        ),
    ))


def _cmd_cluster(args: argparse.Namespace) -> None:
    from .cluster import (
        Autoscaler,
        AutoscalerConfig,
        ClusterConfig,
        ClusterSim,
        burst_trace,
        requests_from_trace,
        skewed_workload,
    )

    chunk_bytes = 2 * 500 * 32 * 8
    def config(replicas: int) -> ClusterConfig:
        return ClusterConfig(
            num_rows=32_000, embedding_dim=32, chunk_size=500,
            replicas=replicas, resident_bytes=10 * chunk_bytes,
            disk_bandwidth=2e8,
        )

    # --- routing policies on the hot-chunk-skewed workload ----------------
    num_requests = 300 if args.quick else 1_500
    total_chunks = config(4).total_chunks
    requests = skewed_workload(
        num_requests=num_requests, num_topics=8, chunks_per_topic=8,
        total_chunks=total_chunks, rate=150.0, seed=11,
    )
    rows = []
    for policy in ("round_robin", "least_backlog", "cache_affinity"):
        metrics = ClusterSim(config(4), policy=policy).run(requests)
        rows.append([
            policy,
            format_percent(metrics.chunk_hit_rate),
            f"{metrics.latency_percentile(50) * 1e3:.3f} ms",
            f"{metrics.latency_percentile(95) * 1e3:.3f} ms",
            f"{metrics.throughput():,.0f}/s",
        ])
    print(format_table(
        ["policy", "chunk hit-rate", "p50", "p95", "throughput"],
        rows,
        title=(
            f"Routing over 4 replicas, Zipf-skewed topics "
            f"({num_requests} requests, 10-chunk LRU per replica)"
        ),
    ))

    print()
    # --- autoscaler vs static fleet under a flash crowd -------------------
    duration = 21.0 if args.quick else 30.0
    trace = burst_trace(
        duration=duration, base_rate=20.0, burst_rate=300.0,
        burst_start=duration / 3, burst_duration=duration / 3,
    )
    burst_requests = requests_from_trace(
        trace, num_topics=8, chunks_per_topic=8,
        total_chunks=total_chunks, deadline=0.10, seed=23,
    )
    scale_rows = []
    for label, autoscaler in (
        ("static", None),
        ("autoscaled", Autoscaler(AutoscalerConfig(
            min_replicas=2, max_replicas=10,
            high_watermark=3.0, low_watermark=0.5,
            scale_up_cooldown=1.0, scale_down_cooldown=8.0,
        ))),
    ):
        metrics = ClusterSim(
            config(2), policy="least_backlog",
            autoscaler=autoscaler, tick_interval=0.5,
        ).run(burst_requests)
        scale_rows.append([
            label,
            str(metrics.timed_out),
            format_percent(metrics.timeout_rate),
            f"{metrics.mean_replicas():.2f}",
            str(len(metrics.decisions)),
        ])
    print(format_table(
        ["fleet", "timeouts", "timeout rate", "mean replicas", "decisions"],
        scale_rows,
        title=(
            f"Flash crowd 20→300 rps ({len(burst_requests)} requests, "
            "100 ms deadline, floor 2 replicas)"
        ),
    ))


def _cmd_docqa(args: argparse.Namespace) -> None:
    from .batching.batcher import form_batches
    from .cluster import ClusterConfig, ClusterSim
    from .core.config import BatchConfig
    from .docqa import (
        default_docqa_configs,
        docqa_workload,
        generate_queries,
        sweep_docqa_configs,
        synthetic_corpus,
        to_cluster_requests,
    )

    num_docs = 8 if args.quick else 16
    rows_per_doc = 16 if args.quick else 64
    num_queries = 16 if args.quick else 48
    corpus = synthetic_corpus(
        num_docs=num_docs, rows_per_doc=rows_per_doc, max_words=8, seed=3
    )
    queries, qrels = generate_queries(corpus, num_queries=num_queries, seed=5)

    # --- retrieval quality: exact vs top-k vs early exit ------------------
    evaluations = sweep_docqa_configs(
        corpus, queries, qrels, default_docqa_configs(nprobe=4), k=4
    )
    rows = []
    for name, ev in evaluations.items():
        rows.append([
            name,
            f"{ev.recall_at_k:.3f}",
            f"{ev.mrr:.3f}",
            format_percent(ev.span_hit_rate),
            f"{ev.mean_attention_mass:.3f}",
            f"{ev.mean_hops:.2f}",
            format_percent(ev.mean_candidate_fraction),
        ])
    print(format_table(
        ["config", "recall@4", "MRR", "span hit", "attn mass", "mean hops",
         "rows examined"],
        rows,
        title=(
            f"Document-QA qrels sweep — {corpus.num_docs} docs x "
            f"{rows_per_doc} rows, {len(queries)} queries, "
            "supporting spans (relevance 2)"
        ),
    ))

    print()
    # --- traffic shape: session bursts vs uniform arrivals ----------------
    questions_per_session = 4
    session_rate = 20.0
    policy = BatchConfig(max_batch_size=8, max_wait=0.02)
    sessioned = docqa_workload(
        queries, session_rate=session_rate,
        questions_per_session=questions_per_session,
        intra_session_gap=0.002,
        num_sessions=12 if args.quick else 32, seed=11,
    )
    uniform = docqa_workload(
        queries, session_rate=session_rate * questions_per_session,
        questions_per_session=1, num_sessions=len(sessioned), seed=11,
    )
    shape_rows = []
    for label, stream in (("sessioned", sessioned), ("uniform", uniform)):
        batches = form_batches(stream, policy)
        fill = sum(b.size for b in batches) / (
            len(batches) * policy.max_batch_size
        )
        shape_rows.append([
            label,
            str(len(stream)),
            str(len(batches)),
            format_percent(fill),
            f"{sum(b.size for b in batches) / len(batches):.2f}",
        ])
    print(format_table(
        ["arrivals", "requests", "batches", "batch fill", "mean size"],
        shape_rows,
        title=(
            f"Session traffic through the batcher — "
            f"{questions_per_session} questions/session at "
            f"{session_rate:g} sessions/s (batch cap "
            f"{policy.max_batch_size}, 20 ms wait)"
        ),
    ))

    print()
    # --- document locality through cache-affinity routing -----------------
    chunk_size = 8
    chunk_bytes = 2 * chunk_size * 32 * 8
    cluster_stream = docqa_workload(
        queries, session_rate=150.0,
        questions_per_session=questions_per_session,
        num_sessions=75 if args.quick else 250, seed=19,
    )
    config = ClusterConfig(
        num_rows=corpus.num_rows, embedding_dim=32, chunk_size=chunk_size,
        replicas=4, resident_bytes=3 * rows_per_doc // chunk_size * chunk_bytes,
        disk_bandwidth=2e8,
    )
    requests = to_cluster_requests(
        cluster_stream, corpus, chunk_size=chunk_size,
        total_chunks=config.total_chunks,
    )
    routing_rows = []
    for routing in ("round_robin", "cache_affinity"):
        metrics = ClusterSim(config, policy=routing).run(requests)
        routing_rows.append([
            routing,
            format_percent(metrics.chunk_hit_rate),
            f"{metrics.latency_percentile(50) * 1e3:.3f} ms",
            f"{metrics.latency_percentile(95) * 1e3:.3f} ms",
        ])
    print(format_table(
        ["policy", "chunk hit-rate", "p50", "p95"],
        routing_rows,
        title=(
            f"Document-affine sessions over 4 replicas "
            f"({len(requests)} requests, docs span "
            f"{rows_per_doc // chunk_size} chunks, 3-doc LRU per replica)"
        ),
    ))


def _cmd_accuracy(args: argparse.Namespace) -> None:
    task_ids = (1, 4, 15, 20) if args.quick else tuple(range(1, 21))
    rows = [
        [r.task_id, r.name, format_percent(r.train_accuracy),
         format_percent(r.test_accuracy)]
        for r in accuracy_table(task_ids=task_ids, train_examples=350, epochs=30)
    ]
    print(format_table(
        ["task", "name", "train acc", "test acc"],
        rows,
        title="Per-task MemN2N accuracy (substrate validation)",
    ))


EXPERIMENTS: dict[str, tuple[str, Callable[[argparse.Namespace], None]]] = {
    "table1": ("Table 1 — evaluation configurations", _cmd_table1),
    "fig3": ("Fig. 3 — memory-bandwidth scalability limits", _cmd_fig3),
    "fig4": ("Fig. 4 — embedding/inference cache contention", _cmd_fig4),
    "fig6": ("Fig. 6 — attention sparsity (trains a model)", _cmd_fig6),
    "fig7": ("Fig. 7 — zero-skipping tradeoff (trains models)", _cmd_fig7),
    "fig9": ("Fig. 9 — CPU performance of MnnFast", _cmd_fig9),
    "fig10": ("Fig. 10 — CPU scalability per algorithm", _cmd_fig10),
    "fig11": ("Fig. 11 — off-chip memory accesses", _cmd_fig11),
    "fig12": ("Fig. 12 — GPU stream / multi-GPU scaling", _cmd_fig12),
    "fig13": ("Fig. 13 — FPGA latency breakdown", _cmd_fig13),
    "fig14": ("Fig. 14 — embedding-cache effectiveness", _cmd_fig14),
    "energy": ("§5.5 — CPU vs FPGA energy efficiency", _cmd_energy),
    "serving": ("§2.2.3 — overload serving with graceful degradation",
                _cmd_serving),
    "sharded": ("§3.1 scale-out — sharded attention exact-merge check",
                _cmd_sharded),
    "parallel": ("§3.1 execution backend — float64 reference vs the "
                 "float32 default, process and fused: wall-clock sweep",
                 _cmd_parallel),
    "batching": ("§5 nq amortization — continuous batching sweep",
                 _cmd_batching),
    "store": ("out-of-core memory store — tiered RAM/disk streaming check",
              _cmd_store),
    "topk": ("sublinear top-k retrieval tier — recall/agreement sweep",
             _cmd_topk),
    "earlyexit": ("confidence-gated early exit — hop savings vs agreement",
                  _cmd_earlyexit),
    "cluster": ("cluster serving — affinity routing + backlog autoscaling",
                _cmd_cluster),
    "docqa": ("document-QA workload — qrels retrieval quality sweep",
              _cmd_docqa),
    "accuracy": ("per-task MemN2N accuracy (trains 20 models)", _cmd_accuracy),
}

#: Experiments cheap enough for ``repro all`` to run by default.
_FAST = ("table1", "fig3", "fig9", "fig10", "fig11", "fig12", "fig13",
         "fig14", "energy", "serving", "sharded", "parallel", "batching",
         "store", "topk", "earlyexit", "cluster", "docqa")


def _cmd_list(args: argparse.Namespace) -> None:
    print("Available experiments:")
    for name, (description, _) in EXPERIMENTS.items():
        print(f"  {name:8s} {description}")
    print("  all      every fast experiment (add --trained for fig6/fig7)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the MnnFast paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see `repro list`), 'all', or 'list'",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink training budgets for fig6/fig7",
    )
    parser.add_argument(
        "--trained", action="store_true",
        help="with 'all': also run the experiments that train models",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        _cmd_list(args)
        return 0
    if args.experiment == "all":
        names = list(_FAST) + (["fig6", "fig7"] if args.trained else [])
        for name in names:
            print(f"\n=== {name}: {EXPERIMENTS[name][0]} ===")
            EXPERIMENTS[name][1](args)
        return 0
    if args.experiment not in EXPERIMENTS:
        parser.error(
            f"unknown experiment {args.experiment!r}; try `repro list`"
        )
    EXPERIMENTS[args.experiment][1](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
