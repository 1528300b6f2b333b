"""Command-line interface: regenerate any paper experiment.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig13                # one experiment
    python -m repro fig7 --quick         # smaller training budget
    python -m repro all                  # every model-based experiment

Each command prints the same paper-vs-measured tables the benchmark
harness produces; ``--quick`` shrinks the trained experiments' budgets
(fig6, fig7), serving's arrival window and accuracy's task list.  The
extension benches (sharding, stores, top-k, early exit, batching,
cluster, document QA) print their tables from ``benchmarks/`` only:
``python -m pytest benchmarks/bench_<name>.py -q -s``.
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
    "accuracy": ("per-task MemN2N accuracy (trains 20 models)", _cmd_accuracy),
}

#: Experiments cheap enough for ``repro all`` to run by default.
_FAST = ("table1", "fig3", "fig9", "fig10", "fig11", "fig12", "fig13",
         "fig14", "energy", "serving")


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
        help="smaller runs: fig6/fig7 training budgets, serving's "
        "arrival window, accuracy's task list",
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
