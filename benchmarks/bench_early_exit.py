"""Extension bench: confidence-gated early exit.

On the calibrated topical workload
(:func:`repro.analysis.early_exit_workload`, the locked-attention
regime where the gate's terminal-state extrapolation is sound), the
batched engine's wall-clock throughput rises with the gate threshold
while argmax answer agreement with the full-depth engine stays high.
Acceptance: some swept threshold reaches **>= 1.3x** batched throughput
at **>= 0.98** agreement.  A serving-model p99 column rides along: each
threshold's ``QaServer.run`` simulation at a fixed offered load, where
ragged-depth batches charge each hop at the members still running
(exits sampled per member).

The speed-up floor is wall-clock and stays here.  The deterministic
claims live in tier-1 (``tests/test_early_exit.py``): the agreement
floor in ``test_sweep_quick_smoke``, and the overload claim (under 2x
saturation the exit-armed server sheds hops before requests) in
``TestOverload``.
"""

import time

import numpy as np

from repro.analysis import early_exit_workload
from repro.core import EngineConfig, MemNNConfig, MnnFastEngine
from repro.report import format_table
from repro.serving import (
    QaServer,
    QuestionRequest,
    ServerConfig,
    generate_workload,
)

#: Gate thresholds swept (0 = disabled, the full-depth reference).
THRESHOLDS = (0.0, 0.02, 0.05, 0.1, 0.2, 0.4)
NS, NQ = 8_192, 256
ED, NW, VOCAB, HOPS = 32, 8, 500, 4
REPEATS = 5

#: The ISSUE 7 acceptance point: some threshold must hold both at once.
AGREEMENT_FLOOR = 0.98
SPEEDUP_FLOOR = 1.3

#: Serving-model sweep: batched service at a fixed offered load.
SERVE_WORKERS = 4
SERVE_BATCH = 8
SERVE_DURATION = 0.15


def _best_of(fn):
    """Min wall-clock seconds over REPEATS after one warm-up call."""
    fn()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _serving_network() -> MemNNConfig:
    return MemNNConfig(
        embedding_dim=48, num_sentences=20_000, num_questions=1,
        vocab_size=30_000, hops=HOPS,
    )


def _serving_config(exit_threshold: float) -> ServerConfig:
    return ServerConfig(
        network=_serving_network(),
        engine=EngineConfig.mnnfast()
        .with_batching(SERVE_BATCH, max_wait=1e-3)
        .with_early_exit(exit_threshold),
        workers=SERVE_WORKERS,
    )


def _serving_rate() -> float:
    """Offered load that saturates the full-depth batched pool."""
    server = QaServer(_serving_config(0.0))
    per_question = (
        server.inference_seconds(batch_size=SERVE_BATCH) / SERVE_BATCH
        + server.question_embed_seconds(QuestionRequest(arrival=0.0, words=6))
    )
    return 1.1 * SERVE_WORKERS / per_question


def _engine_sweep():
    """Wall-clock + agreement per threshold on the shared workload."""
    config = MemNNConfig(
        embedding_dim=ED, num_sentences=NS, num_questions=NQ,
        vocab_size=VOCAB, max_words=NW, hops=HOPS,
    )
    weights, stories, questions = early_exit_workload(config, NQ)
    base = EngineConfig()
    rate = _serving_rate()

    def engine_at(threshold: float) -> MnnFastEngine:
        engine = MnnFastEngine(
            config, weights=weights,
            engine_config=base.with_early_exit(threshold),
        )
        engine.store_story(stories)
        return engine

    full_engine = engine_at(0.0)
    full = full_engine.answer(questions)

    points = []
    for threshold in THRESHOLDS:
        engine = engine_at(threshold)
        result = engine.answer(questions)
        # The reference is re-timed beside every point: the host drifts
        # by more than the speed-up between the start of a sweep and its end.
        full_seconds = _best_of(lambda: full_engine.answer(questions))
        seconds = _best_of(lambda: engine.answer(questions))

        # Serving model: batched service at the same offered load for
        # every threshold — p99 falls as the gate sheds hops.
        workload = generate_workload(
            question_rate=rate, story_rate=0.0,
            duration=SERVE_DURATION, seed=7,
        )
        metrics = QaServer(_serving_config(threshold), seed=9).run(
            workload
        )

        points.append({
            "threshold": threshold,
            "throughput_qps": NQ / seconds,
            "speedup_vs_full": full_seconds / seconds,
            "agreement": float(np.mean(result.answer_ids == full.answer_ids)),
            "mean_hops": result.hop_trace.mean_hops,
            "serve_p99_ms": metrics.latency_percentile(99) * 1e3,
            "serve_hops_saved_fraction": metrics.hops_saved_fraction,
        })
    return points


def test_early_exit_throughput_at_agreement_floor(benchmark, report):
    sweep = benchmark.pedantic(_engine_sweep, iterations=1, rounds=1)

    report(format_table(
        ["threshold", "mean hops", "agree", "speedup", "throughput",
         "serve p99", "serve hops saved"],
        [
            [
                f"{p['threshold']:g}",
                f"{p['mean_hops']:.2f} / {HOPS}",
                f"{p['agreement']:.3f}",
                f"{p['speedup_vs_full']:.2f}x",
                f"{p['throughput_qps']:,.0f}/s",
                f"{p['serve_p99_ms']:.2f} ms",
                f"{p['serve_hops_saved_fraction']:.0%}",
            ]
            for p in sweep
        ],
        title=(
            f"Early-exit threshold sweep (ns={NS:,}, {NQ} questions, "
            f"{HOPS} hops, logit-margin gate)"
        ),
    ))
    qualifying = [
        p for p in sweep
        if p["agreement"] >= AGREEMENT_FLOOR
        and p["speedup_vs_full"] >= SPEEDUP_FLOOR
    ]
    best = max(
        qualifying, key=lambda p: p["speedup_vs_full"], default=None
    )

    if best is not None:
        benchmark.extra_info["best_speedup"] = round(best["speedup_vs_full"], 3)
        benchmark.extra_info["best_agreement"] = best["agreement"]

    # Acceptance: some threshold clears both floors at once.
    assert best is not None, (
        f"no swept threshold reached >= {SPEEDUP_FLOOR}x at agreement "
        f">= {AGREEMENT_FLOOR}: "
        + ", ".join(
            f"th={p['threshold']:g} {p['speedup_vs_full']:.2f}x@"
            f"{p['agreement']:.3f}"
            for p in sweep
        )
    )
