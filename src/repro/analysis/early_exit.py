"""Early-exit threshold sweep: hop savings vs full-depth agreement.

The confidence gate (:mod:`repro.core.early_exit`) trades hops for
answer fidelity; this driver measures the trade on the synthetic
topical workload the top-k tier already uses, in the regime where the
gate's extrapolation is sound:

* questions revisit stored sentences, so attention locks onto a row at
  hop 1 and stays there (:func:`early_exit_workload` keeps the
  ``M_OUT`` embedding scale small so the readout never perturbs the
  attention scores enough to move the argmax row);
* the answer layer's weight scale is large enough that the softmax
  margin actually separates confident from unconfident questions.

On that workload the sweep reports, per threshold: the mean/histogram
exit depth, the fraction of the hop budget saved, and the argmax
answer agreement against the full-depth engine — the curve the
benchmark's "agreement >= 0.98 at >= 1.3x throughput" acceptance point
lives on.  Shared by ``python -m repro earlyexit`` and
``benchmarks/bench_early_exit.py`` (which adds wall-clock timing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import EngineConfig, MemNNConfig
from ..core.engine import AnswerResult, EngineWeights, MnnFastEngine
from ..index.harness import synthetic_topical_workload

__all__ = [
    "EarlyExitPoint",
    "EarlyExitSweep",
    "early_exit_workload",
    "sweep_early_exit",
]

#: The gate thresholds the experiment sweeps (0 = gate disabled).
SWEEP_THRESHOLDS = (0.0, 0.02, 0.05, 0.1, 0.2, 0.4)


def early_exit_workload(
    config: MemNNConfig,
    num_questions: int,
    num_answers: int = 50,
    seed: int = 7,
    question_scale: float = 0.5,
    output_scale: float = 0.05,
    answer_scale: float = 2.0,
) -> tuple[EngineWeights, np.ndarray, np.ndarray]:
    """Weights + topical stories/questions in the gate's sound regime.

    The decoupled scales are the point: ``output_scale`` well below
    ``question_scale`` keeps each hop's readout ``o_k`` small relative
    to the question/memory alignment, so the attention row a question
    locks onto at hop 1 survives every later hop and the gate's
    terminal-state extrapolation ``u_k + remaining * o_k`` tracks the
    true full-depth state.  ``answer_scale`` spreads the answer logits
    so the softmax margin is informative rather than uniformly tiny.

    Returns:
        ``(weights, stories, questions)`` — feed the stories through
        ``store_story`` and answer the questions.
    """
    rng = np.random.default_rng(seed)
    stories, questions = synthetic_topical_workload(
        config, num_questions, rng=rng
    )
    shape = (config.vocab_size, config.embedding_dim)
    weights = EngineWeights(
        embedding_a=rng.normal(0.0, question_scale, shape),
        embedding_c=rng.normal(0.0, output_scale, shape),
        answer_weight=rng.normal(
            0.0, answer_scale, (num_answers, config.embedding_dim)
        ),
    )
    return weights, stories, questions


@dataclass
class EarlyExitPoint:
    """One threshold's measurements against the full-depth reference."""

    threshold: float
    mean_hops: float
    hops_saved_fraction: float
    exited_fraction: float
    agreement: float
    depth_histogram: dict[int, int]
    result: AnswerResult

    @property
    def mean_confidence(self) -> float:
        """Mean confidence over every gate check that ran (NaN-free)."""
        values = [
            c[np.isfinite(c)] for c in self.result.hop_trace.confidence
        ]
        flat = np.concatenate(values) if values else np.empty(0)
        return float(flat.mean()) if len(flat) else 0.0


@dataclass
class EarlyExitSweep:
    """The full threshold sweep plus the shared full-depth reference."""

    points: list[EarlyExitPoint]
    full_depth: AnswerResult
    hops: int
    num_questions: int

    def point_at(self, threshold: float) -> EarlyExitPoint:
        for point in self.points:
            if point.threshold == threshold:
                return point
        raise KeyError(f"no point at threshold {threshold}")


def sweep_early_exit(
    config: MemNNConfig | None = None,
    num_questions: int = 128,
    thresholds: tuple[float, ...] = SWEEP_THRESHOLDS,
    engine_config: EngineConfig | None = None,
    seed: int = 7,
) -> EarlyExitSweep:
    """Sweep the gate threshold on the calibrated topical workload.

    Every point shares weights, memories and questions with the
    full-depth reference (``engine_config`` with the gate disabled),
    so the agreement column isolates the gate's approximation — the
    same differential structure ``compare_topk_vs_exact`` uses for the
    retrieval tier.
    """
    if config is None:
        config = MemNNConfig(
            embedding_dim=32, num_sentences=2_000, max_words=8,
            vocab_size=500, hops=4,
        )
    base = engine_config if engine_config is not None else EngineConfig()
    weights, stories, questions = early_exit_workload(
        config, num_questions, seed=seed
    )

    def run(cfg: EngineConfig) -> AnswerResult:
        engine = MnnFastEngine(config, weights=weights, engine_config=cfg)
        engine.store_story(stories)
        return engine.answer(questions)

    full = run(base.with_early_exit(0.0))
    points = []
    for threshold in thresholds:
        result = run(base.with_early_exit(threshold))
        trace = result.hop_trace
        points.append(
            EarlyExitPoint(
                threshold=threshold,
                mean_hops=trace.mean_hops,
                hops_saved_fraction=trace.hops_saved_fraction,
                exited_fraction=trace.num_exited / trace.num_questions,
                agreement=float(
                    np.mean(result.answer_ids == full.answer_ids)
                ),
                depth_histogram=trace.depth_histogram(),
                result=result,
            )
        )
    return EarlyExitSweep(
        points=points,
        full_depth=full,
        hops=config.hops,
        num_questions=num_questions,
    )
