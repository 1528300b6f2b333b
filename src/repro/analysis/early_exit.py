"""The calibrated workload the early-exit gate is measured on.

The confidence gate (:mod:`repro.core.early_exit`) trades hops for
answer fidelity.  :func:`early_exit_workload` builds the synthetic
topical workload the top-k tier already uses, in the regime where the
gate's extrapolation is sound:

* questions revisit stored sentences, so attention locks onto a row at
  hop 1 and stays there (the ``M_OUT`` embedding scale stays small so
  the readout never perturbs the attention scores enough to move the
  argmax row);
* the answer layer's weight scale is large enough that the softmax
  margin actually separates confident from unconfident questions.

``benchmarks/bench_early_exit.py`` sweeps the gate threshold on it
(hops saved and agreement with the full-depth engine against
wall-clock throughput); ``tests/test_early_exit.py`` gates the
agreement at fixed thresholds.
"""

from __future__ import annotations

import numpy as np

from ..core.config import MemNNConfig
from ..core.engine import EngineWeights
from ..index.harness import synthetic_topical_workload

__all__ = ["early_exit_workload"]


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
