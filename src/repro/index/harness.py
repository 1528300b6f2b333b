"""The topical workload the top-k tier's quality is measured on.

The tier is approximate by design, so it is judged by answer agreement
with the exact engine and by per-hop attention-mass recall
(``TopKConfig.measure_recall``), not by 1e-10 output agreement.  Those
measures only mean something where attention concentrates:
:func:`synthetic_topical_workload` generates bAbI-style stories with
*topic* structure (sentences within a topic share anchor words) and
questions that revisit a stored sentence — the concentrated-attention
regime MnnFast's own zero-skipping data (Fig. 6) shows trained MANNs
live in.  On structureless uniform-random stories attention is
near-uniform and no sublinear retrieval scheme (nor zero-skipping) has
anything to find.
"""

from __future__ import annotations

import numpy as np

from ..core.config import MemNNConfig

__all__ = ["synthetic_topical_workload"]


def synthetic_topical_workload(
    config: MemNNConfig,
    num_questions: int,
    num_topics: int | None = None,
    anchor_words: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stories with topic structure plus questions that revisit them.

    Each story sentence belongs to one of ``num_topics`` topics and
    spends ``anchor_words`` of its ``nw`` word slots on the topic's
    shared anchor words (the rest are uniform over the vocabulary), so
    same-topic sentences embed near each other — the cluster structure
    an IVF index discovers.  Each question copies a stored sentence's
    words, so its state vector aligns with that row and the attention
    mass concentrates there (and on its topic-mates).

    ``num_topics`` defaults to ``round(sqrt(ns))`` — matching the
    index's default ``nlist`` sizing, so topics are cluster-sized at
    every scale and the probed fraction shrinks as ``ns`` grows (the
    sublinearity the benchmark measures).

    Returns:
        ``(stories, questions)`` word-ID arrays of shape ``(ns, nw)``
        and ``(num_questions, nw)``.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    ns = config.num_sentences
    nw = config.max_words
    vocab = config.vocab_size
    if num_topics is None:
        num_topics = max(1, int(round(np.sqrt(ns))))
    num_topics = min(num_topics, ns)
    if anchor_words is None:
        anchor_words = max(1, (2 * nw) // 3)
    anchor_words = min(anchor_words, nw)
    if vocab < 2:
        raise ValueError("need vocab_size >= 2 (word 0 is the pad)")

    # Word 0 is PAD (embeds to zero); draw real words from [1, vocab).
    anchors = rng.integers(1, vocab, size=(num_topics, anchor_words))
    topic = rng.integers(0, num_topics, size=ns)
    stories = rng.integers(1, vocab, size=(ns, nw))
    stories[:, :anchor_words] = anchors[topic]
    revisit = rng.integers(0, ns, size=num_questions)
    questions = stories[revisit].copy()
    return stories, questions
