"""Confidence-gated early exit: per-question adaptive hop depth.

A MemNN runs ``u_{k+1} = u_k + o_k`` for a *fixed* number of hops, but
A2P-MANN shows per-question hop pruning preserves accuracy while
cutting work, and MnnFast's own zero-skipping data (§3.2, Fig. 6)
proves the attention vector of a trained MANN is peaked enough to read
confidence from.  This module holds the two confidence signals the
gate can read after a hop and the :class:`HopTrace` record every
answer pass emits (surfaced through ``tier_stats()["hops"]``).

**Confidence semantics** (see
:class:`~repro.core.config.EarlyExitConfig`): a question exits after
hop ``k`` when its confidence reaches ``1 - threshold``, so the
threshold is the pruning *aggressiveness* — exit sets are nested in
it, which makes exit depth monotone non-increasing in the threshold
(the property the serving degradation lever relies on).

**Metrics:**

* ``logit_margin`` — softmax margin (top-1 minus top-2 probability)
  of the answer layer applied to the *extrapolated terminal state*
  ``u_k + remaining * o_k``.  The recurrence adds one attention
  readout per hop; once the attention has locked onto its rows, each
  remaining hop adds approximately the same ``o_k`` again, so the
  extrapolation previews where the full-depth state is heading.  A
  wide margin there means running the remaining hops cannot flip the
  argmax — exactly the agreement-with-full-depth guarantee the bench
  holds.  Cost ``O(nq * num_answers * ed)``, independent of ``ns``.
* ``attention_mass`` — the top-``k`` mass of the attention
  distribution the *next* hop would produce, ``softmax(u . M_IN^T)``.
  This is Fig. 6's concentration read directly: mass near 1 means the
  next readout is determined by a handful of rows the state has
  already absorbed.  It pays a full ``O(nq * ns * ed)`` scoring pass
  per check, so it is the analysis metric, not the production one.

Both signals are **row-independent over the question axis**: a
question's confidence depends only on its own row of ``u``/``o``, so
retiring exited rows between hops never perturbs the survivors (the
property suite pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import softmax

__all__ = [
    "HopTrace",
    "logit_margin_confidence",
    "attention_mass_confidence",
    "EXIT_FULL_DEPTH",
    "EXIT_CONFIDENCE",
]

#: Exit reason: the question ran every configured hop.
EXIT_FULL_DEPTH = "full_depth"
#: Exit reason: the question cleared the confidence gate early.
EXIT_CONFIDENCE = "confidence"


def logit_margin_confidence(
    u: np.ndarray,
    last_output: np.ndarray,
    remaining_hops: int,
    answer_weight: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Softmax margin of the extrapolated terminal answer logits.

    Args:
        u: ``(nq, ed)`` state *after* the hop just run.
        last_output: ``(nq, ed)`` the hop's attention readout ``o_k``.
        remaining_hops: hops left if the question does not exit.
        answer_weight: ``(num_answers, ed)`` final FC layer ``W``.
        out: optional ``(nq, num_answers)`` array that receives the
            extrapolated logits.  A question that exits on this check
            stops at exactly the state they were projected from, so
            they are its final answer logits — the engine keeps them
            instead of projecting that state a second time.

    Returns:
        ``(nq,)`` confidence in ``[0, 1]`` — top-1 minus top-2 softmax
        probability of ``(u + remaining * o_k) @ W^T``.  With a single
        answer class the margin is defined as 1 (nothing to flip).
    """
    projected = u + remaining_hops * last_output
    logits = np.matmul(projected, answer_weight.T, out=out)
    if logits.shape[1] < 2:
        return np.ones(len(logits))
    probabilities = softmax(logits)
    top2 = np.partition(probabilities, -2, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0]


def attention_mass_confidence(
    u: np.ndarray,
    m_in: np.ndarray,
    top_k: int,
) -> np.ndarray:
    """Top-``k`` attention-mass concentration of the next hop.

    Args:
        u: ``(nq, ed)`` state after the hop just run (the next hop's
            input).
        m_in: ``(ns, ed)`` input memory the next hop would attend over,
            scored in its own dtype (``u`` is narrowed, never it widened).
        top_k: rows whose mass counts as "concentrated".

    Returns:
        ``(nq,)`` confidence in ``(0, 1]`` — the softmax mass the
        ``top_k`` highest-probability rows carry.  With ``ns <= top_k``
        every row is in the top set and the confidence is exactly 1.
    """
    probabilities = softmax(np.asarray(u, dtype=m_in.dtype) @ m_in.T)
    k = min(top_k, probabilities.shape[1])
    top = np.partition(probabilities, -k, axis=1)[:, -k:]
    return top.sum(axis=1)


@dataclass
class HopTrace:
    """What the confidence gate did during one answer pass.

    Emitted by every :meth:`~repro.core.engine.MnnFastEngine.answer`
    call (gate enabled or not) and surfaced through
    ``tier_stats()["hops"]``.

    Attributes:
        threshold: the gate's pruning aggressiveness (0 = disabled).
        metric: confidence metric the gate read.
        hops_configured: hops a full-depth pass would run.
        hops_run: ``(nq,)`` int — hops each question actually ran.
        exit_reason: per-question :data:`EXIT_FULL_DEPTH` or
            :data:`EXIT_CONFIDENCE`.
        confidence: one ``(nq,)`` array per gate check (after hops
            ``min_hops - 1 .. hops - 2``, in hop order); ``NaN`` marks
            questions already retired when the check ran.  Empty when
            the gate is disabled (no checks run).
    """

    threshold: float
    metric: str
    hops_configured: int
    hops_run: np.ndarray
    exit_reason: list[str]
    confidence: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def full_depth(
        cls, num_questions: int, hops: int, threshold: float = 0.0,
        metric: str = "logit_margin",
    ) -> "HopTrace":
        """The trace of a pass where every question ran every hop."""
        return cls(
            threshold=threshold,
            metric=metric,
            hops_configured=hops,
            hops_run=np.full(num_questions, hops, dtype=np.intp),
            exit_reason=[EXIT_FULL_DEPTH] * num_questions,
        )

    @property
    def num_questions(self) -> int:
        return len(self.hops_run)

    @property
    def num_exited(self) -> int:
        """Questions that left before the last configured hop."""
        return int(np.sum(self.hops_run < self.hops_configured))

    @property
    def mean_hops(self) -> float:
        return float(np.mean(self.hops_run)) if len(self.hops_run) else 0.0

    @property
    def hops_saved_fraction(self) -> float:
        """Fraction of the full-depth hop budget the gate skipped."""
        full = self.num_questions * self.hops_configured
        if full == 0:
            return 0.0
        return 1.0 - float(np.sum(self.hops_run)) / full

    def depth_histogram(self) -> dict[int, int]:
        """``{hops_run: question count}`` — the serving cost model's
        expected depth histogram, measured."""
        depths, counts = np.unique(self.hops_run, return_counts=True)
        return {int(d): int(c) for d, c in zip(depths, counts)}

    def question(self, index: int) -> "HopTrace":
        """The single-question view of this trace (for the per-question
        :class:`~repro.core.engine.AnswerResult` views of a batch)."""
        return HopTrace(
            threshold=self.threshold,
            metric=self.metric,
            hops_configured=self.hops_configured,
            hops_run=self.hops_run[index : index + 1].copy(),
            exit_reason=[self.exit_reason[index]],
            confidence=[c[index : index + 1].copy() for c in self.confidence],
        )
