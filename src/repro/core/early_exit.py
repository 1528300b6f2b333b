"""Confidence-gated early exit: per-question adaptive hop depth.

A MemNN runs ``u_{k+1} = u_k + o_k`` for a *fixed* number of hops, but
A2P-MANN shows per-question hop pruning preserves accuracy while
cutting work, and MnnFast's own zero-skipping data (§3.2, Fig. 6)
proves the attention vector of a trained MANN is peaked enough to read
confidence from.  This module holds the confidence signal the gate
reads after a hop and the :class:`HopTrace` record every answer pass
emits (surfaced through ``tier_stats()["hops"]``).

**Confidence semantics** (see
:class:`~repro.core.config.EarlyExitConfig`): a question exits after
hop ``k`` when its confidence reaches ``1 - threshold``, so the
threshold is the pruning *aggressiveness* — exit sets are nested in
it, which makes exit depth monotone non-increasing in the threshold
(the property the serving degradation lever relies on).

**The signal** is the softmax margin (top-1 minus top-2 probability)
of the answer layer applied to the *extrapolated terminal state*
``u_k + remaining * o_k``.  The recurrence adds one attention readout
per hop; once the attention has locked onto its rows, each remaining
hop adds approximately the same ``o_k`` again, so the extrapolation
previews where the full-depth state is heading.  A wide margin there
means running the remaining hops cannot flip the argmax — exactly the
agreement-with-full-depth guarantee the tests hold.  Cost
``O(nq * num_answers * ed)``, independent of ``ns``.

The signal is **row-independent over the question axis**: a question's
confidence depends only on its own row of ``u``/``o``, so retiring
exited rows between hops never perturbs the survivors (the property
suite pins this).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from . import compiled_fold
from .column import exp_floor

__all__ = [
    "AnswerLayer",
    "HopTrace",
    "logit_margin_confidence",
    "EXIT_FULL_DEPTH",
    "EXIT_CONFIDENCE",
]

#: Exit reason: the question ran every configured hop.
EXIT_FULL_DEPTH = "full_depth"
#: Exit reason: the question cleared the confidence gate early.
EXIT_CONFIDENCE = "confidence"

#: Answers per panel of a packed ``W`` (``_fold.c``'s ``LANES``).
PANEL = 16


class AnswerLayer:
    """The answer layer ``W`` as an engine multiplies it, in the storage
    dtype: the projection ``u @ W^T`` and the gate's softmax margin of
    it (DESIGN.md §10, "The answer layer").

    As with the fold, the dtype and the library decide: a float32 ``W``
    with the compiled library is held only as 16-answer panels, packed
    here, and ``_fold.c``'s ``repro_answer`` computes each logit as one
    k-ordered FMA chain -- a row's logits are the same alone or in any
    batch -- and the margin in the same call.  Otherwise ``W`` is held
    column-major and ``u @ W.T`` and the NumPy margin run: the referee.
    """

    def __init__(self, weight: np.ndarray, dtype=None) -> None:
        self.dtype = np.dtype(weight.dtype if dtype is None else dtype)
        self.num_answers, ed = weight.shape
        library = compiled_fold.kernels() if self.dtype == np.float32 else None
        self.weight = self.packed = None
        # (The compiled argmax counts answers in int32.)
        if library is None or not 0 < self.num_answers < 2**31:
            self.weight = (
                weight if weight.dtype == self.dtype
                else weight.astype(self.dtype, order="F")
            )  # fmt: skip
            return
        # Panels zero-padded to a multiple of 4, written in place from
        # W^T (a view of the engine's column-major W): no second copy of
        # W is ever made.
        whole, tail = divmod(self.num_answers, PANEL)
        panels = -(-self.num_answers // (4 * PANEL)) * 4
        self.packed = np.empty((panels, ed, PANEL), np.float32)
        columns = weight.T
        np.copyto(
            self.packed[:whole],
            columns[:, : whole * PANEL].reshape(ed, whole, PANEL).transpose(1, 0, 2),
        )
        self.packed[whole:] = 0
        if tail:
            self.packed[whole, :, :tail] = columns[:, whole * PANEL :]
        self._state = compiled_fold.AnswerState(
            self.num_answers, ed, panels, self.packed.ctypes.data,
            float(exp_floor(self.dtype)),
        )  # fmt: skip
        # Per call only the questions' and outputs' pointers are taken:
        # the glue must cost no more than the ``u @ W.T`` it replaces.
        self._kernel, self._at = library.repro_answer, ctypes.addressof(self._state)

    def project(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(logits, answer ids)`` of the ``(nq, ed)`` states ``u``:
        ``u`` narrowed to ``W``'s dtype times ``W^T``, widened to
        float64, and each row's argmax."""
        if self.packed is None:
            logits = u.astype(self.dtype, copy=False) @ self.weight.T
            logits = logits.astype(np.float64, copy=False)
            return logits, logits.argmax(axis=1)
        logits = np.empty((len(u), self.num_answers))
        top = np.empty(len(u), np.intp)
        # The capsules stay referenced until the call returns: each owns
        # the struct its pointer addresses.
        u_s, logits_s, top_s = (
            u.__array_struct__, logits.__array_struct__, top.__array_struct__
        )  # fmt: skip
        status = self._kernel(
            self._at, _pointer(u_s, None), _pointer(logits_s, None),
            _pointer(top_s, None), None,
        )  # fmt: skip
        if status:
            raise ValueError(compiled_fold.ANSWER_ERRORS[status])
        return logits, top

    def margin(self, states: np.ndarray, logits: np.ndarray) -> np.ndarray:
        """The softmax margin of each row of ``states`` (see
        :func:`logit_margin_confidence`), its logits written into the
        ``(nq, num_answers)`` array ``logits`` of ``W``'s dtype."""
        if self.packed is None:
            states = states.astype(self.dtype, copy=False)
            return _softmax_margin(np.matmul(states, self.weight.T, out=logits))
        confidence = np.empty(len(states))
        u_s, logits_s, confidence_s = (
            states.__array_struct__, logits.__array_struct__,
            confidence.__array_struct__,
        )  # fmt: skip
        status = self._kernel(
            self._at, _pointer(u_s, None), _pointer(logits_s, None), None,
            _pointer(confidence_s, None),
        )  # fmt: skip
        if status:
            raise ValueError(compiled_fold.ANSWER_ERRORS[status])
        return confidence


_pointer = compiled_fold.struct_pointer


def _softmax_margin(logits: np.ndarray) -> np.ndarray:
    """The NumPy margin of each row of ``logits``, the compiled one's
    referee: exponentials in the logits' dtype, the rest float64."""
    nq, num_answers = logits.shape
    if num_answers < 2:
        return np.ones(nq)
    rows = np.arange(nq)
    top = logits.argmax(axis=1)
    l1 = logits[rows, top]
    # The runner-up: the top entry masked, then restored bit for bit.
    logits[rows, top] = -np.inf
    l2 = logits.max(axis=1)
    logits[rows, top] = l1
    shifted = logits - l1[:, None]
    # Floored as the fold floors shifted scores: below it exp is
    # subnormal (slow, and too small to move a sum that holds e^0 = 1).
    np.maximum(shifted, exp_floor(shifted.dtype), out=shifted)
    total = np.exp(shifted, out=shifted).sum(axis=1, dtype=np.float64)
    return (1.0 - np.exp(l2 - l1.astype(np.float64))) / total


def logit_margin_confidence(
    u: np.ndarray,
    last_output: np.ndarray,
    remaining_hops: int,
    answer_weight: AnswerLayer | np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Softmax margin of the extrapolated terminal answer logits, read
    off the top two ``l1 >= l2`` as ``(1 - e^(l2 - l1)) / sum_j
    e^(l_j - l1)``: exponentials in the logits' dtype, the rest float64.

    Args:
        u: ``(nq, ed)`` state *after* the hop just run.
        last_output: ``(nq, ed)`` the hop's attention readout ``o_k``.
        remaining_hops: hops left if the question does not exit.
        answer_weight: an engine's :class:`AnswerLayer`, or the
            ``(num_answers, ed)`` final FC layer ``W`` (made into one);
            the projection runs in its dtype (the state is narrowed to it).
        out: optional ``(nq, num_answers)`` array of ``W``'s dtype that
            receives the extrapolated logits.  A question that exits on
            this check stops at exactly the state they were projected
            from, so they are its final answer logits — the engine keeps
            them instead of projecting that state a second time.

    Returns:
        ``(nq,)`` float64 confidence in ``[0, 1]`` — top-1 minus top-2
        softmax probability of ``(u + remaining * o_k) @ W^T`` (0 on a
        tie, NaN for a row holding a NaN).  With a single answer class
        the margin is defined as 1 (nothing to flip).
    """
    layer = (
        answer_weight if isinstance(answer_weight, AnswerLayer)
        else AnswerLayer(answer_weight)
    )  # fmt: skip
    if out is None:
        out = np.empty((len(u), layer.num_answers), layer.dtype)
    return layer.margin(u + remaining_hops * last_output, out)


@dataclass
class HopTrace:
    """What the confidence gate did during one answer pass.

    Emitted by every :meth:`~repro.core.engine.MnnFastEngine.answer`
    call (gate enabled or not) and surfaced through
    ``tier_stats()["hops"]``.

    Attributes:
        threshold: the gate's pruning aggressiveness (0 = disabled).
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
    hops_configured: int
    hops_run: np.ndarray
    exit_reason: list[str]
    confidence: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def full_depth(
        cls, num_questions: int, hops: int, threshold: float = 0.0
    ) -> "HopTrace":
        """The trace of a pass where every question ran every hop."""
        # Lean: this runs on every ungated answer.
        hops_run = np.empty(num_questions, np.intp)
        hops_run.fill(hops)
        return cls(threshold, hops, hops_run, [EXIT_FULL_DEPTH] * num_questions, [])

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
            hops_configured=self.hops_configured,
            hops_run=self.hops_run[index : index + 1].copy(),
            exit_reason=[self.exit_reason[index]],
            confidence=[c[index : index + 1].copy() for c in self.confidence],
        )
