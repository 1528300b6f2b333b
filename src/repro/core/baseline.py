"""Baseline MemNN inference — the step-by-step dataflow of Fig. 5(a).

The baseline computes each layer to completion before starting the
next, materializing three full ``nq x ns`` intermediates (``T_IN``,
``P_exp``, ``P``) between the inner product, softmax, and weighted sum.
At paper scale these intermediates spill to DRAM (§3.1's 800 MB / 200M
sentence example); here they are real NumPy arrays and the engine
accounts for the traffic they would generate.
"""

from __future__ import annotations

import time

import numpy as np

from ..store.base import check_dtype, check_questions
from .config import FLOAT_BYTES, ZeroSkipConfig
from .numerics import softmax
from .results import InferenceResult
from .stats import OpStats
from .zero_skip import probability_mode_mask

__all__ = ["BaselineMemNN"]


class BaselineMemNN:
    """The paper's baseline inference over fixed input/output memories.

    Args:
        m_in: ``(ns, ed)`` input memory ``M_IN`` (embedded story).
        m_out: ``(ns, ed)`` output memory ``M_OUT``.
        dtype: precision of the memories, score matrix and weighted
            sum (the softmax itself runs in float64 either way).
    """

    def __init__(
        self, m_in: np.ndarray, m_out: np.ndarray, dtype=np.float64
    ) -> None:
        dtype = check_dtype(dtype)
        m_in = np.asarray(m_in, dtype=dtype)
        m_out = np.asarray(m_out, dtype=dtype)
        if m_in.ndim != 2 or m_out.ndim != 2:
            raise ValueError("memories must be 2-D (ns, ed)")
        if m_in.shape != m_out.shape:
            raise ValueError(
                f"M_IN and M_OUT shapes differ: {m_in.shape} vs {m_out.shape}"
            )
        self.m_in = m_in
        self.m_out = m_out
        self.dtype = dtype

    @property
    def num_sentences(self) -> int:
        return self.m_in.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.m_in.shape[1]

    def scores(self, u: np.ndarray) -> np.ndarray:
        """Inner-product scores ``u x M_IN^T`` (step 1 of Fig. 5a)."""
        u = check_questions(u, self.dtype, self.embedding_dim)
        return u @ self.m_in.T

    def output(
        self,
        u: np.ndarray,
        zero_skip: ZeroSkipConfig | None = None,
        return_probabilities: bool = False,
    ) -> InferenceResult:
        """Response vectors ``o = softmax(u x M_IN) x M_OUT`` (Eq. 3).

        Args:
            u: ``(nq, ed)`` question state vectors.
            zero_skip: optional zero-skipping configuration; when
                enabled, weighted-sum terms below the threshold are
                dropped (the probability vector itself is *not*
                renormalized, matching §4.1.1).
            return_probabilities: attach the full ``(nq, ns)``
                probability matrix to the result.
        """
        start_time = time.perf_counter()
        u = check_questions(u, self.dtype, self.embedding_dim)
        nq, ed = u.shape
        ns = self.num_sentences

        t_in = u @ self.m_in.T  # (nq, ns) intermediate #1
        p = softmax(t_in)

        if zero_skip is not None and zero_skip.enabled:
            keep = probability_mode_mask(t_in, zero_skip.threshold)
            weights = np.where(keep, p, 0.0)
        else:
            keep = np.ones_like(p, dtype=bool)
            weights = p

        # Narrow the probabilities: a mixed GEMM would widen all of M_OUT.
        o = weights.astype(self.dtype, copy=False) @ self.m_out

        kept = int(np.count_nonzero(keep))
        # bytes_read reflects the actual compute dtype via nbytes; the
        # modeled spill terms keep the paper's 4-byte-float convention.
        item = FLOAT_BYTES
        stats = OpStats(
            flops=int(2 * nq * ns * ed + 3 * nq * ns + 2 * kept * ed),
            divisions=nq * ns,
            exp_calls=nq * ns,
            bytes_read=(
                2 * self.m_in.nbytes  # M_IN for inner product, M_OUT for sum
                + 3 * nq * ns * item  # re-read T_IN, P_exp, P spills
            ),
            bytes_written=3 * nq * ns * item + o.nbytes,
            intermediate_bytes=3 * nq * ns * item,
            rows_computed=kept,
            rows_skipped=nq * ns - kept,
        )
        return InferenceResult(
            output=o,
            stats=stats,
            probabilities=p if return_probabilities else None,
            elapsed_seconds=time.perf_counter() - start_time,
        )
