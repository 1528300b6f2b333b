"""Zero-skipping masks (§3.2).

The probability vector produced by the input memory representation is
extremely sparse (Fig. 6): only the few story sentences related to the
question carry non-negligible weight.  Zero-skipping bypasses the
weighted-sum work for rows below a threshold: after the softmax, rows
with ``p_i < th_skip`` are skipped (§4.1.1).  :func:`probability_mode_mask`
is that exact rule, in log space so it never overflows; it needs the
full softmax denominator.

The column-based algorithm knows the softmax denominator only after
its last chunk, so its single-pass rule decides against the *running*
denominator, on the exponentials it is summing anyway — the on-the-fly
compare of the FPGA datapath (§4.2).  That rule lives in
:meth:`repro.core.column.TileState.fold` (a running sum never exceeds
the final one, so it skips a subset of what
:func:`probability_mode_mask` — the referee, behind
:class:`~repro.core.baseline.BaselineMemNN` — would).

A mask value of ``True`` means *keep the row*.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "probability_mode_mask",
    "reduction_ratio",
]


def _log_threshold(threshold: float) -> float:
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    return math.log(threshold) if threshold > 0.0 else -math.inf


def probability_mode_mask(scores: np.ndarray, threshold: float) -> np.ndarray:
    """CPU-style mask: keep rows with softmax probability >= threshold.

    Args:
        scores: ``(nq, ns)`` raw inner-product scores.
        threshold: probability cutoff (paper uses 0.1 on CPU).
    """
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    log_denom = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    log_p = shifted - log_denom
    return log_p >= _log_threshold(threshold)


def reduction_ratio(mask: np.ndarray) -> float:
    """Fraction of the weighted-sum work removed by a keep-mask."""
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return 0.0
    return 1.0 - (float(np.count_nonzero(mask)) / mask.size)
