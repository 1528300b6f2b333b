"""Zero-skipping masks (§3.2).

The probability vector produced by the input memory representation is
extremely sparse (Fig. 6): only the few story sentences related to the
question carry non-negligible weight.  Zero-skipping bypasses the
weighted-sum work for rows below a threshold.

Two placements exist in the paper:

* **probability mode** (CPU/GPU, §4.1.1): after the softmax, rows with
  ``p_i < th_skip`` are skipped.  Exact, but requires the full softmax
  denominator.
* **exp mode** (FPGA, §4.2): the raw exponential ``e^{u . m_i}`` is
  compared against ``th_skip`` on the fly, before the lazy softmax
  division is known.

All comparisons here happen in log space, which makes them exact and
overflow-free even when the raw exponentials would not be representable
— this is the reproduction's numerically robust equivalent of the
hardware comparator.

The column-based algorithm knows the softmax denominator only after
its last chunk, so its single-pass probability rule decides against the
*running* denominator, on the exponentials it is summing anyway: that
rule lives in :meth:`repro.core.column.TileState.fold` (a running sum
never exceeds the final one, so it skips a subset of what
:func:`probability_mode_mask` — the referee, behind
:class:`~repro.core.baseline.BaselineMemNN` — would).

A mask value of ``True`` means *keep the row*.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "exp_mode_mask",
    "probability_mode_mask",
    "reduction_ratio",
]


def _log_threshold(threshold: float) -> float:
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    return math.log(threshold) if threshold > 0.0 else -math.inf


def exp_mode_mask(scores: np.ndarray, threshold: float) -> np.ndarray:
    """FPGA-style mask: keep rows with ``e^{score} >= threshold``.

    Evaluated as ``score >= log(threshold)`` so enormous scores never
    overflow. A threshold of 0 keeps every row.
    """
    return np.asarray(scores) >= _log_threshold(threshold)


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
