"""The in-RAM memory-store backend (today's arrays, behind the tier API)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import MemoryStore, check_dtype, check_pair, feature_major

__all__ = ["ResidentStore", "memory_store"]


def memory_store(
    m_in: np.ndarray | None, m_out: np.ndarray | None, store: MemoryStore | None, dtype
) -> MemoryStore:
    """How a solver receives its memory: ``store`` as given (it
    dictates the dtype), or ``(m_in, m_out)`` wrapped in a
    :class:`ResidentStore` of ``dtype`` — exactly one of the two."""
    if store is not None:
        if m_in is not None or m_out is not None:
            raise ValueError("pass either (m_in, m_out) or store=, not both")
        check_dtype(store.dtype)
        return store
    if m_in is None or m_out is None:
        raise ValueError("memories required: pass (m_in, m_out) or store=")
    return ResidentStore(m_in, m_out, dtype=dtype)


class ResidentStore:
    """``M_IN``/``M_OUT`` fully resident as NumPy arrays: ``M_IN``
    feature-major (kept when handed over that way — an engine buffer, a
    slice of one — else transposed once, here), ``M_OUT`` C-contiguous.

    This is the backend every pre-store code path used implicitly; it
    owns the dtype/layout conversion and shape validation the kernels
    used to do inline, and serves chunks as zero-copy views.
    """

    def __init__(self, m_in: np.ndarray, m_out: np.ndarray, dtype=np.float64) -> None:
        dtype = check_dtype(dtype)
        m_in = feature_major(m_in, dtype)
        m_out = np.ascontiguousarray(m_out, dtype=dtype)
        check_pair(m_in, m_out)
        self.m_in = m_in
        self.m_out = m_out

    @property
    def num_rows(self) -> int:
        return self.m_in.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.m_in.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.m_in.dtype

    @property
    def resident(self) -> bool:
        return True

    def read_chunk(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        return self.m_in[start:stop], self.m_out[start:stop]

    def read_rows(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        indices = np.asarray(indices, dtype=np.intp)
        features = self.m_in.T
        # np.take lands feature-major in one pass, but would first copy
        # a non-contiguous source (a buffer slice) whole.
        if features.flags.c_contiguous:
            return np.take(features, indices, axis=1).T, self.m_out[indices]
        return feature_major(self.m_in[indices]), self.m_out[indices]

    def select(self, indices: Sequence[int]) -> "ResidentStore":
        """An eagerly-sliced sub-store (matches the historical
        ``m_in[idx]`` shard construction: one copy at plan time, then
        contiguous zero-copy chunk reads)."""
        store = ResidentStore.__new__(ResidentStore)
        store.m_in, store.m_out = self.read_rows(indices)
        return store
