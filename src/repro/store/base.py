"""The tiered memory-store contract (ROADMAP's out-of-core north star).

MnnFast's column-based algorithm (§3.1) never needs ``M_IN``/``M_OUT``
resident in full: the kernel touches one ``chunk x ed`` slice of each
matrix at a time and the lazy softmax carries everything else in
``O(nq x ed)`` state.  This module defines the contract that cashes
that property in — a :class:`MemoryStore` owns *where* memory rows
live (RAM, disk, a remote tier) and hands the kernels chunks on
demand, so the same chunk loop runs over stories far larger than RAM.

Two backends implement the protocol today:

* :class:`~repro.store.resident.ResidentStore` — wraps in-RAM arrays
  (today's behaviour; chunk reads are zero-copy views);
* :class:`~repro.store.mmap_store.MmapStore` — persists dtype-aware
  ``M_IN``/``M_OUT`` shards to disk with a ``save``/``open`` format
  and reads chunks back through the page cache.

:class:`~repro.store.prefetch.ChunkPrefetcher` sits on top of either
backend and adds the paper's load/compute overlap (double-buffered
background fetch) plus a budgeted, scan-resistant resident-chunk
tier; its :class:`StoreStats` ledger records where every byte came
from.

The mergeable-partial design (Rae et al.'s sparse-access memories and
Chandar et al.'s hierarchical memory networks treat large external
memory the same way) means none of this changes the numbers: a
store-backed pass is exactly equivalent to the resident pass, chunk
for chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "SUPPORTED_DTYPES",
    "check_dtype",
    "feature_major",
    "MemoryStore",
    "RowSubsetStore",
    "StoreStats",
    "iter_chunk_spans",
]

#: Compute dtypes the kernels (and therefore the stores) support.
SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def check_dtype(dtype) -> np.dtype:
    """Normalize/validate a compute dtype for the numerical engines."""
    dtype = np.dtype(dtype)
    if dtype not in SUPPORTED_DTYPES:
        raise ValueError(
            f"compute dtype must be one of {[d.name for d in SUPPORTED_DTYPES]}, "
            f"got {dtype.name!r}"
        )
    return dtype


def feature_major(m_in: np.ndarray, dtype=None) -> np.ndarray:
    """``m_in`` in the in-RAM layout of ``M_IN``: an ``(n, ed)`` array
    of ``dtype`` whose *features* are the contiguous axis (``strides[0]
    == itemsize``) — itself when it already is one (an engine buffer, a
    slice of one), else one transposed copy."""
    m_in = np.asarray(m_in)
    if m_in.ndim != 2 or m_in.strides[0] == m_in.itemsize:
        return np.asarray(m_in, dtype=dtype)  # a cast keeps the stride order
    return np.array(m_in.T, dtype=dtype, order="C").T


@dataclass
class StoreStats:
    """Where the bytes a chunk pipeline served came from.

    Attributes:
        ram_bytes: bytes served from RAM (resident arrays or the
            chunk LRU).
        disk_bytes: bytes read from a disk-backed store.
        prefetch_hits: chunks whose background fetch had *completed*
            by the time the kernel asked for them (zero stall).
        prefetch_late: chunks fetched ahead of demand whose fetch was
            still in flight when demanded (partial stall).
        demand_fetches: chunks fetched synchronously on demand
            (prefetching disabled, or the cold demand path).
        stall_seconds: wall-clock the consumer spent waiting for
            chunk data (the load time the overlap failed to hide).
        chunks_served: total chunks delivered to the kernel.
    """

    ram_bytes: int = 0
    disk_bytes: int = 0
    prefetch_hits: int = 0
    prefetch_late: int = 0
    demand_fetches: int = 0
    stall_seconds: float = 0.0
    chunks_served: int = 0

    @property
    def bytes_served(self) -> int:
        return self.ram_bytes + self.disk_bytes

    @property
    def prefetch_hit_rate(self) -> float:
        """Fraction of served chunks whose data was ready on demand."""
        return self.prefetch_hits / self.chunks_served if self.chunks_served else 0.0

    @property
    def prefetch_coverage(self) -> float:
        """Fraction of served chunks whose fetch was *issued* ahead of
        demand (hit or late) — the timing-independent counterpart of
        :attr:`prefetch_hit_rate`, and the definition the modeled
        :class:`~repro.memsim.prefetcher.StridePrefetcher` shares (a
        prefetch issued before the demand access covers it)."""
        covered = self.prefetch_hits + self.prefetch_late
        return covered / self.chunks_served if self.chunks_served else 0.0

    def __add__(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            ram_bytes=self.ram_bytes + other.ram_bytes,
            disk_bytes=self.disk_bytes + other.disk_bytes,
            prefetch_hits=self.prefetch_hits + other.prefetch_hits,
            prefetch_late=self.prefetch_late + other.prefetch_late,
            demand_fetches=self.demand_fetches + other.demand_fetches,
            stall_seconds=self.stall_seconds + other.stall_seconds,
            chunks_served=self.chunks_served + other.chunks_served,
        )

    def snapshot(self) -> "StoreStats":
        """A frozen copy (the live ledger keeps accumulating)."""
        return replace(self)


@runtime_checkable
class MemoryStore(Protocol):
    """Anything that owns ``M_IN``/``M_OUT`` rows and serves chunks.

    The kernels only rely on the members below, so RAM, memmap and
    test-fake backends are interchangeable.  ``read_chunk`` returns
    the *pair* of row slices — the column loop always consumes
    ``M_IN`` and ``M_OUT`` rows of the same span together, and pairing
    them lets a backend fetch both in one pass over the tier.
    """

    @property
    def num_rows(self) -> int: ...

    @property
    def embedding_dim(self) -> int: ...

    @property
    def dtype(self) -> np.dtype: ...

    @property
    def resident(self) -> bool:
        """True when chunk reads are RAM-backed (no I/O tier below)."""
        ...

    def read_chunk(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """``(M_IN[start:stop], M_OUT[start:stop])`` as ``(n, ed)`` arrays.

        Layout rule (DESIGN.md §10): ``M_IN`` rows come feature-major
        (:func:`feature_major`), so the score GEMM's ``chunk_in.T`` is
        an operand BLAS takes untransposed; ``M_OUT`` rows C-contiguous
        (the sparse readout gathers rows).  Breaking it costs time only.
        """
        ...

    def read_rows(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather arbitrary rows (the strided-shard access pattern),
        laid out as :meth:`read_chunk` lays a span out."""
        ...

    def select(self, indices: Sequence[int]) -> "MemoryStore":
        """A store over a row subset (how shard plans slice a tier)."""
        ...


def iter_chunk_spans(num_rows: int, chunk_size: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` spans covering ``num_rows`` in order."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    for start in range(0, num_rows, chunk_size):
        yield start, min(start + chunk_size, num_rows)


class RowSubsetStore:
    """A lazy row-subset view over a base store.

    Used to hand each shard of a :class:`~repro.core.sharded.ShardPlan`
    its slice of an out-of-core tier without materializing it: chunk
    ``[start, stop)`` of the subset gathers only the mapped base rows,
    so a strided shard of a 100M-row memmap still reads one chunk's
    worth of rows at a time.
    """

    def __init__(self, base: MemoryStore, indices: Sequence[int]) -> None:
        indices = np.asarray(indices, dtype=np.intp)
        if indices.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {indices.shape}")
        if len(indices) and (
            indices.min() < 0 or indices.max() >= base.num_rows
        ):
            raise ValueError(
                f"indices out of range for a {base.num_rows}-row store"
            )
        self._base = base
        self._indices = indices

    @property
    def num_rows(self) -> int:
        return len(self._indices)

    @property
    def embedding_dim(self) -> int:
        return self._base.embedding_dim

    @property
    def dtype(self) -> np.dtype:
        return self._base.dtype

    @property
    def resident(self) -> bool:
        return self._base.resident

    @property
    def m_in(self) -> np.ndarray:
        """Materialized subset (diagnostics only — gathers every row)."""
        return self._base.read_rows(self._indices)[0]

    @property
    def m_out(self) -> np.ndarray:
        return self._base.read_rows(self._indices)[1]

    def read_chunk(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        return self._base.read_rows(self._indices[start:stop])

    def read_rows(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._base.read_rows(self._indices[np.asarray(indices, dtype=np.intp)])

    def select(self, indices: Sequence[int]) -> "RowSubsetStore":
        return RowSubsetStore(self._base, self._indices[np.asarray(indices, dtype=np.intp)])
