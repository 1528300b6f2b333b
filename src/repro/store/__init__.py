"""Tiered RAM/disk backing for ``M_IN``/``M_OUT`` (out-of-core memory).

* :mod:`repro.store.base` — the :class:`MemoryStore` protocol,
  :class:`StoreStats` ledger, and row-subset views.
* :mod:`repro.store.resident` — the in-RAM backend (today's arrays).
* :mod:`repro.store.mmap_store` — dtype-aware on-disk shards with a
  ``save``/``open`` format.
* :mod:`repro.store.prefetch` — double-buffered chunk prefetch plus a
  budgeted, scan-resistant resident-chunk tier (the paper's §3.1
  load/compute overlap).
"""

from .base import (
    SUPPORTED_DTYPES,
    MemoryStore,
    RowSubsetStore,
    StoreStats,
    check_dtype,
    iter_chunk_spans,
)
from .mmap_store import MmapStore
from .prefetch import ChunkPrefetcher
from .resident import ResidentStore

__all__ = [
    "MemoryStore",
    "ResidentStore",
    "MmapStore",
    "ChunkPrefetcher",
    "RowSubsetStore",
    "StoreStats",
    "SUPPORTED_DTYPES",
    "check_dtype",
    "iter_chunk_spans",
]
