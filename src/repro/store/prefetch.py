"""Double-buffered chunk prefetch + budgeted resident-chunk tier.

This is the paper's §3.1 streaming story made real: the column kernel
knows exactly which chunk it needs next, so a background thread loads
chunk ``i+1..i+depth`` from the store while the compute thread works
on chunk ``i`` (the chunk fetches — positional reads on
:class:`~repro.store.mmap_store.MmapStore`'s held descriptors —
release the GIL, exactly like the kernel's BLAS calls, so the
overlap is genuine multicore concurrency).

Between the fetcher and the backing store sits a resident-chunk tier
with a configurable byte budget — the RAM tier of the store hierarchy.
A sequential :meth:`ChunkPrefetcher.chunks` pass is *scan-resistant*:
it admits a chunk only while the budget has room and never evicts.
Every hop and every request re-walks the memory in the same order, so
under LRU a budget one chunk short of the footprint evicts each chunk
just before it is needed again and never hits; keeping the first
chunks that fit serves ``floor(budget / chunk_bytes)`` chunks from RAM
on every later pass.  Random-access :meth:`ChunkPrefetcher.fetch` (a
cluster replica pulling the spans its plan names) keeps LRU eviction,
where recency does predict reuse.  The
:class:`~repro.store.base.StoreStats` ledger records which bytes came
from where, the prefetch hit rate, and the stall seconds the overlap
failed to hide.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterator

import numpy as np

from .base import MemoryStore, StoreStats, iter_chunk_spans

__all__ = ["ChunkPrefetcher"]


class ChunkPrefetcher:
    """Serve a store's chunks with a resident tier and lookahead fetch.

    Args:
        store: the backing tier (resident or disk).
        chunk_size: rows per chunk (the kernel's chunk geometry; the
            pipeline and the kernel must agree, so
            :class:`~repro.core.column.ColumnMemNN` constructs this
            from its own :class:`~repro.core.config.ChunkConfig`).
        resident_bytes: byte budget of the resident-chunk tier; ``None``
            disables caching (pure streaming).
        prefetch_depth: chunks fetched ahead of the consumer; ``0``
            disables the background thread (every chunk is a
            synchronous demand fetch).

    One prefetcher serves many passes: each :meth:`chunks` call walks
    the whole store once, and ``stats`` accumulates across passes (the
    second hop of a 2-hop engine is where the resident tier starts
    paying).  The fetch thread starts with the first chunk a lookahead
    pass misses and lives until :meth:`close`.
    """

    def __init__(
        self,
        store: MemoryStore,
        chunk_size: int,
        resident_bytes: int | None = None,
        prefetch_depth: int = 0,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if prefetch_depth < 0:
            raise ValueError(
                f"prefetch_depth must be non-negative, got {prefetch_depth}"
            )
        if resident_bytes is not None and resident_bytes <= 0:
            raise ValueError(
                f"resident_bytes must be positive or None, got {resident_bytes}"
            )
        self.store = store
        self.chunk_size = chunk_size
        self.resident_bytes = resident_bytes
        self.prefetch_depth = prefetch_depth
        self.stats = StoreStats()
        self._lru: OrderedDict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
        self._lru = OrderedDict()
        self._lru_bytes = 0
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None

    def close(self) -> None:
        """Join the fetch thread.  The prefetcher stays usable (the
        next lookahead miss starts a new one).  Idempotent."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    # --- the chunk stream ----------------------------------------------------

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """One full in-order pass over the store, chunk by chunk;
        admits chunks while the budget has room, never evicts."""
        spans = list(iter_chunk_spans(self.store.num_rows, self.chunk_size))
        if self.prefetch_depth < 1:
            for span in spans:
                began = time.perf_counter()
                pair, from_ram = self._fetch(span)
                self._account(pair, from_ram, stalled=time.perf_counter() - began)
                self.stats.demand_fetches += 1
                yield pair
            return

        in_flight = deque(
            self._fetch_ahead(span) for span in spans[: self.prefetch_depth]
        )
        upcoming = iter(spans[self.prefetch_depth :])
        while in_flight:
            future = in_flight.popleft()
            ready = future.done()
            began = time.perf_counter()
            pair, from_ram = future.result()
            stalled = time.perf_counter() - began
            # Top the window back up *before* yielding, so the
            # fetch thread works while the kernel computes.
            span = next(upcoming, None)
            if span is not None:
                in_flight.append(self._fetch_ahead(span))
            self._account(pair, from_ram, stalled=stalled)
            if ready:
                self.stats.prefetch_hits += 1
            else:
                self.stats.prefetch_late += 1
            yield pair

    def _fetch_ahead(self, span: tuple[int, int]) -> Future:
        """Start serving ``span`` ahead of demand: a chunk already in
        RAM is taken here and now (nothing to overlap), a miss goes to
        the fetch thread."""
        with self._lock:
            in_ram = self.store.resident or span in self._lru
        if in_ram:
            served: Future = Future()
            served.set_result(self._fetch(span))
            return served
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-prefetch"
            )
        return self._pool.submit(self._fetch, span)

    def fetch(
        self, span: tuple[int, int]
    ) -> tuple[tuple[np.ndarray, np.ndarray], bool]:
        """Serve one chunk span on demand, through the LRU (a full
        tier evicts its coldest chunks to admit this one), with full
        ledger accounting.

        The random-access sibling of :meth:`chunks` — a cluster
        replica's executor pulls exactly the spans its plan names
        rather than walking the whole store.  Returns
        ``((chunk_in, chunk_out), lru_hit)``; ``lru_hit`` is ``True``
        only when the span came out of the resident-chunk LRU (a
        resident backing store that is *not* cached reports ``False``,
        so routing experiments see cache locality, not store
        residency).
        """
        with self._lock:
            was_cached = span in self._lru
        began = time.perf_counter()
        pair, from_ram = self._fetch(span, evict=True)
        self._account(pair, from_ram, stalled=time.perf_counter() - began)
        self.stats.demand_fetches += 1
        return pair, was_cached

    def resident_spans(self) -> tuple[tuple[int, int], ...]:
        """The spans currently held by the resident-chunk LRU, coldest
        first — the live cache-contents view cache-affinity routing
        scores against.  A snapshot: safe to iterate while the
        prefetch thread runs."""
        with self._lock:
            return tuple(self._lru.keys())

    def resident_chunk_ids(self) -> frozenset[int]:
        """LRU contents as global chunk indices (``start //
        chunk_size``) — the set form the router intersects with an
        :class:`~repro.core.plan.InferencePlan`'s ``chunks``."""
        return frozenset(
            start // self.chunk_size for start, _ in self.resident_spans()
        )

    # --- the RAM tier --------------------------------------------------------

    def _fetch(
        self, span: tuple[int, int], evict: bool = False
    ) -> tuple[tuple[np.ndarray, np.ndarray], bool]:
        """``((chunk_in, chunk_out), served_from_ram)`` for one span.
        A miss is admitted when it fits the budget: all of it under
        ``evict`` (coldest chunks make way), else what is left."""
        if self.resident_bytes is None:
            return self.store.read_chunk(*span), self.store.resident
        with self._lock:
            cached = self._lru.get(span)
            if cached is not None:
                self._lru.move_to_end(span)
                return cached, True
        pair = self.store.read_chunk(*span)
        size = pair[0].nbytes + pair[1].nbytes
        with self._lock:
            room = self.resident_bytes - (0 if evict else self._lru_bytes)
            if size <= room and span not in self._lru:
                self._lru[span] = pair
                self._lru_bytes += size
                while self._lru_bytes > self.resident_bytes:
                    _, evicted = self._lru.popitem(last=False)
                    self._lru_bytes -= evicted[0].nbytes + evicted[1].nbytes
        return pair, self.store.resident

    def _account(
        self,
        pair: tuple[np.ndarray, np.ndarray],
        from_ram: bool,
        stalled: float,
    ) -> None:
        size = pair[0].nbytes + pair[1].nbytes
        if from_ram:
            self.stats.ram_bytes += size
        else:
            self.stats.disk_bytes += size
        self.stats.stall_seconds += stalled
        self.stats.chunks_served += 1

    @property
    def cached_bytes(self) -> int:
        """Bytes currently held by the resident-chunk LRU."""
        return self._lru_bytes
