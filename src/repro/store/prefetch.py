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
on every later pass.  Random-access :meth:`ChunkPrefetcher.fetch` (one
named span on demand) keeps LRU eviction, where recency does predict
reuse.  The
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
        self._spans = tuple(iter_chunk_spans(store.num_rows, chunk_size))
        self._lru: OrderedDict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
        self._lru = OrderedDict()
        self._lru_bytes = 0
        # resident_pass()'s (chunks, what is cut from them, bytes), if held.
        self._held: tuple[tuple, dict, int] | None = None
        #: Chunks evicted so far: an unchanged count means the chunks
        #: resident_pass() handed out are still the ones it holds.
        self.evictions = 0
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
        spans = self._spans
        if self.prefetch_depth < 1:
            for span in spans:
                began = time.perf_counter()
                pair, from_ram = self._fetch(span)
                self._account(_nbytes(pair), from_ram, time.perf_counter() - began)
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
            self._account(_nbytes(pair), from_ram, stalled, ready=ready)
            yield pair

    def resident_pass(self, charge: bool = True) -> tuple[tuple, dict] | None:
        """One in-order pass's chunks when the resident tier holds them
        all, charged as :meth:`charge_pass` charges them unless not
        ``charge``; else ``None``, nothing charged.  Returns ``(chunks,
        derived)``: the same pair until an eviction drops both (and
        counts in :attr:`evictions`), ``derived`` a dict the caller keeps
        what it builds from the chunks in (a kernel's tile plans)."""
        with self._lock:
            held = self._held
            if held is None:
                chunks = tuple(map(self._lru.get, self._spans))
                if None in chunks:
                    return None
                held = self._held = (chunks, {}, sum(map(_nbytes, chunks)))
        if charge:
            self.charge_pass()
        return held[0], held[1]

    def charge_pass(self, sweep: bool = True) -> None:
        """Charge one pass over the chunks :meth:`resident_pass` holds to
        the ledger and, if ``sweep``, the LRU recency (``move_to_end`` in
        pass order; a repeat sweep leaves the order as it was), as a
        :meth:`chunks` pass of hits is charged (with no stall)."""
        chunks, _, size = self._held
        if sweep:
            with self._lock:
                for span in self._spans:
                    self._lru.move_to_end(span)
        ready = True if self.prefetch_depth else None
        self._account(size, True, 0.0, served=len(chunks), ready=ready)

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

        The random-access sibling of :meth:`chunks`: it pulls one
        named span rather than walking the whole store.  Returns
        ``((chunk_in, chunk_out), lru_hit)``; ``lru_hit`` is ``True``
        only when the span came out of the resident-chunk LRU (a
        resident backing store that is *not* cached reports ``False``:
        the flag reports cache locality, not store residency).
        """
        with self._lock:
            was_cached = span in self._lru
        began = time.perf_counter()
        pair, from_ram = self._fetch(span, evict=True)
        self._account(_nbytes(pair), from_ram, time.perf_counter() - began)
        return pair, was_cached

    def resident_spans(self) -> tuple[tuple[int, int], ...]:
        """The spans currently held by the resident-chunk LRU, coldest
        first.  A snapshot: safe to iterate while the prefetch thread
        runs."""
        with self._lock:
            return tuple(self._lru.keys())

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
        size = _nbytes(pair)
        with self._lock:
            room = self.resident_bytes - (0 if evict else self._lru_bytes)
            if size <= room and span not in self._lru:
                self._lru[span] = pair
                self._lru_bytes += size
                while self._lru_bytes > self.resident_bytes:
                    _, evicted = self._lru.popitem(last=False)
                    self._lru_bytes -= _nbytes(evicted)
                    self._held = None
                    self.evictions += 1
        return pair, self.store.resident

    def _account(
        self,
        size: int,
        from_ram: bool,
        stalled: float,
        served: int = 1,
        ready: bool | None = None,
    ) -> None:
        """Charge ``served`` chunks of ``size`` bytes in all: demand fetches,
        or a lookahead pass's, prefetch hits if ``ready`` (fetched in time)."""
        stats = self.stats
        if from_ram:
            stats.ram_bytes += size
        else:
            stats.disk_bytes += size
        stats.stall_seconds += stalled
        stats.chunks_served += served
        if ready is None:
            stats.demand_fetches += served
        elif ready:
            stats.prefetch_hits += served
        else:
            stats.prefetch_late += served

    @property
    def cached_bytes(self) -> int:
        """Bytes currently held by the resident-chunk LRU."""
        return self._lru_bytes


def _nbytes(pair: tuple[np.ndarray, np.ndarray]) -> int:
    return pair[0].nbytes + pair[1].nbytes
