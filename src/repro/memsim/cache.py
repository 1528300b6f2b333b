"""A trace-driven set-associative cache model.

Models the shared last-level cache whose contention the paper analyzes
in §2.2.3 and whose miss behaviour drives Figs. 4 and 11.  Write-back,
write-allocate, with LRU or FIFO replacement, plus a *bypass* access
path modelling non-temporal instructions (§3.3's cache-bypassing
alternative): bypassed accesses go straight to DRAM and never allocate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from .block import is_power_of_two, lines_touched, set_index_and_tag

__all__ = ["AccessOutcome", "CacheStats", "SetAssociativeCache"]


@dataclass
class AccessOutcome:
    """Line-level result of a single (possibly multi-line) access."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    bypassed: int = 0

    @property
    def dram_lines(self) -> int:
        """Lines that had to travel to/from DRAM for this access."""
        return self.misses + self.writebacks + self.bypassed


@dataclass
class CacheStats:
    """Cumulative statistics, optionally partitioned by stream tag."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    bypassed: int = 0
    prefetch_fills: int = 0
    prefetched_hits: int = 0
    by_stream: dict = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def _stream(self, stream: str) -> "CacheStats":
        if stream not in self.by_stream:
            self.by_stream[stream] = CacheStats()
        return self.by_stream[stream]


class _Line:
    """Resident line state (dirty + prefetched provenance)."""

    __slots__ = ("dirty", "prefetched")

    def __init__(self, dirty: bool = False, prefetched: bool = False) -> None:
        self.dirty = dirty
        self.prefetched = prefetched


class SetAssociativeCache:
    """Set-associative, write-back, write-allocate cache.

    Args:
        size_bytes: total capacity (power of two).
        line_bytes: cache-line size (power of two, default 64).
        associativity: ways per set; must divide the line count.
        policy: ``"lru"`` or ``"fifo"``.
    """

    _POLICIES = ("lru", "fifo")

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 64,
        associativity: int = 8,
        policy: str = "lru",
    ) -> None:
        if not is_power_of_two(size_bytes) or not is_power_of_two(line_bytes):
            raise ValueError("size_bytes and line_bytes must be powers of two")
        if size_bytes < line_bytes:
            raise ValueError("cache smaller than one line")
        num_lines = size_bytes // line_bytes
        if associativity <= 0 or num_lines % associativity != 0:
            raise ValueError(
                f"associativity {associativity} must divide line count {num_lines}"
            )
        if policy not in self._POLICIES:
            raise ValueError(f"policy must be one of {self._POLICIES}, got {policy!r}")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = num_lines // associativity
        self.policy = policy
        self.stats = CacheStats()
        # One OrderedDict per set: tag -> _Line, insertion order = age.
        self._sets: list[OrderedDict[int, _Line]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    # --- public API -----------------------------------------------------------

    def access(
        self,
        address: int,
        size: int = 1,
        write: bool = False,
        stream: str = "default",
        bypass: bool = False,
    ) -> AccessOutcome:
        """Perform a demand access; returns its line-level outcome.

        ``bypass=True`` models non-temporal loads/stores: the access
        neither probes nor allocates; every touched line is charged
        straight to DRAM.
        """
        outcome = AccessOutcome()
        per_stream = self.stats._stream(stream)
        for line in lines_touched(address, size, self.line_bytes):
            if bypass:
                outcome.bypassed += 1
                self.stats.bypassed += 1
                per_stream.bypassed += 1
                continue
            hit, writeback, was_prefetched = self._touch(line, write, demand=True)
            if hit:
                outcome.hits += 1
                self.stats.hits += 1
                per_stream.hits += 1
                if was_prefetched:
                    self.stats.prefetched_hits += 1
                    per_stream.prefetched_hits += 1
            else:
                outcome.misses += 1
                self.stats.misses += 1
                per_stream.misses += 1
            if writeback:
                outcome.writebacks += 1
                self.stats.writebacks += 1
                per_stream.writebacks += 1
        return outcome

    def prefetch(self, address: int, size: int = 1, stream: str = "default") -> int:
        """Fill lines ahead of demand (the streaming optimization §3.1).

        Returns the number of lines actually fetched (already-resident
        lines are skipped).  Prefetch fills are not demand misses: a
        later demand access to the line counts as a hit, which is how
        hardware counters see a well-timed software prefetch.
        """
        fills = 0
        per_stream = self.stats._stream(stream)
        for line in lines_touched(address, size, self.line_bytes):
            if not self._present(line):
                self._fill(line, dirty=False, prefetched=True)
                fills += 1
        self.stats.prefetch_fills += fills
        per_stream.prefetch_fills += fills
        return fills

    def contains(self, address: int) -> bool:
        """Is the line holding ``address`` resident?"""
        return self._present(address // self.line_bytes)

    def flush(self) -> int:
        """Drop all lines; returns the number of dirty lines written back."""
        writebacks = 0
        for cache_set in self._sets:
            writebacks += sum(1 for line in cache_set.values() if line.dirty)
            cache_set.clear()
        self.stats.writebacks += writebacks
        return writebacks

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    # --- internals --------------------------------------------------------------

    def _present(self, line: int) -> bool:
        set_idx, tag = set_index_and_tag(line, self.num_sets)
        return tag in self._sets[set_idx]

    def _touch(
        self, line: int, write: bool, demand: bool
    ) -> tuple[bool, bool, bool]:
        """Probe and update one line; returns (hit, writeback, was_prefetched)."""
        set_idx, tag = set_index_and_tag(line, self.num_sets)
        cache_set = self._sets[set_idx]
        if tag in cache_set:
            entry = cache_set[tag]
            was_prefetched = entry.prefetched
            if demand:
                entry.prefetched = False
            if write:
                entry.dirty = True
            if self.policy == "lru":
                cache_set.move_to_end(tag)
            return True, False, was_prefetched
        writeback = self._fill(line, dirty=write, prefetched=False)
        return False, writeback, False

    def _fill(self, line: int, dirty: bool, prefetched: bool) -> bool:
        """Allocate a line, evicting if needed; returns True on dirty evict."""
        set_idx, tag = set_index_and_tag(line, self.num_sets)
        cache_set = self._sets[set_idx]
        writeback = False
        if len(cache_set) >= self.associativity:
            _, victim = cache_set.popitem(last=False)
            writeback = victim.dirty
        cache_set[tag] = _Line(dirty=dirty, prefetched=prefetched)
        return writeback
