"""LLC + DRAM composition with per-stream accounting.

Feeds the cache-contention experiment (Fig. 4) and the off-chip access
counts (Fig. 11): traces carry a *stream* tag (``"inference"``,
``"embedding"``, ...) so the hierarchy can report which operation
caused which misses — exactly the separation MnnFast's embedding cache
enforces in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .block import lines_touched
from .cache import SetAssociativeCache
from .dram import DramModel
from .prefetcher import StridePrefetcher

__all__ = ["Access", "Prefetch", "MemoryHierarchy", "StreamSummary"]


@dataclass(frozen=True)
class Access:
    """One demand access in a trace."""

    address: int
    size: int
    write: bool = False
    stream: str = "inference"
    bypass: bool = False


@dataclass(frozen=True)
class Prefetch:
    """A software-prefetch directive (streaming optimization, §3.1)."""

    address: int
    size: int
    stream: str = "inference"


@dataclass
class StreamSummary:
    """Per-stream traffic summary after running a trace."""

    accesses: int = 0
    hits: int = 0
    demand_misses: int = 0
    writebacks: int = 0
    bypassed_lines: int = 0
    prefetch_fills: int = 0
    dram_bytes: int = 0

    @property
    def offchip_accesses(self) -> int:
        """Off-chip transactions as a hardware counter would see them:
        demand misses plus writebacks plus bypassed lines."""
        return self.demand_misses + self.writebacks + self.bypassed_lines

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class MemoryHierarchy:
    """A shared LLC in front of a DRAM model.

    An optional hardware :class:`StridePrefetcher` observes every
    demand line and fills detected streams ahead of use (its fills are
    charged as prefetch traffic, like the software streaming path).
    """

    def __init__(
        self,
        llc: SetAssociativeCache,
        dram: DramModel,
        prefetcher: StridePrefetcher | None = None,
    ) -> None:
        self.llc = llc
        self.dram = dram
        self.prefetcher = prefetcher
        self._streams: dict[str, StreamSummary] = {}

    def stream(self, name: str) -> StreamSummary:
        if name not in self._streams:
            self._streams[name] = StreamSummary()
        return self._streams[name]

    @property
    def streams(self) -> dict[str, StreamSummary]:
        return dict(self._streams)

    def access(self, item: Access) -> None:
        if self.prefetcher is not None and not item.bypass:
            outcome = self._access_with_prefetcher(item)
        else:
            outcome = self.llc.access(
                item.address,
                item.size,
                write=item.write,
                stream=item.stream,
                bypass=item.bypass,
            )
        summary = self.stream(item.stream)
        summary.accesses += 1
        summary.hits += outcome.hits
        summary.demand_misses += outcome.misses
        summary.writebacks += outcome.writebacks
        summary.bypassed_lines += outcome.bypassed
        summary.dram_bytes += outcome.dram_lines * self.llc.line_bytes

    def _access_with_prefetcher(self, item: Access):
        """Demand the access line by line, letting the hardware
        prefetcher run ahead of the stream: each observed line may pull
        upcoming lines in before they are demanded (which is exactly
        how a stride prefetcher hides a long sequential burst)."""
        from .cache import AccessOutcome

        outcome = AccessOutcome()
        summary = self.stream(item.stream)
        for line in lines_touched(item.address, item.size, self.llc.line_bytes):
            for target in self.prefetcher.observe(line):
                fills = self.llc.prefetch(
                    target * self.llc.line_bytes,
                    self.llc.line_bytes,
                    stream=item.stream,
                )
                summary.prefetch_fills += fills
                summary.dram_bytes += fills * self.llc.line_bytes
            line_outcome = self.llc.access(
                line * self.llc.line_bytes,
                self.llc.line_bytes,
                write=item.write,
                stream=item.stream,
            )
            outcome.hits += line_outcome.hits
            outcome.misses += line_outcome.misses
            outcome.writebacks += line_outcome.writebacks
        return outcome

    def prefetch(self, item: Prefetch) -> None:
        fills = self.llc.prefetch(item.address, item.size, stream=item.stream)
        summary = self.stream(item.stream)
        summary.prefetch_fills += fills
        # Prefetch traffic still crosses the pins, but does not count as
        # a demand (off-chip) access in the Fig. 11 sense.
        summary.dram_bytes += fills * self.llc.line_bytes

    def run_trace(self, trace: Iterable[Access | Prefetch]) -> dict[str, StreamSummary]:
        """Run a full trace; returns the per-stream summaries."""
        for item in trace:
            if isinstance(item, Prefetch):
                self.prefetch(item)
            elif isinstance(item, Access):
                self.access(item)
            else:
                raise TypeError(f"trace items must be Access/Prefetch, got {item!r}")
        return self.streams

    def total(self) -> StreamSummary:
        """Aggregate summary across all streams."""
        total = StreamSummary()
        for summary in self._streams.values():
            total.accesses += summary.accesses
            total.hits += summary.hits
            total.demand_misses += summary.demand_misses
            total.writebacks += summary.writebacks
            total.bypassed_lines += summary.bypassed_lines
            total.prefetch_fills += summary.prefetch_fills
            total.dram_bytes += summary.dram_bytes
        return total

    def amat(self, stream: str, hit_time: float = 10e-9) -> float:
        """Average memory access time for a stream (per line access)."""
        summary = self.stream(stream)
        line_ops = summary.hits + summary.demand_misses + summary.bypassed_lines
        if line_ops == 0:
            return hit_time
        miss_ops = summary.demand_misses + summary.bypassed_lines
        miss_ratio = miss_ops / line_ops
        return hit_time + miss_ratio * self.dram.access_latency
