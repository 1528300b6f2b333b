"""The arithmetic behind every perfbench number (no timing, no repro).

A run is a list of blocks; a block is N ops interleaved with host
reference calls, and every block replays the same ops.  Latencies are
turned into ref units inside the block; an op's latency is its median
over the blocks (:func:`run_metrics`).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def tail_percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile, refused unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    n = len(values)
    rank = math.ceil(q * n)
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it, "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return sorted(values)[rank - 1]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (the driver's and
    ``compare.py``'s steadiness measure)."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0


@dataclass
class Block:
    """What one block recorded.

    ``latencies`` holds one wall duration in seconds per attempted op,
    ``None`` for an op that failed or was refused; ``questions`` the
    number of questions each op answered; ``refs`` the interleaved
    reference durations.  In a closed-loop block ``refs[i]`` and
    ``refs[i + 1]`` are the reference calls right before and right
    after op ``i``.  ``span`` and ``busy`` are set by an open-loop
    block only: the wall time from its first due request to its last
    reply, and the part of it the engine spent answering, both on the
    block's own clock (ref units) times its ref unit.  ``counts`` are
    the program-side counters of the ops; ``extra`` is
    workload-specific.
    """

    latencies: list[float | None]
    questions: list[int]
    refs: list[float]
    span: float | None = None
    busy: float | None = None
    counts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def ref_unit(self) -> float:
        """The block's ref unit: the median reference duration."""
        return statistics.median(self.refs)

    def op_units(self) -> list[float]:
        """The ref unit each op's latency is divided by.

        Closed loop: the mean of the two reference calls around the op.
        The host's speed moves within a block, and against the
        neighbouring calls the spread of a block's p50 between blocks
        fell from 3.0 % to 0.8 % and of its p90 from 12.5 % to 4.0 %
        (README, "Why host-relative units").  Open loop: the block's ref
        unit, because the block already kept its clock in ref units.
        """
        if self.span is not None:
            return [self.ref_unit] * len(self.latencies)
        if len(self.refs) != len(self.latencies) + 1:
            raise ValueError(
                f"{len(self.latencies)} ops need {len(self.latencies) + 1} "
                f"interleaved reference calls, got {len(self.refs)}"
            )
        return [(a + b) / 2 for a, b in zip(self.refs, self.refs[1:])]


def relative_latencies(block: Block) -> list[float | None]:
    """Each attempted op's latency in ref units (``None``: it failed)."""
    return [
        None if lat is None else lat / unit
        for lat, unit in zip(block.latencies, block.op_units())
    ]


def block_metrics(block: Block, slo_limit: float) -> dict[str, float]:
    """One block's timing metrics, in ref units.

    Closed-loop throughput is taken over the ops at or below the
    block's p90: host hiccups of 50-200 ms land in a few ops per block
    and moved the plain mean by 40 % between blocks whose median moved
    by 10 %.  In an open loop the schedule sets the pace (replies per
    unit of block span is the offered rate, whatever the engine does),
    so throughput is replies per ref unit the engine was busy: the
    rate it would sustain with no idle time at the batch sizes the
    schedule produced.
    """
    pairs = [
        (lat, count)
        for lat, count in zip(relative_latencies(block), block.questions)
        if lat is not None
    ]
    done = [lat for lat, _ in pairs]
    attempted = len(block.latencies)
    p90 = tail_percentile(done, 0.9)
    if block.busy is not None:
        throughput = sum(block.questions) / (block.busy / block.ref_unit)
    else:
        kept = [(lat, count) for lat, count in pairs if lat <= p90]
        throughput = sum(count for _, count in kept) / sum(lat for lat, _ in kept)
    return {
        "throughput_rel": throughput,
        "latency_p50_rel": statistics.median(done),
        "latency_p90_rel": p90,
        # A failed op has no latency and so misses the limit.
        "slo_share": sum(lat <= slo_limit for lat in done) / attempted,
        "success_share": len(done) / attempted,
    }


def run_metrics(blocks: list[Block], slo_limit: float) -> dict[str, dict]:
    """The run's timing metrics from its blocks.

    Every block replays the same op sequence, so op ``i`` is measured
    once per block.  Its latency is the **median over blocks** of its
    relative latency, and ``latency_p50_rel`` / ``latency_p90_rel`` /
    closed-loop ``throughput_rel`` are taken over the ops' medians.
    Taking the percentile inside each block and the median of those
    over blocks (the block values, still reported) let the host into
    the tail: whenever stalls hit more than a tenth of a block's ops,
    its p90 *was* a stalled op, and ``latency_p90_rel`` read 15-25 %
    high for minutes.  A stall hits a given op in a minority of its
    replays, so the op's median does not see it; between groups of
    blocks of one process the p90's range fell from 6.6 % to 1.0 % on
    ``table1_batch`` and from 5.1 % to 2.0 % on ``story_turns``.
    What this hides, a slow-down that strikes random ops, is what
    ``slo_share`` counts: every single attempt over the limit, per
    block, median over blocks.  ``success_share`` is pooled over all
    attempts, because a median would hide a failure confined to one
    block.  Open-loop ``throughput_rel`` is a per-block quantity (busy
    time) and stays the median over blocks.
    """
    per_block = [block_metrics(block, slo_limit) for block in blocks]
    rel = [relative_latencies(block) for block in blocks]
    ops = []  # (median relative latency, questions) of each op that ever succeeded
    for index in range(len(rel[0])):
        done = [block[index] for block in rel if block[index] is not None]
        if done:
            questions = max(block.questions[index] for block in blocks)
            ops.append((statistics.median(done), questions))
    latencies = [lat for lat, _ in ops]
    attempted = sum(len(block) for block in rel)
    failed = sum(lat is None for block in rel for lat in block)
    values = {
        "throughput_rel": statistics.median(b["throughput_rel"] for b in per_block)
        if blocks[0].busy is not None
        else sum(count for _, count in ops) / sum(latencies),
        "latency_p50_rel": statistics.median(latencies),
        "latency_p90_rel": tail_percentile(latencies, 0.9),
        "slo_share": statistics.median(b["slo_share"] for b in per_block),
        "success_share": (attempted - failed) / attempted,
    }
    return {
        name: {"value": value, "blocks": [b[name] for b in per_block]}
        for name, value in values.items()
    }


def normalised_setup(walls: list[float], refs: list[float], nominal: float) -> float:
    """Host-normalised set-up seconds: the smallest over the set-ups of
    wall divided by the ref unit measured around that set-up, times the
    workload's nominal ref duration.

    The smallest, not the median: a spill ends in two ``msync`` calls,
    whose latency on a shared disk has a steady floor and a tail that
    lasts for whole runs.  Over twenty runs of ``out_of_core_stream``
    the median of fifteen set-ups ranged 0.063-0.131 s and two sets of
    ten runs sat 22 % apart; the smallest ranged 0.044-0.069 s, 7 %
    apart (README, "setup_s").  Work added to set-up moves every
    set-up, the fastest one too.
    """
    return min(w / r for w, r in zip(walls, refs)) * nominal
