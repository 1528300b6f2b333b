"""Out-of-core memory store: wall-clock of streaming M_IN/M_OUT from disk.

The tiered store's claim is §3.1 applied across the memory hierarchy:
because the column kernel touches one chunk at a time, memories larger
than the RAM budget can live on disk and stream through a
double-buffered chunk pipeline — and with prefetching the disk loads
hide behind compute, so the out-of-core pass approaches resident
speed.  This benchmark measures that trajectory on a footprint
deliberately larger than the configured resident budget:

* ``resident`` — today's in-RAM arrays (the reference);
* ``mmap_demand`` — the same memories on disk, each chunk fetched
  synchronously when the kernel asks (prefetch off);
* ``mmap_prefetch`` — depth-2 background prefetch plus the budgeted
  resident-chunk tier (the double-buffered overlap; the first eighth
  of the chunks stays in RAM across passes).

Every path is exact (the store serves the identical bytes), so the
differential acceptance is 1e-10, and the overlap acceptance is
``prefetch-on <= prefetch-off`` within measurement noise.

Writes ``BENCH_store.json`` (see :mod:`emit`); ``BENCH_SMOKE`` shrinks
the story size for the CI gate.
"""

import time

import numpy as np

from emit import emit, smoke_mode

from repro.core import ChunkConfig, ColumnMemNN
from repro.report import format_table
from repro.store import MmapStore

NS = 30_000 if smoke_mode() else 150_000
ED, NQ = 48, 16
CHUNK = 2000
PREFETCH_DEPTH = 2
REPEATS = 3 if smoke_mode() else 5
#: Measurement-noise allowance on the overlap acceptance (disk and
#: page-cache timing are noisier than pure compute).
NOISE = 0.15


def _best_of(fn):
    """(min wall-clock seconds, last result) over REPEATS after warm-up."""
    fn()
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_store_streaming_trajectory(benchmark, report, tmp_path):
    rng = np.random.default_rng(0)
    m_in = rng.normal(size=(NS, ED))
    m_out = rng.normal(size=(NS, ED))
    u = m_in[rng.integers(0, NS, size=NQ)] * 2.0
    footprint = m_in.nbytes + m_out.nbytes
    budget = footprint // 8  # the RAM tier holds 1/8 of the memories

    chunk = ChunkConfig(chunk_size=CHUNK)
    store = MmapStore.save(tmp_path / "memories", m_in, m_out)
    solvers = {
        "resident": ColumnMemNN(m_in, m_out, chunk=chunk),
        "mmap_demand": ColumnMemNN(store=store, chunk=chunk, prefetch_depth=0),
        "mmap_prefetch": ColumnMemNN(
            store=store, chunk=chunk,
            resident_bytes=budget, prefetch_depth=PREFETCH_DEPTH,
        ),
    }

    def run_series():
        series, outputs = {}, {}
        for name, solver in solvers.items():
            seconds, result = _best_of(lambda s=solver: s.output(u))
            series[name] = seconds
            outputs[name] = result.output
        return series, outputs

    series, outputs = benchmark.pedantic(run_series, iterations=1, rounds=1)

    # Exact equivalence: the store serves the identical bytes.
    for name, output in outputs.items():
        np.testing.assert_allclose(
            output, outputs["resident"], rtol=1e-10, atol=1e-10,
            err_msg=f"{name} diverged from the resident path",
        )

    stats = {
        name: solvers[name].store_stats.snapshot()
        for name in ("mmap_demand", "mmap_prefetch")
    }
    for solver in solvers.values():
        solver.close()
    store.close()
    prefetch_speedup = series["mmap_demand"] / series["mmap_prefetch"]
    resident_ratio = series["resident"] / series["mmap_prefetch"]

    report(format_table(
        ["series", "wall-clock", "disk bytes", "coverage", "stall"],
        [
            [
                name,
                f"{seconds * 1e3:.1f} ms",
                f"{stats[name].disk_bytes / 1e6:.0f} MB"
                if name in stats else "-",
                f"{stats[name].prefetch_coverage:.0%}"
                if name in stats else "-",
                f"{stats[name].stall_seconds * 1e3:.1f} ms"
                if name in stats else "-",
            ]
            for name, seconds in series.items()
        ],
        title=(
            f"Out-of-core streaming at ns={NS:,}, ed={ED}, nq={NQ} "
            f"({footprint / 1e6:.0f} MB footprint, "
            f"{budget / 1e6:.0f} MB budget)"
        ),
    ))

    emit("store", {
        "workload": {"ns": NS, "ed": ED, "nq": NQ, "chunk": CHUNK,
                     "prefetch_depth": PREFETCH_DEPTH, "repeats": REPEATS},
        "footprint_bytes": footprint,
        "resident_budget_bytes": budget,
        "out_of_core": footprint > budget,
        "series_seconds": {k: round(v, 6) for k, v in series.items()},
        "store_stats": {
            name: {
                "disk_bytes": s.disk_bytes,
                "ram_bytes": s.ram_bytes,
                "prefetch_coverage": round(s.prefetch_coverage, 4),
                "prefetch_hit_rate": round(s.prefetch_hit_rate, 4),
                "stall_seconds": round(s.stall_seconds, 6),
                "chunks_served": s.chunks_served,
            }
            for name, s in stats.items()
        },
        "headline_prefetch_speedup": round(prefetch_speedup, 3),
        "resident_vs_prefetch": round(resident_ratio, 3),
    })

    benchmark.extra_info["headline_prefetch_speedup"] = round(
        prefetch_speedup, 3
    )

    # Acceptance: the workload is genuinely out-of-core, the prefetch
    # pipeline covered every chunk, and the overlap did not make the
    # pass slower than demand fetching.
    assert footprint > budget
    assert stats["mmap_prefetch"].prefetch_coverage == 1.0
    assert stats["mmap_demand"].prefetch_coverage == 0.0
    assert series["mmap_prefetch"] <= series["mmap_demand"] * (1.0 + NOISE), (
        f"prefetch-on slower than prefetch-off: "
        f"{series['mmap_prefetch'] * 1e3:.1f} ms vs "
        f"{series['mmap_demand'] * 1e3:.1f} ms"
    )
