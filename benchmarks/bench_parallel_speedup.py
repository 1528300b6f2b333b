"""Core-engine wall-clock trajectory: serial vs parallel backends.

This is the repo's *measured* core-engine series, and
``BENCH_core.json`` at the repository root is its one checked-in
artifact.  It runs the ns=200k, ed=48, nq=16 workload of
``bench_algorithms.py`` through:

* ``seed_column`` — a faithful reimplementation of the pre-optimization
  chunk loop (fresh allocations per chunk, all-ones keep-mask multiply,
  unconditional rescale), kept here as the fixed baseline the
  kernel-optimized series is measured against.  It scans the row-major
  ``(ns, ed)`` arrays this module generates, as it always has: it is
  the historical yardstick, so its score GEMM stays the transposed-B
  ``u @ chunk_in.T`` of a row-major memory;
* ``column_f64_reference`` — today's allocation-free kernel over a
  float64 memory (``ExecutionConfig(dtype="float64")``, the reference
  precision the bitwise grid pins);
* ``column_f32`` — the same kernel at the engine's default precision:
  float32 memory and tile arithmetic, float64 running state (half the
  streamed bytes);
* ``sharded_serial`` — the K=4 sharded engine, shards in a loop (this
  and every series below without ``f32`` in its name runs the float64
  reference, so the ``*_vs_serial`` ratios compare like with like);
* ``sharded_process_K`` — the process backend at 1/2/4 workers: worker
  processes mmap the spilled store and compute zero-copy shard
  partials, bit-identical to serial;
* ``fused_serial`` — the batchxshard tile kernel (one score GEMM per
  tile across all shards);
* ``fused_f32`` — the tile kernel at the default precision
  (``EngineConfig.fused(4)``);
* ``multicore_f32_process_4`` — the composed headline: the default
  precision plus the 4-worker process backend (``EngineConfig
  .sharded(4).with_execution(num_workers=4)``, the README quickstart
  config).

Every ``ColumnMemNN`` / ``ShardedMemNN`` series lays ``M_IN`` out
feature-major once, at solver build (outside the timed calls), so
since ISSUE 23 its speedup over ``seed_column`` includes the layout
gain — a plain ``u @ B`` per tile instead of ``u @ B^T`` (DESIGN.md
§10) — on top of the kernel's.

Genuine multicore speedup requires physical cores, so the parallel
acceptance gates activate only when ``os.cpu_count() >= GATE_CPUS``;
below that ``BENCH_core.json`` carries an explicit
``parallel_gate.skipped_reason`` naming the CPU count.  The artifact
also records the visible CPU count and the BLAS implementation/thread
ceiling (:func:`repro.core.thread_limits.blas_thread_info`) so a
regression report names the machine class it measured.

Run by hand (``make bench-core``); every run rewrites ``BENCH_core.json``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import (
    ChunkConfig,
    ColumnMemNN,
    ExecutionConfig,
    PartialOutput,
    ShardedMemNN,
)
from repro.core.thread_limits import blas_thread_info
from repro.report import format_table

NS = 200_000
ED, NQ = 48, 16
CHUNK = 1000
WORKER_SWEEP = (1, 2, 4)
NUM_SHARDS = 4
REPEATS = 5
#: Measurement-noise allowance on the kernel-optimized acceptance.
NOISE = 0.10
#: Physical cores required before the parallel gates activate.
GATE_CPUS = 4
#: The headline the multicore series must beat: the best single-core
#: speedup vs seed recorded before the process backend existed
#: (column_f32 at 1.38x, BENCH_core.json of PR 8).
BASELINE_HEADLINE = 1.38
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_core.json"


def _seed_partial_output(m_in, m_out, u, chunk_size):
    """The pre-optimization column chunk loop, verbatim semantics:
    fresh ``(nq, c)`` allocations every chunk, an all-ones boolean
    keep-mask multiplied into the exponentials, and the running-max
    rescale applied unconditionally."""
    nq, ed = u.shape
    ns = m_in.shape[0]
    log_max = np.full(nq, -np.inf)
    denom = np.zeros(nq)
    acc = np.zeros((nq, ed))
    for start in range(0, ns, chunk_size):
        chunk_in = m_in[start : start + chunk_size]
        chunk_out = m_out[start : start + chunk_size]
        scores = u @ chunk_in.T
        chunk_max = scores.max(axis=1)
        new_max = np.maximum(log_max, chunk_max)
        with np.errstate(invalid="ignore"):
            scale = np.where(np.isneginf(log_max), 0.0, np.exp(log_max - new_max))
        exp_scores = np.exp(scores - new_max[:, None])
        denom = denom * scale + exp_scores.sum(axis=1)
        acc *= scale[:, None]
        log_max = new_max
        keep = np.ones_like(scores, dtype=bool)
        acc += (exp_scores * keep) @ chunk_out
    return PartialOutput(weighted=acc, denom=denom, log_max=log_max)


def _best_of(fn):
    """(min wall-clock seconds, last result) over REPEATS after warm-up."""
    fn()
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _run_series(m_in, m_out, u):
    chunk = ChunkConfig(chunk_size=CHUNK)
    series = {}
    outputs = {}

    seed_seconds, seed_partial = _best_of(
        lambda: _seed_partial_output(m_in, m_out, u, CHUNK)
    )
    series["seed_column"] = seed_seconds
    outputs["seed_column"] = seed_partial.finalize()

    solvers = {
        "column_f64_reference": ColumnMemNN(m_in, m_out, chunk=chunk),
        "column_f32": ColumnMemNN(m_in, m_out, chunk=chunk, dtype=np.float32),
        "sharded_serial": ShardedMemNN(
            m_in, m_out, num_shards=NUM_SHARDS, chunk=chunk
        ),
        "fused_serial": ShardedMemNN(
            m_in,
            m_out,
            num_shards=NUM_SHARDS,
            chunk=chunk,
            execution=ExecutionConfig(fused=True),
        ),
        "fused_f32": ShardedMemNN(
            m_in,
            m_out,
            num_shards=NUM_SHARDS,
            chunk=chunk,
            dtype=np.float32,
            execution=ExecutionConfig(fused=True, dtype="float32"),
        ),
    }
    for workers in WORKER_SWEEP:
        solvers[f"sharded_process_{workers}"] = ShardedMemNN(
            m_in,
            m_out,
            num_shards=NUM_SHARDS,
            chunk=chunk,
            execution=ExecutionConfig(backend="process", num_workers=workers),
        )
    solvers["multicore_f32_process_4"] = ShardedMemNN(
        m_in,
        m_out,
        num_shards=NUM_SHARDS,
        chunk=chunk,
        dtype=np.float32,
        execution=ExecutionConfig(
            backend="process", num_workers=4, dtype="float32"
        ),
    )
    for name, solver in solvers.items():
        seconds, result = _best_of(lambda s=solver: s.output(u))
        series[name] = seconds
        outputs[name] = result.output
        solver.close()
    # Re-time the ratio-gated single-core trio back to back after the
    # sweep and keep each series' faster measurement: the seed runs
    # first and the kernels minutes later, so sustained machine load
    # arriving mid-sweep would otherwise skew the seed/f64/f32
    # ratios the acceptance asserts on.  Back-to-back re-measurement
    # puts all three in the same load window.
    retime = {
        "seed_column": lambda: _seed_partial_output(m_in, m_out, u, CHUNK),
        "column_f64_reference": ColumnMemNN(m_in, m_out, chunk=chunk).output,
        "column_f32": ColumnMemNN(
            m_in, m_out, chunk=chunk, dtype=np.float32
        ).output,
    }
    for name, fn in retime.items():
        again, _ = _best_of(
            fn if name == "seed_column" else (lambda f=fn: f(u))
        )
        series[name] = min(series[name], again)
    return series, outputs


def test_parallel_execution_trajectory(benchmark, report):
    rng = np.random.default_rng(0)
    m_in = rng.normal(size=(NS, ED))
    m_out = rng.normal(size=(NS, ED))
    # Peaked scores, matching bench_algorithms.py's workload.
    u = m_in[rng.integers(0, NS, size=NQ)] * 2.0

    series, outputs = benchmark.pedantic(
        lambda: _run_series(m_in, m_out, u), iterations=1, rounds=1
    )

    # Every path computes the same attention output; the process
    # backend is additionally *bitwise* equal to its serial twin.
    reference = outputs["seed_column"]
    for name, output in outputs.items():
        tolerance = 1e-5 if "f32" in name else 1e-10
        np.testing.assert_allclose(
            output, reference, rtol=tolerance, atol=tolerance,
            err_msg=f"{name} diverged from the seed kernel",
        )
    for workers in WORKER_SWEEP:
        np.testing.assert_array_equal(
            outputs[f"sharded_process_{workers}"],
            outputs["sharded_serial"],
            err_msg=f"process backend at {workers} workers is not "
            "bit-identical to serial",
        )

    cpu_count = os.cpu_count() or 1
    blas = blas_thread_info()
    seed = series["seed_column"]
    speedups = {name: seed / seconds for name, seconds in series.items()}
    process_vs_serial = {
        workers: series["sharded_serial"] / series[f"sharded_process_{workers}"]
        for workers in WORKER_SWEEP
    }
    fused_vs_serial = series["sharded_serial"] / series["fused_serial"]

    report(format_table(
        ["series", "wall-clock", "speedup vs seed"],
        [[name, f"{seconds * 1e3:.1f} ms", f"{speedups[name]:.2f}x"]
         for name, seconds in series.items()],
        title=(
            f"Core-engine wall-clock at ns={NS:,}, ed={ED}, nq={NQ} "
            f"({cpu_count} CPU(s), BLAS {blas['implementation']})"
        ),
    ))

    gated = cpu_count >= GATE_CPUS
    parallel_gate = {"required_cpus": GATE_CPUS}
    if gated:
        parallel_gate["process_vs_serial"] = {
            str(k): round(v, 3) for k, v in process_vs_serial.items()
        }
        parallel_gate["fused_vs_serial"] = round(fused_vs_serial, 3)
        parallel_gate["baseline_headline"] = BASELINE_HEADLINE
        parallel_gate["headline_speedup"] = round(max(speedups.values()), 3)
    else:
        parallel_gate["skipped_reason"] = (
            f"only {cpu_count} CPU(s) visible; parallel speedup gates "
            f"require >= {GATE_CPUS} physical cores"
        )

    payload = {
        "workload": {"ns": NS, "ed": ED, "nq": NQ, "chunk": CHUNK,
                     "num_shards": NUM_SHARDS, "repeats": REPEATS},
        "cpu_count": cpu_count,
        "blas": blas,
        "worker_blas_threads": ExecutionConfig(
            backend="process", num_workers=4
        ).worker_blas_threads(),
        "series_seconds": {k: round(v, 6) for k, v in series.items()},
        "speedup_vs_seed": {k: round(v, 3) for k, v in speedups.items()},
        "process_vs_serial": {
            str(k): round(v, 3) for k, v in process_vs_serial.items()
        },
        "fused_vs_serial": round(fused_vs_serial, 3),
        "parallel_gate": parallel_gate,
        "headline_speedup": round(max(speedups.values()), 3),
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    benchmark.extra_info["headline_speedup"] = round(max(speedups.values()), 3)
    benchmark.extra_info["cpu_count"] = cpu_count

    # Acceptance: the kernel-optimized serial loop beats the seed loop
    # (identical arithmetic, fewer allocations and no mask multiply),
    # and the default float32 memory beats the float64 reference (half
    # the streamed bytes).
    assert speedups["column_f64_reference"] >= 1.0 - NOISE, (
        f"kernel-optimized column loop slower than seed: "
        f"{speedups['column_f64_reference']:.2f}x"
    )
    assert series["column_f32"] <= series["column_f64_reference"] * (1.0 + NOISE), (
        "float32 memory slower than the float64 reference: "
        f"{series['column_f32'] * 1e3:.1f} ms vs "
        f"{series['column_f64_reference'] * 1e3:.1f} ms"
    )
    if gated:
        # The real multicore gates: process and fused never lose to
        # serial, and the composed multicore headline beats the best
        # pre-process-backend number.
        for workers, ratio in process_vs_serial.items():
            assert ratio >= 1.0 - NOISE, (
                f"process backend at {workers} workers regressed vs "
                f"serial: {ratio:.2f}x on {cpu_count} CPUs"
            )
        assert fused_vs_serial >= 1.0 - NOISE, (
            f"fused tile kernel slower than per-shard loop: "
            f"{fused_vs_serial:.2f}x"
        )
        assert max(speedups.values()) > BASELINE_HEADLINE, (
            f"multicore headline {max(speedups.values()):.2f}x does not "
            f"beat the single-core baseline {BASELINE_HEADLINE}x"
        )
