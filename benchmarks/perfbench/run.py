"""perfbench driver: ``python3 benchmarks/perfbench/run.py [--workload
NAME] [--seed S] [--seconds T] [--trace [0|1]]``.

Prints every metric by name with its unit, sample count and per-block
values, checks ``answer_agreement`` against the workload's floor,
writes ``results/perfbench/<workload>.result.json`` (``.trace.*`` for a
traced run) and ends with one JSON line per workload for the harness:
the end-to-end metrics, or with ``--trace`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = ROOT / "results" / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_process() -> None:
    """Re-exec once with the hash seed fixed, BLAS pools limited to one
    thread and temporary files (engine spills, the reference's file)
    kept inside the checkout."""
    tmp = RESULTS / "tmp"
    wanted = dict(_PINNED_ENV, TMPDIR=str(tmp))
    if all(os.environ.get(key) == value for key, value in wanted.items()):
        return
    tmp.mkdir(parents=True, exist_ok=True)
    os.execve(
        sys.executable,
        [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
        {**os.environ, **wanted},
    )


if __name__ == "__main__":
    pin_process()  # before NumPy loads its BLAS
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy
from repro.core import EngineConfig
from repro.core.thread_limits import apply_blas_limit, blas_thread_info
from repro.store.base import StoreStats

import spans as tracing
import stats
from host_ref import HostRef
from workloads import WORKLOADS, digest, timed

#: A gated run times at least this many blocks, more if ``--seconds`` allows.
MIN_BLOCKS = 5
#: A traced run times this many blocks untraced, then as many traced.
TRACE_BLOCKS = 2
#: A per-layer table from a run distorted beyond this is not printed.
MAX_TRACE_DISTORTION = 0.25
#: Reference calls before and after each measured set-up.
SETUP_REFS = 5
#: Ops per informational side measurement in the traced run.
SIDE_OPS = 20


def host_fingerprint() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "blas": blas_thread_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
    }


def measured_setups(workload, inputs, ref, count):
    """``count`` cold set-ups, each bracketed by reference calls whose
    median is that set-up's ref unit.  Returns ``(engine of the last
    one, walls, ref units)``."""
    walls, units, engine = [], [], None
    for _ in range(count):
        around = [timed(ref) for _ in range(SETUP_REFS)]
        start = time.perf_counter()
        engine = workload.cold_setup(inputs)
        walls.append(time.perf_counter() - start)
        around += [timed(ref) for _ in range(SETUP_REFS)]
        units.append(statistics.median(around))
        # Whether the previous engine's arrays are freed before the next
        # one is built otherwise depends on when the collector last ran,
        # and moved peak_rss_mb by 4 MB between runs.
        gc.collect()
    return engine, walls, units


def run_summary(workload, seed: int, inputs: dict, blocks: list, trace: bool) -> dict:
    """The fields a gated and a traced result share."""
    latencies = [lat for block in blocks for lat in block.latencies]
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "input_digest": digest(inputs),
        "attempted": len(latencies),
        "failed": sum(lat is None for lat in latencies),
        "failures": [f for block in blocks for f in block.extra["failures"]][:5],
        "blocks": len(blocks),
        "ops_per_block": len(blocks[0].latencies),
    }


def run_gated(workload, seed: int, seconds: float) -> dict:
    inputs = workload.inputs(seed)
    ops = workload.ops(inputs)
    ref = HostRef(workload.ref)
    try:
        for _ in range(3):
            ref()
        engine, setup_walls, setup_units = measured_setups(
            workload, inputs, ref, workload.setups
        )
        workload.block(engine, inputs, ref, ops[: max(len(ops) // 4, 8)])
        blocks, walls = [], []
        budget_end = time.perf_counter() + seconds
        while len(blocks) < MIN_BLOCKS or (
            time.perf_counter() + statistics.median(walls) < budget_end
        ):
            start = time.perf_counter()
            blocks.append(workload.block(engine, inputs, ref, ops))
            walls.append(time.perf_counter() - start)
        agreement, compared, counts = workload.agreement(inputs, engine)
        engine.close()
    finally:
        ref.close()

    summary = run_summary(workload, seed, inputs, blocks, trace=False)
    metrics = stats.run_metrics(blocks, workload.slo_limit)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, entry in metrics.items():
        entry["unit"] = units[name]
        entry["n"] = summary["attempted"]
    metrics["answer_agreement"] = {
        "value": agreement, "unit": units["answer_agreement"], "n": compared,
        "floor": workload.agreement_floor,
    }
    metrics["setup_s"] = {
        "value": stats.normalised_setup(
            setup_walls, setup_units, workload.ref_nominal_s
        ),
        "unit": "s", "n": len(setup_walls),
        "blocks": [w / u * workload.ref_nominal_s
                   for w, u in zip(setup_walls, setup_units)],
    }
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB", "n": 1,
    }
    return {
        **summary,
        "correct": agreement >= workload.agreement_floor,
        "metrics": metrics,
        "wall": wall_diagnostics(blocks, setup_walls),
        "counts": counts,
        "slo_limit_rel": workload.slo_limit,
        "ref_nominal_s": workload.ref_nominal_s,
    }


def wall_diagnostics(blocks, setup_walls) -> dict:
    """Raw wall-clock numbers: recorded beside the relative ones, never
    gated (they wander by 2x over an hour on a shared host)."""
    def done(block):
        return [lat for lat in block.latencies if lat is not None]

    def seconds(block):
        return block.span if block.span is not None else sum(done(block))

    refs = [block.ref_unit for block in blocks]
    return {
        "wall.qps": statistics.median(
            sum(b.questions) / seconds(b) for b in blocks
        ),
        "wall.latency_p50_ms": 1e3
        * statistics.median(statistics.median(done(b)) for b in blocks),
        "wall.latency_p90_ms": 1e3
        * statistics.median(stats.tail_percentile(done(b), 0.9) for b in blocks),
        "wall.setup_s": statistics.median(setup_walls),
        "host.ref_ms": 1e3 * statistics.median(refs),
        "host.ref_spread": statistics.median(stats.spread(b.refs) for b in blocks),
    }


def side_p50(workload, inputs, config, ops) -> float:
    """Median op wall of ``config`` on the workload's inputs."""
    engine = workload.engine(inputs, config)
    try:
        workload.load(engine, inputs)
        workload.run_op(engine, ops[0])
        return statistics.median(
            timed(lambda op=op: workload.run_op(engine, op)) for op in ops
        )
    finally:
        engine.close()


def side_measurements(workload, inputs, ref, tracer) -> dict:
    """Informational only: the two-vCPU modes that are not gated
    because they do not repeat (README, "Not gated, and why")."""
    ops = workload.ops(inputs)[:SIDE_OPS]
    out = {}
    if workload.name == "table1_batch":
        serial2 = EngineConfig.sharded(2, threshold=0.1)
        process2 = serial2.with_execution(backend="process", num_workers=2)
        serial4 = EngineConfig.sharded(4, threshold=0.1)
        fused4 = EngineConfig.fused(4).with_zero_skip(0.1)
        out["execution.process2_vs_serial"] = side_p50(
            workload, inputs, serial2, ops
        ) / side_p50(workload, inputs, process2, ops)
        out["execution.fused4_vs_serial"] = side_p50(
            workload, inputs, serial4, ops
        ) / side_p50(workload, inputs, fused4, ops)
        unit = statistics.median(timed(ref) for _ in range(5))
        with tracer.installed():
            side_p50(workload, inputs, serial4, ops)
        merge = tracing.layer_times(tracer.take())["sharded.merge"]
        out["sharded.merge_rel"] = merge["self"] / unit / (len(ops) + 1)
    if workload.name == "out_of_core_stream":
        prefetch2 = EngineConfig.out_of_core(resident_bytes=4 << 20, prefetch_depth=2)
        out["store.prefetch2_vs_demand"] = side_p50(
            workload, inputs, workload.config, ops
        ) / side_p50(workload, inputs, prefetch2, ops)
    return out


def layer_metrics(workload, inputs, block, spans, setup_spans, setup_unit, counts) -> dict:
    """One traced block's per-layer metrics (README, "Per-layer metrics")."""
    table = tracing.layer_times(spans)
    setup = tracing.layer_times(setup_spans)
    unit = block.ref_unit
    ops = len(block.latencies)
    # Seconds spent inside the engine: the denominator of every share.
    service = block.extra.get("service_seconds") or sum(
        lat for lat in block.latencies if lat is not None
    )

    def per_op(name, kind="self"):
        return table[name][kind] / unit / ops

    def ratio(a, b):
        return a / b if b else 0.0

    answer_self = table["engine.answer"]["self"] + table["engine.answer_batch"]["self"]
    builds = tracing.build_events(spans)
    build_unit = unit
    if not builds:
        builds, build_unit = tracing.build_events(setup_spans), setup_unit
    # Story rows are written inside the ops on story_turns, in set-up elsewhere.
    if workload.writes_in_ops:
        rows_stored = sum(len(story) for story in inputs["stories"])
        store_units = table["engine.store_story"]["total"] / unit
    else:
        rows_stored = len(inputs["stories"])
        store_units = setup["engine.store_story"]["total"] / setup_unit
    store = block.counts.get("store") or StoreStats()
    before = block.extra.get("store_before") or StoreStats()
    ram = store.ram_bytes - before.ram_bytes
    disk = store.disk_bytes - before.disk_bytes
    roots = sum(row["root"] for name, row in table.items() if name.startswith("engine."))
    extra = block.extra
    return {
        "engine.answer_self_rel": answer_self / unit / ops,
        "engine.overhead_share": answer_self / service,
        "engine.solver_build_rel": ratio(statistics.fmean(builds), build_unit)
        if builds else 0.0,
        "engine.busy_share": extra.get("busy_share", 1.0),
        "embed.question_rel": per_op("embed.question"),
        "embed.story_rows_per_ref": ratio(rows_stored, store_units),
        "column.output_rel": per_op("column.output"),
        "column.rows_per_ref": ratio(
            block.counts.get("rows_streamed", 0), table["column.output"]["self"] / unit
        ),
        # Per answer pass of the agreement pass: the timed batches of the
        # open loop depend on measured service times, these repeat exactly.
        "column.flops": counts["flops"] / counts["passes"],
        "column.bytes_read": counts["bytes_read"] / counts["passes"],
        "column.chunk_iters": counts["chunk_iters"] / counts["passes"],
        "zero_skip.rows_kept_share": ratio(
            counts.get("rows_computed", 0),
            counts.get("rows_computed", 0) + counts.get("rows_skipped", 0),
        ),
        "store.read_chunk_rel": per_op("store.read_chunk"),
        "store.fetch_share": table["store.read_chunk"]["total"] / service,
        "store.bytes_read": (ram + disk) / ops,
        "store.lru_hit_share": ratio(ram, ram + disk),
        "store.save_rel": setup["store.save"]["total"] / setup_unit,
        "index.probe_rel": per_op("index.probe"),
        "index.gather_rel": per_op("index.gather"),
        "index.candidate_share": ratio(
            counts.get("candidate_rows", 0), counts.get("index_rows", 0)
        ),
        "index.fallback_share": ratio(
            counts.get("fallback_hops", 0), counts.get("index_hops", 0)
        ),
        "index.build_rel": setup["index.build"]["total"] / setup_unit,
        "early_exit.gate_rel": per_op("early_exit.gate"),
        "early_exit.hops_run_mean": ratio(counts["hops_run"], counts["questions"]),
        "early_exit.exit_share": ratio(counts["exits"], counts["questions"]),
        "batching.queue_wait_rel": extra.get("queue_wait_rel", 0.0),
        "batching.fill_share": extra.get("fill_share", 0.0),
        "batching.batch_size_mean": extra.get("batch_size_mean", 0.0),
        "batching.call_rel": per_op("batching.submit") + per_op("batching.poll"),
        "loadgen.lag_rel": extra.get("lag_rel", 0.0),
        "loadgen.backlog_end": float(extra.get("backlog_end", 0)),
        "trace.unattributed_share": 1.0 - roots / service,
    }


def run_traced(workload, seed: int) -> dict:
    inputs = workload.inputs(seed)
    ops = workload.ops(inputs)
    ref = HostRef(workload.ref)
    tracer = tracing.Tracer()
    try:
        for _ in range(3):
            ref()
        with tracer.installed():
            engine, setup_walls, setup_units = measured_setups(
                workload, inputs, ref, 1
            )
        setup_spans = tracer.take()
        workload.block(engine, inputs, ref, ops[: max(len(ops) // 4, 8)])
        plain = [workload.block(engine, inputs, ref, ops) for _ in range(TRACE_BLOCKS)]
        traced, span_sets = [], []
        last_store = plain[-1].counts.get("store")
        with tracer.installed():
            for _ in range(TRACE_BLOCKS):
                block = workload.block(engine, inputs, ref, ops, tracer)
                block.extra["store_before"] = last_store
                last_store = block.counts.get("store")
                traced.append(block)
                span_sets.append(tracer.take())
        agreement, compared, counts = workload.agreement(inputs, engine)
        engine.close()
        side = side_measurements(workload, inputs, ref, tracer)
    finally:
        ref.close()

    per_block = [
        layer_metrics(
            workload, inputs, block, spans, setup_spans, setup_units[0], counts
        )
        for block, spans in zip(traced, span_sets)
    ]
    layers = {
        name: statistics.median(block[name] for block in per_block)
        for name in per_block[0]
    }
    layers.update({name: 0.0 for name in (
        "execution.process2_vs_serial", "execution.fused4_vs_serial",
        "store.prefetch2_vs_demand", "sharded.merge_rel",
    )})
    layers.update(side)

    def p50_rel(blocks):
        return stats.run_metrics(blocks, workload.slo_limit)["latency_p50_rel"]["value"]

    layers["trace.overhead_share"] = p50_rel(traced) / p50_rel(plain) - 1.0
    layers.update(wall_diagnostics(plain, setup_walls))

    seen = {span[0] for spans in [setup_spans, *span_sets] for span in spans}
    absent = sorted(
        name for _, _, name in tracing.BOUNDARIES
        if name not in seen and name != "sharded.merge"
    )
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {
        name: {"value": float(layers[name]), "unit": unit}
        for name, unit in units.items()
    }
    distorted = [
        f"{name} = {layers[name]:.3f}"
        for name in ("trace.overhead_share", "trace.unattributed_share")
        if layers[name] > MAX_TRACE_DISTORTION
    ]
    return {
        **run_summary(workload, seed, inputs, traced, trace=True),
        "correct": agreement >= workload.agreement_floor and not distorted,
        "distorted": distorted,
        "metrics": metrics,
        "answer_agreement": agreement,
        "counts": counts,
        "absent_spans": absent,
        "spans": {
            "columns": ["name", "start", "end", "parent", "op"],
            "setup": setup_spans,
            "blocks": span_sets,
        },
    }


def report(result: dict) -> None:
    """Every metric by name, with unit, sample count and block values."""
    kind = "traced" if result["trace"] else "gated"
    print(
        f"\n== {result['workload']} ({kind}, seed {result['seed']}, "
        f"{result['blocks']} blocks x {result['ops_per_block']} ops, "
        f"input {result['input_digest'][:12]}) =="
    )
    if result["workload"] == "out_of_core_stream":
        print("   note: the spilled store is read from a warm page cache; "
              "this measures memcpy and the store layer, not a disk")
    for name, entry in result["metrics"].items():
        line = f"  {name:32s} {entry['value']:14.6g} {entry['unit']:8s}"
        if "n" in entry:
            line += f" n={entry['n']}"
        if "blocks" in entry:
            line += "  blocks: " + " ".join(f"{v:.4g}" for v in entry["blocks"])
        print(line)
    for name, value in result.get("wall", {}).items():
        print(f"  {name:32s} {value:14.6g} (diagnostic, not gated)")
    if result.get("absent_spans"):
        print("  boundaries that never fired (absent, not zero): "
              + ", ".join(result["absent_spans"]))
    if result.get("distorted"):
        print("  TRACE DISTORTED, per-layer table not usable: "
              + "; ".join(result["distorted"]))
    if "floor" in result["metrics"].get("answer_agreement", {}):
        entry = result["metrics"]["answer_agreement"]
        verdict = "ok" if entry["value"] >= entry["floor"] else "BELOW FLOOR"
        print(f"  answer_agreement floor {entry['floor']}: {verdict}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--out", type=Path, default=RESULTS)
    args = parser.parse_args(argv)

    apply_blas_limit(1)
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    host = host_fingerprint()
    args.out.mkdir(parents=True, exist_ok=True)
    lines, ok = [], True
    for name in names:
        workload = WORKLOADS[name]
        if args.trace:
            result = run_traced(workload, args.seed)
            spans = result.pop("spans")
            (args.out / f"{name}.trace.json").write_text(json.dumps(spans))
        else:
            result = run_gated(workload, args.seed, args.seconds)
        result["host"] = host
        suffix = "trace.result" if args.trace else "result"
        (args.out / f"{name}.{suffix}.json").write_text(
            json.dumps(result, indent=1, default=lambda o: o.item())
        )
        report(result)
        ok = ok and result["correct"]
        lines.append(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                key: {"value": entry["value"], "unit": entry["unit"]}
                for key, entry in result["metrics"].items()
            },
        }))
    print()
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
