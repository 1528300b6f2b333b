"""Validate the BENCH_*.json artifacts the benchmark suite emits.

Every benchmark that calls :func:`emit.emit` leaves a machine-readable
``BENCH_<name>.json`` at the repository root; downstream tooling (CI
trend lines, the roadmap's acceptance checks) diffs those files across
runs.  A benchmark that silently emits an empty or unparseable
artifact would poison that pipeline without failing any test — this
validator is the ``make bench-smoke`` gate that catches it:

* every ``BENCH_*.json`` parses as a JSON object;
* it records the ``smoke`` key :func:`emit.emit` guarantees (so full
  and reduced-scale artifacts are distinguishable);
* it carries at least one non-empty payload key beyond ``smoke``
  (headline numbers, series, workload — an artifact with nothing but
  the mode flag measured nothing);
* artifacts with a registered schema (:data:`SCHEMAS`) additionally
  satisfy it — ``BENCH_topk.json`` must carry the sublinearity
  evidence (an ``ns_sweep`` of >= 3 increasing sizes spanning >= 64x)
  and the held ``recall_floor``.

Run directly (``python benchmarks/validate_artifacts.py``) or let
``make bench-smoke`` / CI invoke it after the smoke benches.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Repository root — artifacts live at <root>/BENCH_<name>.json.
REPO_ROOT = Path(__file__).resolve().parent.parent


def _empty(value) -> bool:
    """True for payload values that carry no measurement."""
    return value is None or value == {} or value == [] or value == ""


#: Sweep-point keys the top-k trajectory needs to be diffable.
_TOPK_POINT_KEYS = {"ns", "topk_seconds", "exact_seconds", "agreement",
                    "mean_recall"}

#: Minimum size span of the top-k sweep (the sublinearity acceptance
#: is meaningless over a narrow range).
_TOPK_MIN_SPAN = 64


def _validate_topk(payload: dict) -> list[str]:
    """Schema of ``BENCH_topk.json`` (the ISSUE 6 acceptance artifact):
    an ``ns_sweep`` of at least three increasing memory sizes, the
    largest at least 64x the smallest, each point carrying the timing
    and quality fields, plus the ``recall_floor`` the sweep held."""
    sweep = payload.get("ns_sweep")
    if not isinstance(sweep, list) or len(sweep) < 3:
        return ["ns_sweep must be a list of at least 3 sweep points"]
    problems = []
    for point in sweep:
        if not isinstance(point, dict) or not _TOPK_POINT_KEYS <= point.keys():
            problems.append(
                "every ns_sweep point needs the keys "
                + "/".join(sorted(_TOPK_POINT_KEYS))
            )
            break
    sizes = [p.get("ns", 0) for p in sweep if isinstance(p, dict)]
    if len(sizes) == len(sweep):
        if sizes[0] <= 0 or sizes != sorted(sizes):
            problems.append("ns_sweep sizes must be positive and increasing")
        elif sizes[-1] < _TOPK_MIN_SPAN * sizes[0]:
            problems.append(
                f"ns_sweep must span >= {_TOPK_MIN_SPAN}x "
                f"(got {sizes[0]}..{sizes[-1]})"
            )
    floor = payload.get("recall_floor")
    if not isinstance(floor, (int, float)) or not 0.0 < floor <= 1.0:
        problems.append("recall_floor must be a number in (0, 1]")
    return problems


#: Sweep-point keys the early-exit trajectory needs to be diffable.
_EARLYEXIT_POINT_KEYS = {"threshold", "seconds", "agreement", "mean_hops",
                         "speedup_vs_full"}


def _validate_earlyexit(payload: dict) -> list[str]:
    """Schema of ``BENCH_earlyexit.json`` (the ISSUE 7 acceptance
    artifact): a ``threshold_sweep`` starting at the disabled gate
    (threshold 0) with increasing thresholds, each point carrying the
    timing and quality fields; a non-null ``best_qualifying`` point
    that actually clears both emitted floors; and the paired overload
    counters showing the exit-armed server timed out no more requests
    than the full-depth one."""
    problems = []
    sweep = payload.get("threshold_sweep")
    if not isinstance(sweep, list) or len(sweep) < 4:
        return ["threshold_sweep must be a list of at least 4 sweep points"]
    for point in sweep:
        if (
            not isinstance(point, dict)
            or not _EARLYEXIT_POINT_KEYS <= point.keys()
        ):
            problems.append(
                "every threshold_sweep point needs the keys "
                + "/".join(sorted(_EARLYEXIT_POINT_KEYS))
            )
            break
    thresholds = [p.get("threshold") for p in sweep if isinstance(p, dict)]
    if len(thresholds) == len(sweep) and all(
        isinstance(t, (int, float)) for t in thresholds
    ):
        if thresholds[0] != 0.0:
            problems.append(
                "threshold_sweep must start at 0 (the full-depth reference)"
            )
        if thresholds != sorted(thresholds):
            problems.append("threshold_sweep thresholds must be increasing")
    agreement_floor = payload.get("agreement_floor")
    speedup_floor = payload.get("speedup_floor")
    if not isinstance(agreement_floor, (int, float)) or not (
        0.0 < agreement_floor <= 1.0
    ):
        problems.append("agreement_floor must be a number in (0, 1]")
    if not isinstance(speedup_floor, (int, float)) or speedup_floor < 1.0:
        problems.append("speedup_floor must be a number >= 1")
    best = payload.get("best_qualifying")
    if not isinstance(best, dict):
        problems.append(
            "best_qualifying must be a sweep point (no threshold cleared "
            "both floors)"
        )
    elif isinstance(agreement_floor, (int, float)) and isinstance(
        speedup_floor, (int, float)
    ):
        if not (
            best.get("agreement", 0) >= agreement_floor
            and best.get("speedup_vs_full", 0) >= speedup_floor
        ):
            problems.append(
                "best_qualifying does not clear the emitted floors"
            )
    overload = payload.get("overload")
    if not isinstance(overload, dict):
        problems.append("missing the paired overload run")
    else:
        full = overload.get("full_depth", {})
        armed = overload.get("exit_armed", {})
        if not (
            isinstance(full, dict)
            and isinstance(armed, dict)
            and isinstance(full.get("timed_out"), int)
            and isinstance(armed.get("timed_out"), int)
        ):
            problems.append(
                "overload must carry full_depth/exit_armed timed_out counts"
            )
        elif armed["timed_out"] > full["timed_out"]:
            problems.append(
                "exit-armed server timed out more requests than full depth"
            )
    return problems


#: Per-policy keys the routing comparison needs to be diffable.
_CLUSTER_POLICY_KEYS = {"chunk_hit_rate", "latency_p50", "latency_p95",
                        "throughput_rps", "completed"}


def _validate_cluster(payload: dict) -> list[str]:
    """Schema of ``BENCH_cluster.json`` (the ISSUE 8 acceptance
    artifact): a routing comparison where cache-affinity strictly
    beats round-robin on chunk hit-rate *and* p50 latency on the
    skewed workload, and a burst replay where the autoscaled fleet
    times out strictly fewer requests than the static baseline while
    recording a non-empty decision trace."""
    problems = []
    routing = payload.get("routing")
    policies = routing.get("policies") if isinstance(routing, dict) else None
    if not isinstance(policies, dict):
        return ["routing.policies must map policy names to summaries"]
    for name in ("round_robin", "cache_affinity"):
        point = policies.get(name)
        if not isinstance(point, dict) or not _CLUSTER_POLICY_KEYS <= point.keys():
            problems.append(
                f"routing.policies.{name} needs the keys "
                + "/".join(sorted(_CLUSTER_POLICY_KEYS))
            )
    if not problems:
        affinity = policies["cache_affinity"]
        rr = policies["round_robin"]
        if not affinity["chunk_hit_rate"] > rr["chunk_hit_rate"]:
            problems.append(
                "cache-affinity must strictly beat round-robin on chunk "
                "hit-rate"
            )
        if not affinity["latency_p50"] < rr["latency_p50"]:
            problems.append(
                "cache-affinity must strictly beat round-robin on p50 "
                "latency"
            )
    autoscaler = payload.get("autoscaler")
    burst = autoscaler.get("burst") if isinstance(autoscaler, dict) else None
    if not isinstance(burst, dict):
        problems.append("missing the autoscaler burst replay")
        return problems
    static = burst.get("static", {})
    autoscaled = burst.get("autoscaled", {})
    if not (
        isinstance(static, dict)
        and isinstance(autoscaled, dict)
        and isinstance(static.get("timed_out"), int)
        and isinstance(autoscaled.get("timed_out"), int)
    ):
        problems.append(
            "burst must carry static/autoscaled timed_out counts"
        )
    else:
        if autoscaled["timed_out"] >= static["timed_out"]:
            problems.append(
                "autoscaled fleet must time out strictly fewer requests "
                "than the static baseline"
            )
        if not autoscaled.get("decisions"):
            problems.append(
                "autoscaled burst run must record scaling decisions"
            )
    return problems


#: Series the core-engine trajectory must have timed to be diffable.
_CORE_REQUIRED_SERIES = {
    "seed_column", "column_f64_reference", "column_f32",
    "sharded_serial", "fused_serial", "fused_f32",
    "sharded_process_1", "sharded_process_2", "sharded_process_4",
}

#: Machine-description keys the core artifact must record so a
#: regression report names the machine class it measured.
_CORE_BLAS_KEYS = {"implementation", "max_threads", "control"}

#: Measurement-noise allowance on the parallel ratios (mirrors the
#: benchmark's own acceptance).
_CORE_NOISE = 0.10


def _validate_core(payload: dict) -> list[str]:
    """Schema of ``BENCH_core.json`` (the ISSUE 9 acceptance artifact):
    the serial/process/fused wall-clock series plus the machine
    description (CPU count, BLAS implementation, effective worker
    thread limit), and a ``parallel_gate`` that is *either* enforced —
    process and fused never lose to serial, the multicore headline
    beats the recorded single-core baseline — or explicitly skipped
    with a ``skipped_reason`` naming the too-small CPU count.  A
    sub-``required_cpus`` runner must not pass the gate vacuously."""
    problems = []
    cpu_count = payload.get("cpu_count")
    if not isinstance(cpu_count, int) or cpu_count < 1:
        problems.append("cpu_count must be a positive integer")
    blas = payload.get("blas")
    if not isinstance(blas, dict) or not _CORE_BLAS_KEYS <= blas.keys():
        problems.append(
            "blas must record " + "/".join(sorted(_CORE_BLAS_KEYS))
        )
    if "worker_blas_threads" not in payload:
        problems.append("missing worker_blas_threads (effective per-worker "
                        "BLAS thread limit)")
    series = payload.get("series_seconds")
    if not isinstance(series, dict) or not _CORE_REQUIRED_SERIES <= series.keys():
        problems.append(
            "series_seconds must time "
            + "/".join(sorted(_CORE_REQUIRED_SERIES))
        )
    gate = payload.get("parallel_gate")
    if not isinstance(gate, dict) or not isinstance(
        gate.get("required_cpus"), int
    ):
        return problems + ["parallel_gate must carry required_cpus"]
    skipped = gate.get("skipped_reason")
    if skipped is not None:
        # An explicit skip is only honest on a runner that actually
        # lacks the cores; otherwise it hides a regression.
        if not isinstance(skipped, str) or not skipped:
            problems.append("parallel_gate.skipped_reason must be a "
                            "non-empty string")
        if isinstance(cpu_count, int) and cpu_count >= gate["required_cpus"]:
            problems.append(
                f"parallel_gate skipped on a {cpu_count}-CPU host that "
                f"meets required_cpus={gate['required_cpus']}"
            )
        return problems
    ratios = gate.get("process_vs_serial")
    if not isinstance(ratios, dict) or not ratios:
        problems.append(
            "enforced parallel_gate must carry process_vs_serial ratios"
        )
    else:
        for workers, ratio in sorted(ratios.items()):
            if not isinstance(ratio, (int, float)) or ratio < 1.0 - _CORE_NOISE:
                problems.append(
                    f"process backend at {workers} workers lost to serial: "
                    f"{ratio}"
                )
    fused = gate.get("fused_vs_serial")
    if not isinstance(fused, (int, float)) or fused < 1.0 - _CORE_NOISE:
        problems.append(f"fused tile kernel lost to the per-shard loop: {fused}")
    headline = gate.get("headline_speedup")
    baseline = gate.get("baseline_headline")
    if not (
        isinstance(headline, (int, float))
        and isinstance(baseline, (int, float))
        and headline > baseline
    ):
        problems.append(
            f"multicore headline {headline} must beat the recorded "
            f"single-core baseline {baseline}"
        )
    return problems


#: Metric keys every docqa config summary must carry.
_DOCQA_CONFIG_KEYS = {"recall_at_k", "mrr", "span_hit_rate",
                      "mean_attention_mass", "runs"}


def _validate_docqa(payload: dict) -> list[str]:
    """Schema of ``BENCH_docqa.json`` (the ISSUE 10 acceptance
    artifact): qrels metric summaries for the exact / top-k /
    early-exit configs, each having scored at least one query; the
    emitted gates actually held — the calibrated top-k point clears
    the recall floor *without* examining the whole memory (a
    candidate fraction of 1.0 means the tier degenerated to an exact
    scan and the recall gate passed vacuously), and the early-exit
    span-hit delta stays within tolerance while the gate genuinely
    fired (mean hops below the configured depth)."""
    problems = []
    configs = payload.get("configs")
    if not isinstance(configs, dict):
        return ["configs must map config names to qrels metric summaries"]
    for name in ("exact", "topk", "early_exit"):
        point = configs.get(name)
        if not isinstance(point, dict) or not _DOCQA_CONFIG_KEYS <= point.keys():
            problems.append(
                f"configs.{name} needs the keys "
                + "/".join(sorted(_DOCQA_CONFIG_KEYS))
            )
        elif not (isinstance(point["runs"], int) and point["runs"] >= 1):
            problems.append(f"configs.{name} scored no queries (runs < 1)")
    gates = payload.get("gates")
    if not isinstance(gates, dict):
        return problems + ["missing the gates block"]
    floor = gates.get("recall_floor")
    tolerance = gates.get("span_hit_tolerance")
    if not isinstance(floor, (int, float)) or not 0.0 < floor <= 1.0:
        problems.append("gates.recall_floor must be a number in (0, 1]")
    if not isinstance(tolerance, (int, float)) or tolerance < 0:
        problems.append("gates.span_hit_tolerance must be a number >= 0")
    if problems:
        return problems
    topk = configs["topk"]
    if not topk["recall_at_k"] >= floor:
        problems.append(
            f"calibrated top-k recall {topk['recall_at_k']} is below the "
            f"floor {floor}"
        )
    fraction = topk.get("mean_candidate_fraction")
    if not isinstance(fraction, (int, float)) or not fraction < 1.0:
        problems.append(
            "top-k candidate fraction must be < 1.0 — at 1.0 the tier "
            "examined the whole memory and the recall gate is vacuous"
        )
    if not isinstance(payload.get("calibrated_nprobe"), int):
        problems.append("missing calibrated_nprobe (the ladder's pick)")
    delta = payload.get("span_hit_delta")
    if not isinstance(delta, (int, float)) or delta > tolerance:
        problems.append(
            f"early-exit span-hit delta {delta} exceeds the tolerance "
            f"{tolerance}"
        )
    hops = payload.get("workload", {}).get("hops")
    early_hops = configs["early_exit"].get("mean_hops")
    if not (
        isinstance(hops, int)
        and isinstance(early_hops, (int, float))
        and early_hops < hops
    ):
        problems.append(
            "early-exit mean hops must be below the configured depth — "
            "a gate that never fires makes the span-hit comparison vacuous"
        )
    return problems


#: Artifact-specific schema checks, keyed by file name.
SCHEMAS = {
    "BENCH_topk.json": _validate_topk,
    "BENCH_earlyexit.json": _validate_earlyexit,
    "BENCH_cluster.json": _validate_cluster,
    "BENCH_core.json": _validate_core,
    "BENCH_docqa.json": _validate_docqa,
}


def validate_artifact(path: Path) -> list[str]:
    """Problems with one artifact (empty list = valid)."""
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        return [f"not valid JSON: {error}"]
    if not isinstance(payload, dict):
        return [f"expected a JSON object, got {type(payload).__name__}"]
    problems = []
    if "smoke" not in payload:
        problems.append("missing the 'smoke' mode key emit() guarantees")
    content = {
        key: value for key, value in payload.items()
        if key != "smoke" and not _empty(value)
    }
    if not content:
        problems.append("no non-empty payload keys besides 'smoke'")
    schema = SCHEMAS.get(path.name)
    if schema is not None:
        problems.extend(schema(payload))
    return problems


def main(root: Path | None = None) -> int:
    """Validate every ``BENCH_*.json`` under ``root`` (repo root by
    default).  Returns a process exit code; prints one line per file.
    """
    root = root if root is not None else REPO_ROOT
    artifacts = sorted(root.glob("BENCH_*.json"))
    if not artifacts:
        print(f"no BENCH_*.json artifacts found under {root}", file=sys.stderr)
        return 1
    failed = 0
    for path in artifacts:
        problems = validate_artifact(path)
        if problems:
            failed += 1
            for problem in problems:
                print(f"FAIL {path.name}: {problem}")
        else:
            print(f"ok   {path.name}")
    if failed:
        print(f"{failed}/{len(artifacts)} artifacts invalid", file=sys.stderr)
        return 1
    print(f"{len(artifacts)} artifacts valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
