"""Tests of the perfbench harness itself: ``pytest benchmarks/perfbench``
(not collected by the repo's tier-1 run, which has ``testpaths = tests``).
"""

from __future__ import annotations

import ast
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import compare  # noqa: E402
import stats  # noqa: E402
from host_ref import HostRef  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or ".").split(".")[0])
    return names


def test_host_ref_imports_nothing_from_repro():
    # The unit every number is expressed in must not move with the engine.
    assert imported_modules(HERE / "host_ref.py") <= {
        "__future__", "tempfile", "dataclasses", "pathlib", "numpy",
    }


def test_host_ref_repeats_and_cleans_up(tmp_path, monkeypatch):
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    spec = WORKLOADS["out_of_core_stream"].ref
    first, second = HostRef(spec), HostRef(spec)
    try:
        assert first() == first() == second()
        assert any(tmp_path.iterdir())
    finally:
        first.close()
        second.close()
    assert not any(tmp_path.iterdir())


def test_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(1, 111)]
    assert stats.tail_percentile(values, 0.9) == 99.0  # 11 beyond
    assert stats.tail_percentile(values[:100], 0.9) == 90.0  # exactly 10 beyond
    with pytest.raises(ValueError, match="9 beyond"):
        stats.tail_percentile(values[:99], 0.9)
    with pytest.raises(ValueError):
        stats.tail_percentile(values, 0.99)


def hand_block(op_seconds: float, ref_seconds: float, n: int = 110) -> stats.Block:
    """``n`` ops of ``op_seconds`` (every tenth one 3x slower), one
    question each, a reference of ``ref_seconds`` before and after each."""
    latencies = [op_seconds * (3 if i % 10 == 9 else 1) for i in range(n)]
    return stats.Block(
        latencies=latencies, questions=[1] * n, refs=[ref_seconds] * (n + 1)
    )


def test_ref_unit_and_block_arithmetic():
    block = hand_block(op_seconds=0.02, ref_seconds=0.005)
    assert block.ref_unit == 0.005
    metrics = stats.block_metrics(block, slo_limit=8.0)
    assert metrics["latency_p50_rel"] == pytest.approx(4.0)
    assert metrics["latency_p90_rel"] == pytest.approx(4.0)  # 99 of 110 are fast
    # Throughput over the ops at or below p90: 99 questions in 99 x 4 ref units.
    assert metrics["throughput_rel"] == pytest.approx(0.25)
    assert metrics["slo_share"] == pytest.approx(99 / 110)  # 12 ref > 8 ref
    assert metrics["success_share"] == 1.0


def test_an_op_is_divided_by_the_two_references_around_it():
    block = stats.Block(
        latencies=[0.02, 0.03], questions=[1, 1], refs=[0.004, 0.006, 0.009]
    )
    assert block.op_units() == pytest.approx([0.005, 0.0075])
    with pytest.raises(ValueError, match="need 3 interleaved"):
        stats.Block(latencies=[0.02, 0.03], questions=[1, 1], refs=[0.004]).op_units()


def test_a_slower_host_reads_the_same():
    fast = stats.block_metrics(hand_block(0.02, 0.005), 8.0)
    slow = stats.block_metrics(hand_block(0.04, 0.010), 8.0)
    assert fast == pytest.approx(slow)
    # ... and so does a host that slows down half way through a block.
    block = hand_block(0.02, 0.005)
    half = len(block.latencies) // 2
    block.latencies[half:] = [2 * lat for lat in block.latencies[half:]]
    block.refs[half + 1 :] = [2 * ref for ref in block.refs[half + 1 :]]
    phased = stats.block_metrics(block, 8.0)
    assert phased["latency_p50_rel"] == pytest.approx(4.0)
    assert phased["throughput_rel"] == pytest.approx(0.25, rel=0.01)


def test_an_ops_latency_is_its_median_over_the_replays():
    blocks = [hand_block(0.02, 0.005) for _ in range(5)]
    # A stall hits a different fifth of the ops in every block ...
    for shift, block in enumerate(blocks):
        for index in range(shift, 110, 5):
            block.latencies[index] *= 4
    per_block = [stats.block_metrics(block, 100.0) for block in blocks]
    assert all(b["latency_p90_rel"] >= 12.0 for b in per_block)  # a stalled op
    run = stats.run_metrics(blocks, slo_limit=8.0)
    # ... so each op's median over the five replays does not see it:
    # what is left is the op sequence's own tail, every tenth op 3x.
    assert run["latency_p50_rel"]["value"] == pytest.approx(4.0)
    assert run["latency_p90_rel"]["value"] == pytest.approx(4.0)
    assert run["throughput_rel"]["value"] == pytest.approx(110 / (99 * 4 + 11 * 12))
    assert run["latency_p90_rel"]["blocks"] == [b["latency_p90_rel"] for b in per_block]
    # slo_share still counts every attempt over the limit.
    assert run["slo_share"]["value"] < 0.8
    assert run["success_share"]["value"] == 1.0


def test_success_share_is_pooled_over_the_run():
    blocks = [hand_block(0.02, 0.005) for _ in range(5)]
    blocks[3].latencies[7] = None
    blocks[3].questions[7] = 0
    run = stats.run_metrics(blocks, slo_limit=100.0)
    assert run["success_share"]["value"] == pytest.approx(1 - 1 / 550)
    assert run["slo_share"]["value"] == 1.0  # the median block had no miss
    assert run["latency_p50_rel"]["value"] == pytest.approx(4.0)


def test_open_loop_throughput_is_per_busy_ref_unit():
    block = hand_block(0.02, 0.005)
    block.refs[-1] = 9.0  # the median ignores a hiccup
    block.span, block.busy = 10.0, 1.1
    assert stats.block_metrics(block, 8.0)["throughput_rel"] == pytest.approx(
        110 / (1.1 / 0.005)
    )


def test_normalised_setup_is_the_fastest_one():
    # 2 s against a 10 ms reference is 200 ref units; so is 1 s against
    # 5 ms; the set-up a disk stall hit (900) does not count.
    assert stats.normalised_setup(
        [2.0, 9.0, 1.0], [0.010, 0.010, 0.005], nominal=0.004
    ) == pytest.approx(200 * 0.004)


def test_failed_ops_lower_success_and_slo_share():
    block = hand_block(0.02, 0.005, n=130)
    for index in range(0, 130, 13):
        block.latencies[index] = None
        block.questions[index] = 0
    metrics = stats.block_metrics(block, slo_limit=100.0)
    assert metrics["success_share"] == pytest.approx(120 / 130)
    assert metrics["slo_share"] == pytest.approx(120 / 130)


def test_an_op_that_raises_is_counted_not_fatal():
    workload = WORKLOADS["story_turns"]
    inputs = workload.inputs(0)
    ops = workload.ops(inputs)[:130]
    ref = HostRef(workload.ref)
    engine = workload.cold_setup(inputs)
    calls = iter(range(10**9))
    answer = engine.answer

    def flaky(question):
        if next(calls) % 40 == 0:
            raise RuntimeError("forced failure")
        return answer(question)

    engine.answer = flaky
    block = workload.block(engine, inputs, ref, ops)
    metrics = stats.block_metrics(block, workload.slo_limit)
    failed = sum(lat is None for lat in block.latencies)
    assert 0 < failed < 20
    assert metrics["success_share"] == pytest.approx(1 - failed / 130)
    assert metrics["slo_share"] <= metrics["success_share"]
    assert "forced failure" in block.extra["failures"][0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_the_inputs(name):
    workload = WORKLOADS[name]
    assert digest(workload.inputs(3)) == digest(workload.inputs(3))
    assert digest(workload.inputs(3)) != digest(workload.inputs(4))


def test_same_seed_gives_identical_counts_and_agreement():
    workload = WORKLOADS["story_turns"]
    ref = HostRef(workload.ref)
    blocks, checks = [], []
    for _ in range(2):
        inputs = workload.inputs(5)
        engine = workload.cold_setup(inputs)
        blocks.append(workload.block(engine, inputs, ref, workload.ops(inputs)[:40]))
        checks.append(workload.agreement(inputs, engine))
    assert blocks[0].counts == blocks[1].counts
    assert blocks[0].counts["flops"] > 0
    assert checks[0] == checks[1]
    share, compared, counts = checks[0]
    assert share >= workload.agreement_floor and compared > 256
    assert counts["questions"] == compared


def test_open_loop_block_runs_on_ref_units():
    workload = WORKLOADS["docqa_sessions"]
    inputs = workload.inputs(0)
    ref = HostRef(workload.ref)
    engine = workload.cold_setup(inputs)
    block = workload.block(engine, inputs, ref, workload.ops(inputs)[:200])
    assert block.span is not None and 0 < block.busy < block.span
    assert all(lat is not None and lat > 0 for lat in block.latencies)
    assert sum(block.questions) == 200
    # One reference call before the block and one after every batch.
    assert len(block.refs) == 1 + round(200 / block.extra["batch_size_mean"])
    metrics = stats.block_metrics(block, workload.slo_limit)
    # Nobody waits less than the service of one batch or (much) longer
    # than max_wait plus a few batches.
    assert 1.0 < metrics["latency_p50_rel"] < workload.slo_limit
    assert block.extra["backlog_end"] <= 16


def test_benchmark_json_matches_the_code():
    spec = compare.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "throughput_rel", "latency_p50_rel", "latency_p90_rel", "slo_share",
        "success_share", "answer_agreement", "setup_s", "peak_rss_mb",
    ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    for workload in WORKLOADS.values():
        assert len(workload.ops(workload.inputs(0))) >= 110


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    same = compare.judge(steady, steady[::-1], "lower", 0.1)
    assert same["verdict"] == "within bound"
    slower = compare.judge(steady, [v * 1.2 for v in steady], "lower", 0.1)
    assert slower["verdict"] == "regression"
    assert slower["worse_by"] == pytest.approx(0.2)
    # Higher is better: the same numbers are a gain.
    faster = compare.judge(steady, [v * 1.2 for v in steady], "higher", 0.1)
    assert faster["verdict"] == "gain" and faster["b_wins"] == 10
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 9.0, 11.0, 6.0, 15.0]
    assert compare.judge(noisy, steady, "lower", 0.1)["verdict"] == "unresolved"
    # ... unless every run of B beats every run of A.
    assert compare.judge(noisy, [v / 3 for v in steady], "lower", 0.1)["verdict"] == "gain"
    assert statistics.median(noisy) == 10.5
