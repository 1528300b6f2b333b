# Developer entry points.  `make check` is the tier-1 gate: lint (when
# ruff is available) plus the unit/integration test suite.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test test-fast test-slowest bench bench-smoke bench-core serving \
	perfbench perfbench-compare perfbench-smoke loc

check: lint test

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

test:
	$(PYTHON) -m pytest -x -q

# Skip the slow (model-training) tests for a quick local loop.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Where does the suite's time go?  Top 15 slowest test phases.  Set
# PYTEST_MAX_TEST_SECONDS (as CI does) to fail any single test that
# exceeds the budget — the runaway-test gate lives in tests/conftest.py.
test-slowest:
	$(PYTHON) -m pytest -q --durations=15

bench:
	$(PYTHON) -m pytest benchmarks -q

# Reduced-scale batching/serving/core/store benches (seconds, not
# minutes) — the CI gate for the BENCH_*.json emission path.  The
# validator then checks every emitted artifact parses and carries a
# payload.  bench_serving_overload.py emits no artifact; it is here as
# the only bench on the serving loop's retry + degradation path.
bench-smoke:
	BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_batching.py benchmarks/bench_serving.py benchmarks/bench_serving_overload.py benchmarks/bench_parallel_speedup.py benchmarks/bench_store_streaming.py benchmarks/bench_topk_recall.py benchmarks/bench_early_exit.py benchmarks/bench_cluster.py benchmarks/bench_docqa.py -q
	$(PYTHON) benchmarks/validate_artifacts.py

# Full-scale core-engine trajectory (serial vs process/fused
# arrangements) + artifact validation.  On a >= 4-CPU host this enforces
# the multicore acceptance gates; below that BENCH_core.json records
# an explicit parallel_gate.skipped_reason.
bench-core:
	$(PYTHON) -m pytest benchmarks/bench_parallel_speedup.py -q
	$(PYTHON) benchmarks/validate_artifacts.py

serving:
	$(PYTHON) -m repro serving

# perfbench (BENCHMARK.json): one set of gated runs — all four
# workloads, seeds 0-9, ~20 s each — into results/perfbench/<LABEL>/.
# To judge a change, run a set in a checkout of the parent commit and
# one here (alternating which goes first), then
# `make perfbench-compare A=<parent set> B=<change set>`; the exit code
# is 1 on a regression beyond BENCHMARK.json's bounds.
LABEL ?= local

perfbench:
	@for seed in 0 1 2 3 4 5 6 7 8 9; do \
		$(PYTHON) benchmarks/perfbench/run.py --seed $$seed \
			--out results/perfbench/$(LABEL)/$$seed > /dev/null || exit 1; \
		echo "perfbench $(LABEL): seed $$seed done"; \
	done

perfbench-compare:
	$(PYTHON) benchmarks/perfbench/compare.py $(A) $(B)

# The CI step after tier-1: the harness's own tests (~9 s), short
# story_turns and out_of_core_stream runs whose exit codes check the
# answer-agreement floor, and two traced runs: table1_batch (~12 s) —
# the only caller of EngineConfig.fused(4), the 2-worker process config
# and the vars(cls)[attr] span boundaries, so a refactor that moves a
# method off its class fails here — and docqa_sessions (~15 s), the
# only traced run that crosses the index.*, early_exit.gate and
# batching.* boundaries (IVFIndex.probe, the engine module's
# logit_margin_confidence, ContinuousBatcher.submit/poll).
perfbench-smoke:
	$(PYTHON) -m pytest benchmarks/perfbench -q
	$(PYTHON) benchmarks/perfbench/run.py --workload story_turns --seconds 5 > /dev/null
	$(PYTHON) benchmarks/perfbench/run.py --workload out_of_core_stream --seconds 5 > /dev/null
	$(PYTHON) benchmarks/perfbench/run.py --workload table1_batch --trace 1 > /dev/null
	$(PYTHON) benchmarks/perfbench/run.py --workload docqa_sessions --trace 1 > /dev/null

# Line counts ROADMAP.md tracks (aim 2: src/ should go down).
loc:
	@for dir in src tests benchmarks; do \
		printf '%-11s %s\n' $$dir "$$(find $$dir -name '*.py' | xargs cat | wc -l)"; \
	done
