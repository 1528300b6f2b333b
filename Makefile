# Developer entry points.  `make check` is the tier-1 gate: lint (when
# ruff is available) plus the unit/integration test suite.  pytest is
# quiet already (pyproject.toml's addopts = "-q"): another -q here would
# drop the "N passed" summary line.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test test-fast test-slowest bench bench-core serving \
	perfbench perfbench-compare perfbench-smoke loc kernel kernel-sanitize \
	topk-crossover

check: lint test

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

test:
	$(PYTHON) -m pytest -x

# Build (or load from the cache) the compiled tile fold, src/repro/core/
# _fold.c, and print which fold TileState runs: "c", or "numpy: <why>".
# The bag-of-words embedding and the float32 answer layer are in the
# same library and follow it.
# Where cc exists it first checks the source from the repo root with
# warnings as errors and the loader's own flags (compiled_fold.FLAGS:
# without -fopenmp-simd, -Wall rejects the `omp simd` pragmas the build
# honours), so a warning or a path-dependent include fails here.  CI
# runs it before `make check`, so the first compile (about a second)
# never lands inside one test's PYTEST_MAX_TEST_SECONDS budget.
kernel:
	@if command -v cc >/dev/null 2>&1; then \
		cc $$($(PYTHON) -c 'from repro.core.compiled_fold import FLAGS; print(*FLAGS)') \
			-Wall -Wextra -Werror -fsyntax-only src/repro/core/_fold.c; \
	fi
	@$(PYTHON) -c 'from repro.core import fold_backend; print("fold:", fold_backend())'

# The kernel-path tests against an AddressSanitizer + UBSan build of
# _fold.c: tests/kernel_sanitize.py appends the sanitizer flags to
# compiled_fold.FLAGS (a separate library cache entry) and fails the
# session unless that build is the fold that runs.  Both runtimes are
# preloaded into python (the sanitized library is loaded by ctypes, after
# the interpreter started); leak checking is off because the interpreter
# itself never frees everything.  --capture=sys leaves file descriptor 2
# alone, so a report (printed just before the sanitizer aborts the
# process) is not lost in pytest's capture file.  The cache directory is
# temporary, so the sanitized library never lands in the user's cache.
SANITIZE_TESTS = tests/test_compiled_fold.py tests/test_tile_plan.py \
	tests/test_scan_blas.py tests/test_core_sparse_readout.py \
	tests/test_index.py tests/test_answer_records.py \
	tests/test_solver_intake.py tests/test_float32_grid.py \
	tests/test_differential_paths.py tests/test_dialogue_writes.py \
	tests/test_core_sharded.py tests/test_out_of_core_pass.py

kernel-sanitize:
	@cache=$$(mktemp -d) && trap 'rm -rf "$$cache"' EXIT && \
	LD_PRELOAD="$$(cc -print-file-name=libasan.so) $$(cc -print-file-name=libubsan.so)" \
	ASAN_OPTIONS=detect_leaks=0 XDG_CACHE_HOME="$$cache" \
		$(PYTHON) -m pytest -p tests.kernel_sanitize --capture=sys $(SANITIZE_TESTS)

# Skip the slow (model-training) tests for a quick local loop.
test-fast:
	$(PYTHON) -m pytest -x -m "not slow"

# Where does the suite's time go?  Top 15 slowest test phases.  Set
# PYTEST_MAX_TEST_SECONDS (as CI does) to fail any single test that
# exceeds the budget — the runaway-test gate lives in tests/conftest.py.
test-slowest:
	$(PYTHON) -m pytest --durations=15

# Every bench at its full scale, by hand: the paper figures and the
# extension benches' wall-clock gates.  Their deterministic gates live
# in tier-1 (tests/); perfbench is the timing system CI runs.
bench:
	$(PYTHON) -m pytest benchmarks

# Full-scale core-engine trajectory (serial vs process/fused
# arrangements), rewriting BENCH_core.json.  On a >= 4-CPU host this
# enforces the multicore acceptance gates; below that BENCH_core.json
# records an explicit parallel_gate.skipped_reason.
bench-core:
	$(PYTHON) -m pytest benchmarks/bench_parallel_speedup.py

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
# answer-agreement floor, and four traced runs: story_turns (~2 s) —
# the dialogue path, the only traced run whose writes cross store_story
# and clear_memories between reads; a read is one compiled call that
# crosses neither embed_question nor ColumnMemNN.output, so those spans
# read 0 there (tests/test_answer_records.py) —, out_of_core_stream
# (~3 s) — the only workload whose hops run through a chunk pipeline;
# its tier holds every chunk, so only a set-up's cold answer crosses
# ColumnMemNN.output and the others are one compiled call each
# (DESIGN.md §11, "The held pass"), while store.lru_hit_share must
# read 1.0 —, table1_batch (~12 s) —
# the only caller of EngineConfig.fused(4), the 2-worker process config
# and the vars(cls)[attr] span boundaries, so a refactor that moves a
# method off its class fails here — and docqa_sessions (~15 s), the
# only traced run that crosses the early_exit.gate and batching.*
# boundaries (the engine module's logit_margin_confidence,
# ContinuousBatcher.submit/poll).  Its 4 096 rows are below
# TopKConfig.min_rows, so it reads index.fallback_share 1.0 and never
# reaches IVFIndex.build/probe: tests/test_index.py holds those.
perfbench-smoke:
	$(PYTHON) -m pytest benchmarks/perfbench
	$(PYTHON) benchmarks/perfbench/run.py --workload story_turns --seconds 5 > /dev/null
	$(PYTHON) benchmarks/perfbench/run.py --workload out_of_core_stream --seconds 5 > /dev/null
	$(PYTHON) benchmarks/perfbench/run.py --workload story_turns --trace 1 > /dev/null
	$(PYTHON) benchmarks/perfbench/run.py --workload out_of_core_stream --trace 1 > /dev/null
	$(PYTHON) benchmarks/perfbench/run.py --workload table1_batch --trace 1 > /dev/null
	$(PYTHON) benchmarks/perfbench/run.py --workload docqa_sessions --trace 1 > /dev/null

# The sweep TopKConfig.min_rows is set from (DESIGN.md §12):
# engine.answer, exact scan vs the top-k tier at two sizings, 2 048 to
# 32 768 rows, nq 1/4/8, in host-reference units (~10 s).  BLAS is
# pinned to one thread, as perfbench pins it.
topk-crossover:
	OPENBLAS_NUM_THREADS=1 $(PYTHON) -m pytest benchmarks/bench_topk_recall.py -s -k crossover

# Line counts ROADMAP.md tracks (aim 2: src/ should go down); src/
# counts its C source too.
loc:
	@for dir in src tests benchmarks; do \
		printf '%-11s %s\n' $$dir "$$(find $$dir -name '*.py' -o -name '*.c' | xargs cat | wc -l)"; \
	done
