"""The four perfbench workloads.

Each one drives the public ``MnnFastEngine`` API with arrays generated
from ``--seed`` and is built so that a different set of layers carries
the result (README, "Workloads").  Everything here is single-threaded:
no worker pool or prefetch thread sits on a gated path, because two
busy vCPUs do not repeat on the hosts this runs on.

Per-workload constants (reference shape, ``ref_nominal_s``, SLO limit,
agreement floor) live on the workload objects at the bottom of the
file; ``BENCHMARK.json`` holds only what its schema allows.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import traceback
from collections import Counter

import numpy as np

from host_ref import HostRef, RefSpec
from stats import Block

from repro.batching.batcher import ContinuousBatcher
from repro.core import EngineConfig, MemNNConfig
from repro.core.early_exit import EXIT_CONFIDENCE
from repro.core.engine import AnswerResult, EngineWeights, MnnFastEngine
from repro.data.babi import build_vocabulary, generate_mixed
from repro.docqa import (
    docqa_network,
    docqa_weights,
    docqa_workload,
    generate_queries,
    synthetic_corpus,
)

#: Story ingest slice: one 50k-row ``store_story`` call allocates 230 MB
#: of temporaries and took 3.8-20.8 s for identical code on this host.
INGEST_ROWS = 2000


def digest(inputs: dict) -> str:
    """sha256 over every generated array, in key order."""
    sha = hashlib.sha256()
    for key in sorted(inputs):
        value = inputs[key]
        arrays = value if isinstance(value, list) else [value]
        sha.update(key.encode())
        for array in arrays:
            array = np.ascontiguousarray(array)
            sha.update(str(array.shape).encode() + array.dtype.str.encode())
            sha.update(array.tobytes())
    return sha.hexdigest()


def tally(counts: Counter, result: AnswerResult, num_rows: int, chunk: int) -> None:
    """Add one answer pass's program-side counters (``OpStats``,
    ``IndexStats``, ``HopTrace``) to ``counts``; the cumulative
    ``StoreStats`` snapshot is kept as ``counts['store']``."""
    stats = result.stats
    counts["passes"] += 1
    counts["flops"] += stats.flops
    counts["bytes_read"] += stats.bytes_read
    counts["rows_computed"] += stats.rows_computed
    counts["rows_skipped"] += stats.rows_skipped
    hops = result.hop_trace
    counts["questions"] += len(hops.hops_run)
    counts["hops_run"] += int(hops.hops_run.sum())
    counts["exits"] += sum(reason == EXIT_CONFIDENCE for reason in hops.exit_reason)
    tiers = result.tier_stats()
    for index in tiers["index"]:
        rows = num_rows
        if index is not None:
            counts["index_hops"] += 1
            counts["fallback_hops"] += not index.used_index
            counts["candidate_rows"] += index.candidate_rows
            counts["index_rows"] += index.num_rows
            rows = index.candidate_rows
        counts["rows_streamed"] += rows
        counts["chunk_iters"] += math.ceil(rows / chunk)
    if tiers["store"] and tiers["store"][-1] is not None:
        counts["store"] = tiers["store"][-1]


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class Workload:
    """A closed-loop workload: one client, each op waits for its reply."""

    name: str
    #: One reference call follows every op; ``ref.rows``/``ref.passes``
    #: are sized so that reference time is about a fifth of a block.
    ref: RefSpec
    #: Typical duration of one reference call on the host the constants
    #: were recorded on; turns normalised set-up back into seconds.
    ref_nominal_s: float
    #: Relative latency an op must meet: 2x the seed's latency_p90_rel.
    slo_limit: float
    agreement_floor = 0.99
    #: Cold set-ups per run (the fastest is reported, the last is kept).
    setups = 15
    config: EngineConfig
    #: Capacity of the engine's memory, questions per answer pass, hops.
    memory_rows: int
    nq: int
    hops = 3
    chunk = 1000
    #: True when the ops themselves write to memory (story_turns).
    writes_in_ops = False

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def engine(self, inputs: dict, config: EngineConfig | None = None) -> MnnFastEngine:
        """A fresh engine over the generated weights, with the workload's
        own configuration unless another one is given."""
        vocab, ed = inputs["embedding_a"].shape
        network = MemNNConfig(
            embedding_dim=ed,
            num_sentences=self.memory_rows,
            num_questions=self.nq,
            vocab_size=vocab,
            max_words=inputs["questions"].shape[-1],
            hops=self.hops,
        )
        weights = EngineWeights(
            inputs["embedding_a"], inputs["embedding_c"], inputs["answer_weight"]
        )
        return MnnFastEngine(
            network, weights, config if config is not None else self.config
        )

    def load(self, engine: MnnFastEngine, inputs: dict) -> None:
        stories = inputs["stories"]
        for start in range(0, len(stories), INGEST_ROWS):
            engine.store_story(stories[start : start + INGEST_ROWS])

    def ops(self, inputs: dict) -> list:
        raise NotImplementedError

    def run_op(self, engine: MnnFastEngine, op) -> list[AnswerResult]:
        raise NotImplementedError

    def first_op(self, inputs: dict):
        """The op a cold set-up answers."""
        return self.ops(inputs)[0]

    def cold_setup(self, inputs: dict) -> MnnFastEngine:
        """Construct -> load -> (spill / index build) -> first answer ->
        ``close()``; the engine stays usable afterwards."""
        engine = self.engine(inputs)
        self.load(engine, inputs)
        self.run_op(engine, self.first_op(inputs))
        engine.close()
        return engine

    def block(
        self, engine: MnnFastEngine, inputs: dict, ref: HostRef, ops: list, tracer=None
    ) -> Block:
        """One timed block: a reference call before the first op and
        after every op."""
        latencies: list[float | None] = []
        questions: list[int] = []
        failures: list[str] = []
        counts: Counter = Counter()
        refs = [timed(ref)]
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            start = time.perf_counter()
            try:
                results = self.run_op(engine, op)
                latencies.append(time.perf_counter() - start)
            except Exception:  # an op that raises is a failed op, not a crash
                latencies.append(None)
                failures.append(traceback.format_exc(limit=3))
                results = []
            questions.append(sum(len(result.answer_ids) for result in results))
            for result in results:
                tally(counts, result, engine.num_stored_sentences, self.chunk)
            refs.append(timed(ref))
        return Block(
            latencies=latencies,
            questions=questions,
            refs=refs,
            counts=dict(counts),
            extra={"failures": failures},
        )

    def check_ops(self, inputs: dict) -> list:
        """The ops the untimed agreement pass answers."""
        return self.ops(inputs)

    def agreement(self, inputs: dict, engine: MnnFastEngine):
        """Share of the measured engine's answers equal to those of a
        float64 ``EngineConfig.baseline()`` engine on the same ops, in
        an untimed pass of its own.  Returns ``(share, answers
        compared, counts)``; the counts of this pass are the ones that
        must repeat exactly for a fixed seed."""
        ops = self.check_ops(inputs)
        counts: Counter = Counter()
        got = []
        for op in ops:
            for result in self.run_op(engine, op):
                got.append(result.answer_ids)
                tally(counts, result, engine.num_stored_sentences, self.chunk)
        baseline = self.engine(inputs, EngineConfig.baseline())
        try:
            self.load(baseline, inputs)
            expected = [
                result.answer_ids for op in ops for result in self.run_op(baseline, op)
            ]
        finally:
            baseline.close()
        got, expected = np.concatenate(got), np.concatenate(expected)
        counts.pop("store", None)
        return float(np.mean(got == expected)), len(expected), dict(counts)


def _table1_inputs(seed: int, ns: int, nq: int, num_ops: int) -> dict:
    """Table-1-shaped network with peaked attention: questions are
    copies of story rows, so one memory row dominates each softmax the
    way a trained model's supporting fact does (Fig. 6) and
    zero-skipping has something to skip."""
    rng = np.random.default_rng(seed)
    vocab, words, ed, answers = 8192, 8, 48, 2048
    stories = rng.integers(1, vocab, size=(ns, words))
    return {
        "embedding_a": rng.normal(0.0, 0.5, (vocab, ed)),
        "embedding_c": rng.normal(0.0, 0.1, (vocab, ed)),
        "answer_weight": rng.normal(0.0, 0.1, (answers, ed)),
        "stories": stories,
        "questions": stories[rng.integers(0, ns, size=(num_ops, nq))],
    }


class _Table1(Workload):
    """Shared by the two workloads that run the Table 1 CPU network."""

    memory_rows = 8192
    num_ops = 110

    def inputs(self, seed: int) -> dict:
        return _table1_inputs(seed, self.memory_rows, self.nq, self.num_ops)

    def ops(self, inputs):
        return list(inputs["questions"])

    def run_op(self, engine, op):
        return [engine.answer_batch(op).batch]


class Table1Batch(_Table1):
    name = "table1_batch"
    nq = 16
    config = EngineConfig.mnnfast(1000, 0.1)
    ref = RefSpec(ed=48, nq=16, chunk=1000, hops=3, rows=2500)
    ref_nominal_s = 0.0025
    slo_limit = 7.3


class OutOfCoreStream(_Table1):
    name = "out_of_core_stream"
    nq = 2
    # Demand fetch: the faster mode on a 2-vCPU host and the only
    # repeatable one; the prefetch thread is measured in the traced run.
    config = EngineConfig.out_of_core(resident_bytes=4 << 20, prefetch_depth=0)
    ref = RefSpec(ed=48, nq=2, chunk=1000, hops=3, rows=3000, on_disk=True)
    ref_nominal_s = 0.0025
    slo_limit = 6.8


class StoryTurns(Workload):
    name = "story_turns"
    config = EngineConfig.mnnfast()
    ref = RefSpec(ed=48, nq=1, chunk=1000, hops=3, rows=50, passes=2)
    ref_nominal_s = 0.00034
    slo_limit = 12.6
    writes_in_ops = True
    num_dialogues = 256
    memory_rows = 50
    nq = 1
    #: Story length -> dialogues.  An op's latency follows its dialogue's
    #: length in steps of 10-25 %.  This is ``generate_mixed``'s own mix,
    #: nudged so that the 128th and the 231st dialogue by length sit in the
    #: middle of a step (5 and 9 sentences): in plain draws of 256 they sat
    #: on an edge and latency_p50_rel moved between 3.29 and 3.75, and
    #: latency_p90_rel between 6.1 and 7.5, with the seed.
    length_mix = {1: 4, 2: 40, 3: 26, 4: 48, 5: 24, 6: 20, 7: 32, 8: 30,
                  9: 12, 10: 6, 11: 5, 12: 4, 13: 5}

    def inputs(self, seed):
        # A fixed number of dialogues of each length, drawn from an 8x pool
        # and shuffled, so that the dialogues at the p50 and the p90 have the
        # same length on every seed (see length_mix).
        rng = np.random.default_rng(seed)
        pool = generate_mixed(self.num_dialogues * 8, seed=seed)
        examples = [
            example
            for length, count in self.length_mix.items()
            for example in [ex for ex in pool if len(ex.story) == length][:count]
        ]
        if len(examples) != self.num_dialogues:
            raise ValueError(f"seed {seed}: the pool is short of some story length")
        examples = [examples[i] for i in rng.permutation(len(examples))]
        vocab = build_vocabulary(examples)
        words = max(
            len(tokens) for ex in examples for tokens in [*ex.story, ex.question]
        )
        ed = 48
        return {
            # Peaked enough that dropping rows below p = 0.1 flips no answer
            # (at 0.7 agreement fell to 0.979 on one seed in sixteen).
            "embedding_a": rng.normal(0.0, 1.5, (len(vocab), ed)),
            "embedding_c": rng.normal(0.0, 0.1, (len(vocab), ed)),
            "answer_weight": rng.normal(0.0, 0.1, (len(vocab), ed)),
            "stories": [
                np.stack(
                    [vocab.encode(s, width=words) for s in ex.story[-self.memory_rows :]]
                )
                for ex in examples
            ],
            "questions": np.stack(
                [vocab.encode(ex.question, width=words) for ex in examples]
            ),
        }

    def load(self, engine, inputs):
        """Nothing is resident before a dialogue starts."""

    def ops(self, inputs):
        return list(zip(inputs["stories"], inputs["questions"]))

    def first_op(self, inputs):
        """A four-sentence dialogue (the commonest length): with whichever
        dialogue the shuffle put first, setup_s followed its length and
        moved between 0.8 and 2.9 ms with the seed."""
        return next(op for op in self.ops(inputs) if len(op[0]) == 4)

    def run_op(self, engine, op):
        """One dialogue: the question is asked again after every second
        sentence and after the last one."""
        story, question = op
        engine.clear_memories()
        results = []
        last = len(story) - 1
        for index, sentence in enumerate(story):
            engine.store_story(sentence[None, :])
            if index % 2 == 1 or index == last:
                results.append(engine.answer(question))
        return results


class DocqaSessions(Workload):
    """Open loop: requests are due on a schedule whatever the engine
    does, and an op is timed from when it was due.

    The schedule runs on a clock that counts ref units, not seconds.
    Every engine and batcher call is executed and timed for real; the
    clock advances by its wall duration divided by the mean of the
    reference calls right before and after it (the closed-loop rule),
    and jumps over idle time.  Arrival schedule, ``max_wait``,
    deadlines and SLO are all in ref units, so utilisation does not
    move with host speed, and a host stall inflates the one batch it
    hits, not the queue behind it.  On the wall clock (spin-waiting
    for each arrival) two runs of the same seed differed by 14 % on
    ``latency_p90_rel`` (README, "Workloads").
    """

    name = "docqa_sessions"
    agreement_floor = 0.97
    ref = RefSpec(ed=64, nq=4, chunk=1000, hops=2, rows=2048)
    ref_nominal_s = 0.0012
    slo_limit = 17.4
    max_wait = 2.0
    deadline = 12.0
    session_rate = 0.15
    session_gap = 0.5
    sessions = 480
    per_session = 4
    num_queries = 2048
    num_docs, rows_per_doc = 32, 128
    memory_rows = num_docs * rows_per_doc
    nq = 1
    hops = 2
    #: Batch size of the agreement pass (timed batches depend on timing).
    check_batch = 4

    def inputs(self, seed):
        corpus = synthetic_corpus(
            num_docs=self.num_docs, rows_per_doc=self.rows_per_doc, max_words=8, seed=seed
        )
        queries, _ = generate_queries(corpus, self.num_queries, seed=seed + 1)
        network = docqa_network(corpus, embedding_dim=64, hops=self.hops)
        # Peaked input embedding, damped output embedding: the trained-model
        # surrogate of repro.docqa, sharpened until top-k and the gate agree
        # with the full scan on >= 99.6 % of questions on every seed tried.
        weights = docqa_weights(network, seed=seed + 2, scale=0.7, out_scale=0.02)
        requests = docqa_workload(
            queries,
            session_rate=self.session_rate,
            questions_per_session=self.per_session,
            intra_session_gap=self.session_gap,
            num_sessions=self.sessions,
            deadline=self.deadline,
            seed=seed + 3,
        )
        return {
            "embedding_a": weights.embedding_a,
            "embedding_c": weights.embedding_c,
            "answer_weight": weights.answer_weight,
            "stories": corpus.rows,
            "questions": np.stack([query.words for query in queries]),
            "arrivals": np.array([request.arrival for request in requests]),
            "request_query": np.array(
                [request.query.query_id for request in requests]
            ),
        }

    @property
    def config(self):
        return (
            EngineConfig.mnnfast()
            .with_topk(nlist=64, nprobe=16)
            .with_early_exit(0.2)
            .with_batching(8, max_wait=self.max_wait)
        )

    def ops(self, inputs):
        return list(inputs["questions"][inputs["request_query"]][:, None, :])

    def check_ops(self, inputs):
        """The whole query pool in fixed batches: the timed batches'
        composition depends on timing, these do not."""
        queries = inputs["questions"]
        return [
            queries[start : start + self.check_batch]
            for start in range(0, len(queries), self.check_batch)
        ]

    def run_op(self, engine, op):
        return [engine.answer_batch(op).batch]

    def block(self, engine, inputs, ref, ops, tracer=None):
        words = np.concatenate(ops)
        total = len(ops)
        arrivals = inputs["arrivals"][:total]
        batcher = ContinuousBatcher(engine.engine_config.batch)
        rel: list[float | None] = [None] * total
        answered = [0] * total
        failures: list[str] = []
        counts: Counter = Counter()
        lags: list[float] = []
        refs = [timed(ref)]
        clock = 0.0  # ref units since the block began
        busy = 0.0  # ref units the engine spent answering
        busy_wall = 0.0  # the same in seconds, for the traced run's shares
        free_at = 0.0  # when the server last became free
        batches = 0
        completed = 0
        backlog_end = 0

        def serve(batch) -> None:
            nonlocal clock, busy, busy_wall, free_at, batches, completed
            members = list(batch.items)
            start = time.perf_counter()
            try:
                result = engine.answer_batch(words[members]).batch
            except Exception:  # the batch's requests failed, the loop goes on
                failures.append(traceback.format_exc(limit=3))
                result = None
            wall = time.perf_counter() - start
            refs.append(timed(ref))
            service = wall / ((refs[-2] + refs[-1]) / 2)
            clock += service
            busy += service
            busy_wall += wall
            free_at = clock
            batches += 1
            completed += len(members)
            if result is None:
                return
            for member in members:
                rel[member] = clock - arrivals[member]
                answered[member] = 1
            tally(counts, result, engine.num_stored_sentences, self.chunk)

        def batcher_call(call, *args, **kwargs):
            """A batcher call costs its wall time on the clock too."""
            nonlocal clock
            start = time.perf_counter()
            formed = call(*args, **kwargs)
            clock += (time.perf_counter() - start) / refs[-1]
            return formed

        admitted = 0
        while admitted < total or batcher.queue_depth:
            if tracer is not None:
                tracer.op = batches
            if admitted < total and arrivals[admitted] <= clock:
                due = arrivals[admitted]
                lags.append(clock - max(due, free_at))
                formed = batcher_call(
                    batcher.submit,
                    admitted, now=clock, deadline=max(due + self.deadline, clock),
                )
                admitted += 1
                if admitted == total:
                    backlog_end = total - completed
            else:
                formed = batcher_call(batcher.poll, clock)
            if formed is not None:
                serve(formed)
                continue
            if admitted < total and arrivals[admitted] <= clock:
                continue
            # Idle: jump to the next arrival or forced dispatch.
            forced = batcher.next_forced_dispatch()
            clock = max(clock, min(
                arrivals[admitted] if admitted < total else math.inf,
                forced if forced is not None else math.inf,
            ))
        # Block stores seconds: ref units times the block's ref unit.
        unit = statistics.median(refs)
        stats = batcher.stats
        return Block(
            latencies=[None if r is None else r * unit for r in rel],
            questions=answered,
            refs=refs,
            span=clock * unit,
            busy=busy * unit,
            counts=dict(counts),
            extra={
                "failures": failures,
                "lag_rel": statistics.fmean(lags),
                "backlog_end": backlog_end,
                "busy_share": busy / clock,
                "service_seconds": busy_wall,
                "queue_wait_rel": stats.mean_queue_wait,
                "fill_share": stats.mean_fill_ratio,
                "batch_size_mean": stats.mean_batch_size,
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (Table1Batch(), OutOfCoreStream(), StoryTurns(), DocqaSessions())
}
