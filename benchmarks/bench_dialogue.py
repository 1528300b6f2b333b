"""A dialogue's layers, timed in process: clear, first write, later
write, an answer after a write and an answer with no write before it.

perfbench's ``story_turns`` answers in one compiled call, so a traced
run cannot split a dialogue into its layers.  This table does, on the
same shape: bAbI stories cut to their last 50 sentences, embedded at ed
48 into a 50-row memory, three hops of ``EngineConfig.mnnfast()`` and
one question, asked after every second sentence and after the last one.

Every call of a dialogue is timed into its phase, so the phases take
turns call by call and see the same host.  A round tells every dialogue
``REPLAYS`` times; it keeps each phase's fastest call and its share of
the dialogues' time.  The table reads the median over ``ROUNDS`` rounds,
and its two ratios are medians of the rounds' ratios (the paired-round
rule of ``bench_fold.py``'s gates):

* first write / later write: what a clear leaves the next write to do;
* answer after a write / answer with no write: what a write costs the
  plan the next answer scans.

It prints only: no wall-clock assert.  CI runs it among the
deterministic report benches, so call-time API drift fails there; by
hand, run it with ``OPENBLAS_NUM_THREADS=1``, as perfbench runs.
"""

import time

import numpy as np

from repro.core import EngineConfig, EngineWeights, MemNNConfig, MnnFastEngine
from repro.data.babi import build_vocabulary, generate_mixed
from repro.report import format_table

ED, MEMORY_ROWS, HOPS = 48, 50, 3
DIALOGUES = 32
ROUNDS, REPLAYS = 9, 4
PHASES = (
    "clear",
    "first write",
    "later write",
    "answer after a write",
    "answer, no write before",
)


def _dialogues():
    """An engine shaped like ``story_turns``' and its ``(story,
    question)`` dialogues, as padded word ids."""
    examples = generate_mixed(DIALOGUES, seed=0)
    vocab = build_vocabulary(examples)
    words = max(len(tokens) for ex in examples for tokens in [*ex.story, ex.question])
    rng = np.random.default_rng(0)
    shape = (len(vocab), ED)
    weights = EngineWeights(
        rng.normal(0.0, 1.5, shape), rng.normal(0.0, 0.1, shape),
        rng.normal(0.0, 0.1, shape),
    )  # fmt: skip
    network = MemNNConfig(
        embedding_dim=ED, num_sentences=MEMORY_ROWS, num_questions=1,
        vocab_size=len(vocab), max_words=words, hops=HOPS,
    )  # fmt: skip
    engine = MnnFastEngine(network, weights, EngineConfig.mnnfast())
    dialogues = [
        (
            np.stack([vocab.encode(s, width=words) for s in ex.story[-MEMORY_ROWS:]]),
            vocab.encode(ex.question, width=words)[None, :],
        )
        for ex in examples
    ]
    return engine, dialogues


def _tell(engine, story, question, best, spent):
    """One dialogue, each call's seconds kept as its phase's best and
    added to its phase's total."""

    def timed(phase, call, *args):
        began = time.perf_counter()
        call(*args)
        took = time.perf_counter() - began
        best[phase] = min(best[phase], took)
        spent[phase] += took

    timed("clear", engine.clear_memories)
    last = len(story) - 1
    for index, sentence in enumerate(story):
        timed("later write" if index else "first write", engine.store_story, sentence)
        if index % 2 == 1 or index == last:
            timed("answer after a write", engine.answer, question)
            timed("answer, no write before", engine.answer, question)


def test_a_dialogue_by_layer(benchmark, report):
    engine, dialogues = _dialogues()

    def run():
        """Per round: each phase's fastest call, its seconds, and the
        dialogues' seconds (clear, writes and answers after a write)."""
        rounds = []
        for _ in range(ROUNDS):
            best = dict.fromkeys(PHASES, float("inf"))
            spent = dict.fromkeys(PHASES, 0.0)
            for _ in range(REPLAYS):
                for story, question in dialogues:
                    _tell(engine, story, question, best, spent)
            rounds.append((best, spent, sum(spent.values()) - spent[PHASES[-1]]))
        return rounds

    rounds = benchmark.pedantic(run, iterations=1, rounds=1)
    engine.close()
    # (rounds, phases): each round's fastest call and share of a dialogue.
    best = np.array([[fast[phase] for phase in PHASES] for fast, _, _ in rounds])
    share = np.array([[spent[p] / all_ for p in PHASES] for _, spent, all_ in rounds])
    told = REPLAYS * len(dialogues)
    per_dialogue = np.median([all_ for _, _, all_ in rounds]) / told
    write_ratio = float(np.median(best[:, 1] / best[:, 2]))
    plan_ratio = float(np.median(best[:, 3] / best[:, 4]))
    rows = [
        [phase, f"{fast * 1e6:.1f} us", "-" if phase == PHASES[-1] else f"{part:.3f}"]
        for phase, fast, part in zip(PHASES, np.median(best, 0), np.median(share, 0))
    ]
    rows.append(["whole dialogue (mean)", f"{per_dialogue * 1e6:.1f} us", "1.000"])
    report(format_table(
        ["phase", "fastest call", "share of a dialogue"],
        rows,
        title=(
            f"A story_turns-shaped dialogue by layer, {len(dialogues)} dialogues x "
            f"{REPLAYS} per round, median of {ROUNDS} rounds: first / later write "
            f"{write_ratio:.2f}x, answer after a write / with none {plan_ratio:.2f}x"
        ),
    ))  # fmt: skip
    benchmark.extra_info["first_vs_later_write"] = round(write_ratio, 3)
    benchmark.extra_info["answer_after_write_vs_none"] = round(plan_ratio, 3)
