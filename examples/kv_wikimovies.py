"""Key-value memory QA: the paper's large-scale motivation, executable.

MnnFast's intro motivates the system with large-scale question
answering over knowledge sources, citing Key-Value Memory Networks as
the representative architecture.  This example builds a synthetic
WikiMovies-style knowledge base, then answers questions with the full
stack: key hashing (inverted index) to preselect candidates, the
column-based lazy-softmax scan over the surviving keys, and
zero-skipping in the value read.

Run:  python examples/kv_wikimovies.py
"""

import time

from repro.core import ZeroSkipConfig
from repro.core.kv import KVMnnFast
from repro.data import generate_movie_kb
from repro.report import format_percent, format_table


def main() -> None:
    print("Building a synthetic WikiMovies-style knowledge base ...")
    kb, questions = generate_movie_kb(num_films=2000, seed=0)
    print(f"  {len(kb):,} facts, {len(questions):,} questions, "
          f"{len(kb.vocabulary):,} vocabulary words\n")

    engine = KVMnnFast(
        kb, zero_skip=ZeroSkipConfig(threshold=0.001)
    )

    # A few sample questions end-to-end.
    for question in questions[:3]:
        answer = engine.answer(question.tokens)
        print(f"Q: {' '.join(question.tokens)}?")
        print(
            f"A: {answer.answer_token} "
            f"(scanned {answer.candidates_scanned:,} of "
            f"{answer.total_slots:,} slots; "
            f"hashing skipped {format_percent(answer.hashing_reduction)})"
        )
    print()

    # Accuracy + hashing effectiveness over the full question set.
    start = time.perf_counter()
    correct = scanned = skipped_rows = 0
    for question in questions:
        answer = engine.answer(question.tokens)
        correct += answer.answer_token in question.valid_answers
        scanned += answer.candidates_scanned
        skipped_rows += answer.stats.rows_skipped
    elapsed = time.perf_counter() - start

    rows = [
        ["retrieval accuracy", format_percent(correct / len(questions))],
        ["mean slots scanned",
         f"{scanned / len(questions):,.0f} of {len(kb):,}"],
        ["key-hashing reduction",
         format_percent(1 - scanned / (len(questions) * len(kb)))],
        ["value reads zero-skipped", f"{skipped_rows:,}"],
        ["wall clock", f"{elapsed:.2f} s for {len(questions):,} questions"],
    ]
    print(format_table(["metric", "value"], rows,
                       title="KV-MemNN + MnnFast over the full question set"))


if __name__ == "__main__":
    main()
