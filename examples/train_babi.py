"""Train memory networks on the synthetic bAbI tasks and sweep zero-skipping.

Reproduces the data side of the paper's Figs. 6 and 7 end-to-end at
example scale: train a MemN2N per task, inspect the sparsity of its
attention, then sweep the skip threshold and print the
accuracy-vs-computation tradeoff.

Run:  python examples/train_babi.py [task_id ...]
"""

import sys

from repro.data import TASK_NAMES
from repro.model import train_on_task
from repro.report import format_percent, format_table

THRESHOLDS = (0.001, 0.01, 0.1, 0.5)


def run_task(task_id: int) -> None:
    name = TASK_NAMES[task_id]
    print(f"\n=== Task {task_id}: {name} ===")
    trainer, test, vocab, result = train_on_task(
        task_id, train_examples=500, test_examples=100, epochs=40
    )
    print(
        f"trained: loss {result.losses[0]:.2f} -> {result.losses[-1]:.3f}, "
        f"train acc {result.train_accuracy:.1%}, test acc {result.test_accuracy:.1%}"
    )

    # Attention sparsity (Fig. 6).
    attention = trainer.model.attention(test["stories"], test["questions"])
    above = float((attention > 0.1).sum()) / attention.size
    peak = float(attention.max(axis=1).mean())
    print(
        f"attention: {above:.1%} of entries above 0.1, "
        f"mean per-question peak {peak:.2f}"
    )

    # Zero-skipping sweep (Fig. 7).
    rows = []
    for threshold in THRESHOLDS:
        evaluation = trainer.evaluate_zero_skip(
            test["stories"], test["questions"], test["answers"], threshold
        )
        rows.append(
            [
                threshold,
                format_percent(evaluation.computation_reduction),
                format_percent(evaluation.accuracy),
                format_percent(evaluation.accuracy_loss),
            ]
        )
    print(
        format_table(
            ["th_skip", "compute reduction", "accuracy", "relative loss"],
            rows,
        )
    )


def main() -> None:
    task_ids = [int(arg) for arg in sys.argv[1:]] or [1, 15]
    for task_id in task_ids:
        if task_id not in TASK_NAMES:
            raise SystemExit(f"unknown task {task_id}; choose 1..20")
        run_task(task_id)


if __name__ == "__main__":
    main()
