"""Training and evaluation harness for the NumPy MemN2N.

Provides what Figs. 6 and 7 need: train a model per bAbI-style task,
then measure (a) the trained attention distributions' sparsity and
(b) accuracy loss vs. computation reduction under zero-skipping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.babi import Example, build_vocabulary, generate_task, vectorize
from ..data.vocab import Vocabulary
from .memn2n import MemN2N, MemN2NConfig
from .optim import SGD, Adagrad

__all__ = ["Trainer", "TrainResult", "ZeroSkipEvaluation", "train_on_task", "train_jointly"]


@dataclass
class TrainResult:
    """Summary of one training run."""

    losses: list[float]
    train_accuracy: float
    test_accuracy: float


@dataclass
class ZeroSkipEvaluation:
    """One point of the Fig. 7 tradeoff curve."""

    threshold: float
    accuracy: float
    baseline_accuracy: float
    computation_reduction: float

    @property
    def accuracy_loss(self) -> float:
        """Relative loss in accuracy versus the exact model."""
        if self.baseline_accuracy == 0.0:
            return 0.0
        return max(0.0, 1.0 - self.accuracy / self.baseline_accuracy)


class Trainer:
    """Mini-batch trainer with the Sukhbaatar schedule."""

    def __init__(
        self,
        model: MemN2N,
        optimizer: SGD | Adagrad | None = None,
        batch_size: int = 32,
        rng: np.random.Generator | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        # Adagrad converges far faster than plain SGD on these small
        # vocabularies (its per-parameter rates handle the skewed word
        # frequencies); SGD with the Sukhbaatar schedule is available.
        self.optimizer = optimizer if optimizer is not None else Adagrad(0.1)
        self.batch_size = batch_size
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def fit(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        answers: np.ndarray,
        epochs: int = 30,
    ) -> list[float]:
        """Train; returns per-epoch mean losses."""
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        n = len(answers)
        losses = []
        for _ in range(epochs):
            order = self.rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                loss, grads, _ = self.model.loss_and_grads(
                    stories[idx], questions[idx], answers[idx]
                )
                self.optimizer.step(self.model.parameters(), grads)
                for table in self.model.embeddings:
                    table[0] = 0.0  # keep the pad row pinned
                epoch_loss += loss
                batches += 1
            self.optimizer.end_epoch()
            losses.append(epoch_loss / max(batches, 1))
        return losses

    def accuracy(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        answers: np.ndarray,
        skip_threshold: float = 0.0,
    ) -> float:
        predictions = self.model.predict(stories, questions, skip_threshold)
        return float((predictions == answers).mean())

    def evaluate_zero_skip(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        answers: np.ndarray,
        threshold: float,
    ) -> ZeroSkipEvaluation:
        """Measure one Fig. 7 operating point on held-out data."""
        baseline = self.accuracy(stories, questions, answers)
        state = self.model.forward(stories, questions, skip_threshold=threshold)
        predictions = np.argmax(state.logits, axis=-1)
        return ZeroSkipEvaluation(
            threshold=threshold,
            accuracy=float((predictions == answers).mean()),
            baseline_accuracy=baseline,
            computation_reduction=1.0 - state.kept_fraction,
        )


def train_on_task(
    task_id: int,
    train_examples: int = 600,
    test_examples: int = 100,
    epochs: int = 60,
    embedding_dim: int = 24,
    hops: int = 2,
    max_sentences: int = 20,
    max_words: int = 12,
    seed: int = 0,
    story_scale: float = 1.0,
) -> tuple[Trainer, dict[str, np.ndarray], Vocabulary, TrainResult]:
    """Generate a task, train a model on it, report accuracies.

    ``story_scale`` stretches story lengths toward the paper's
    50-sentence Fig. 6/7 regime (size ``max_sentences`` accordingly).

    Returns the trainer, the vectorized test split (keys ``stories``,
    ``questions``, ``answers``), the vocabulary, and the result summary.
    """
    train = generate_task(task_id, train_examples, seed=seed, story_scale=story_scale)
    test = generate_task(task_id, test_examples, seed=seed + 1, story_scale=story_scale)
    vocab = build_vocabulary(train + test)

    train_s, train_q, train_a = vectorize(train, vocab, max_words, max_sentences)
    test_s, test_q, test_a = vectorize(test, vocab, max_words, max_sentences)

    model = MemN2N(
        MemN2NConfig(
            vocab_size=len(vocab),
            embedding_dim=embedding_dim,
            hops=hops,
            max_sentences=max_sentences,
            max_words=max_words,
        ),
        rng=np.random.default_rng(seed),
    )
    trainer = Trainer(model, rng=np.random.default_rng(seed + 2))
    losses = trainer.fit(train_s, train_q, train_a, epochs=epochs)
    result = TrainResult(
        losses=losses,
        train_accuracy=trainer.accuracy(train_s, train_q, train_a),
        test_accuracy=trainer.accuracy(test_s, test_q, test_a),
    )
    test_split = {"stories": test_s, "questions": test_q, "answers": test_a}
    return trainer, test_split, vocab, result


def train_jointly(
    task_ids: tuple[int, ...] = tuple(range(1, 21)),
    examples_per_task: int = 150,
    test_examples_per_task: int = 40,
    epochs: int = 40,
    embedding_dim: int = 32,
    hops: int = 2,
    max_sentences: int = 20,
    max_words: int = 12,
    seed: int = 0,
) -> tuple[Trainer, dict[int, float], Vocabulary]:
    """Joint training over several task families with a shared model.

    The standard bAbI protocol (and the paper's Fig. 7 setting) trains
    on the union of tasks with one shared vocabulary.  Returns the
    trainer, per-task test accuracies, and the vocabulary.
    """
    if not task_ids:
        raise ValueError("need at least one task")
    train: list[Example] = []
    test_by_task: dict[int, list[Example]] = {}
    for task_id in task_ids:
        train += generate_task(task_id, examples_per_task, seed=seed)
        test_by_task[task_id] = generate_task(
            task_id, test_examples_per_task, seed=seed + 1
        )
    vocab = build_vocabulary(
        train + [e for examples in test_by_task.values() for e in examples]
    )

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(train))
    train = [train[i] for i in order]
    train_s, train_q, train_a = vectorize(train, vocab, max_words, max_sentences)

    model = MemN2N(
        MemN2NConfig(
            vocab_size=len(vocab),
            embedding_dim=embedding_dim,
            hops=hops,
            max_sentences=max_sentences,
            max_words=max_words,
        ),
        rng=np.random.default_rng(seed),
    )
    trainer = Trainer(model, rng=np.random.default_rng(seed + 2))
    trainer.fit(train_s, train_q, train_a, epochs=epochs)

    accuracies = {}
    for task_id, examples in test_by_task.items():
        s, q, a = vectorize(examples, vocab, max_words, max_sentences)
        accuracies[task_id] = trainer.accuracy(s, q, a)
    return trainer, accuracies, vocab
