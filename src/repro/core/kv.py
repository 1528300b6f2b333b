"""Key-Value Memory Networks with the MnnFast optimizations.

The paper motivates MnnFast with large-scale question answering over
knowledge sources (Wikipedia-scale databases, §1/§2.2), citing
Key-Value Memory Networks [Miller et al. 2016] as the representative
architecture.  A KV memory generalizes the MemNN memory: *addressing*
happens against key vectors and *reading* returns a weighted sum of
value vectors:

    p_i = softmax(q . k_i)        o = sum_i p_i v_i

which is exactly the inner-product -> softmax -> weighted-sum pipeline
MnnFast optimizes — so the column-based lazy softmax and zero-skipping
apply unchanged, with ``M_IN = K`` and ``M_OUT = V``.  This module
wires that up, plus Miller et al.'s *key hashing*: an inverted index
preselects the candidate memory slots that share a word with the
question, shrinking the scanned memory by orders of magnitude before
the column-based scan even starts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..data.kb import KnowledgeBase
from .column import ColumnMemNN
from .config import ChunkConfig, ZeroSkipConfig
from .results import InferenceResult
from .stats import OpStats

__all__ = ["KeyValueMemory", "InvertedIndex", "KVMnnFast", "KVAnswer"]


@dataclass
class KeyValueMemory:
    """Encoded (key, value) memory slots.

    Attributes:
        keys: ``(ns, ed)`` key vectors (addressing side).
        values: ``(ns, ed)`` value vectors (reading side).
        value_ids: ``(ns,)`` vocabulary IDs of the value entities, for
            hard (argmax) retrieval.
    """

    keys: np.ndarray
    values: np.ndarray
    value_ids: np.ndarray

    def __post_init__(self) -> None:
        if self.keys.shape != self.values.shape or self.keys.ndim != 2:
            raise ValueError("keys and values must be equal-shaped (ns, ed)")
        if self.value_ids.shape != (self.keys.shape[0],):
            raise ValueError("value_ids must have one entry per slot")

    def __len__(self) -> int:
        return self.keys.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.keys.shape[1]

    @classmethod
    def from_knowledge_base(
        cls,
        kb: KnowledgeBase,
        embedding: np.ndarray,
    ) -> "KeyValueMemory":
        """Encode a KB with a word-embedding table.

        Key vectors are bag-of-words sums of the fact's key tokens;
        value vectors are the object entity's embedding.
        """
        if embedding.ndim != 2 or embedding.shape[0] < len(kb.vocabulary):
            raise ValueError(
                "embedding must be (V, ed) covering the KB vocabulary"
            )
        ed = embedding.shape[1]
        keys = np.zeros((len(kb), ed))
        values = np.zeros((len(kb), ed))
        value_ids = np.zeros(len(kb), dtype=np.int64)
        for index, fact in enumerate(kb.facts):
            for token in fact.key_tokens():
                keys[index] += embedding[kb.vocabulary.id_of(token)]
            value_id = kb.vocabulary.id_of(fact.value_token())
            values[index] = embedding[value_id]
            value_ids[index] = value_id
        return cls(keys=keys, values=values, value_ids=value_ids)

    def subset(self, indices: Sequence[int]) -> "KeyValueMemory":
        """Gather a candidate subset (the post-hashing memory)."""
        indices = np.asarray(indices, dtype=np.int64)
        return KeyValueMemory(
            keys=self.keys[indices],
            values=self.values[indices],
            value_ids=self.value_ids[indices],
        )


class InvertedIndex:
    """Key hashing: word -> slots whose key contains it."""

    def __init__(self) -> None:
        self._slots_by_word: dict[str, list[int]] = defaultdict(list)
        self._num_slots = 0

    @classmethod
    def from_knowledge_base(cls, kb: KnowledgeBase) -> "InvertedIndex":
        index = cls()
        for slot, fact in enumerate(kb.facts):
            for token in set(fact.key_tokens()):
                index._slots_by_word[token].append(slot)
        index._num_slots = len(kb)
        return index

    @property
    def num_slots(self) -> int:
        return self._num_slots

    def candidates(self, tokens: Iterable[str], max_df: float = 0.2) -> np.ndarray:
        """Slots sharing at least one *discriminative* word with the query.

        Words that appear in more than ``max_df`` of all slots (stop
        words, common relation words at small scale) are ignored for
        hashing, as in Miller et al.'s frequency cutoff — unless no
        discriminative word matches at all, in which case every
        matching slot is returned rather than none.
        """
        if not 0.0 < max_df <= 1.0:
            raise ValueError(f"max_df must be in (0, 1], got {max_df}")
        limit = max(1, int(self._num_slots * max_df))
        discriminative: set[int] = set()
        everything: set[int] = set()
        for token in tokens:
            slots = self._slots_by_word.get(token.lower(), [])
            everything.update(slots)
            if 0 < len(slots) <= limit:
                discriminative.update(slots)
        chosen = discriminative if discriminative else everything
        return np.array(sorted(chosen), dtype=np.int64)


@dataclass
class KVAnswer:
    """Result of answering one question against the KV memory."""

    answer_token: str
    answer_id: int
    candidates_scanned: int
    total_slots: int
    stats: OpStats
    reading: InferenceResult

    @property
    def hashing_reduction(self) -> float:
        """Fraction of the memory the inverted index skipped."""
        if self.total_slots == 0:
            return 0.0
        return 1.0 - self.candidates_scanned / self.total_slots


class KVMnnFast:
    """Key-value QA with key hashing + the MnnFast dataflow.

    Args:
        kb: the knowledge base.
        embedding: ``(V, ed)`` word embeddings (random Gaussian works
            for retrieval because BoW dot products count shared words).
        chunk: column-based chunking for the key scan.
        zero_skip: optional zero-skipping during the value read.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        embedding: np.ndarray | None = None,
        chunk: ChunkConfig | None = None,
        zero_skip: ZeroSkipConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.kb = kb
        if embedding is None:
            # Near-orthogonal random embeddings: BoW dot products then
            # count shared words with noise ~ 1/sqrt(ed); 256 dims keep
            # a one-word margin reliable at WikiMovies-like scales.
            rng = rng if rng is not None else np.random.default_rng(0)
            vocab_size = len(kb.vocabulary)
            embedding = rng.normal(0.0, 1.0, (vocab_size, 256)) / np.sqrt(256)
            embedding[0] = 0.0
        self.embedding = np.asarray(embedding, dtype=np.float64)
        self.memory = KeyValueMemory.from_knowledge_base(kb, self.embedding)
        self.index = InvertedIndex.from_knowledge_base(kb)
        self.chunk = chunk if chunk is not None else ChunkConfig(chunk_size=256)
        self.zero_skip = zero_skip

    def encode_question(self, tokens: Sequence[str]) -> np.ndarray:
        """BoW-encode a question with the shared embedding table."""
        vector = np.zeros(self.memory.embedding_dim)
        for token in tokens:
            if token in self.kb.vocabulary:
                vector += self.embedding[self.kb.vocabulary.id_of(token)]
        return vector

    def answer(self, tokens: Sequence[str], use_hashing: bool = True) -> KVAnswer:
        """Answer one question.

        Addressing runs the column-based scan over the (hashed)
        candidate keys; the answer is the value of the best-addressed
        slot (hard retrieval), while the soft reading ``o`` — what a
        trained multi-hop network would consume — is returned alongside.
        """
        question = self.encode_question(tokens)
        if use_hashing:
            candidate_ids = self.index.candidates(tokens)
            if candidate_ids.size == 0:
                candidate_ids = np.arange(len(self.memory))
            memory = self.memory.subset(candidate_ids)
        else:
            candidate_ids = np.arange(len(self.memory))
            memory = self.memory

        scanner = ColumnMemNN(memory.keys, memory.values, chunk=self.chunk)
        reading = scanner.output(question, zero_skip=self.zero_skip)

        scores = memory.keys @ question
        best = int(np.argmax(scores))
        answer_id = int(memory.value_ids[best])
        return KVAnswer(
            answer_token=self.kb.vocabulary.word_of(answer_id),
            answer_id=answer_id,
            candidates_scanned=len(memory),
            total_slots=len(self.memory),
            stats=reading.stats,
            reading=reading,
        )
