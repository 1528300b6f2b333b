"""Tests for the key-value memory extension (core/kv.py + data/kb.py)."""

import numpy as np
import pytest

from repro.core import ChunkConfig, ZeroSkipConfig
from repro.core.column import ColumnMemNN
from repro.core.kv import InvertedIndex, KeyValueMemory, KVMnnFast
from repro.data.kb import generate_movie_kb


@pytest.fixture(scope="module")
def movie_kb():
    return generate_movie_kb(num_films=120, seed=3)


@pytest.fixture(scope="module")
def kv_engine(movie_kb):
    kb, _ = movie_kb
    return KVMnnFast(kb)


class TestKnowledgeBase:
    def test_every_film_has_core_relations(self, movie_kb):
        kb, _ = movie_kb
        subjects = {fact.subject for fact in kb.facts}
        for subject in list(subjects)[:10]:
            relations = {f.relation for f in kb.facts_about(subject)}
            assert {"directed_by", "release_year", "has_genre"} <= relations
            assert "starring" in relations

    def test_questions_have_valid_answers(self, movie_kb):
        kb, questions = movie_kb
        for question in questions:
            assert question.answer in question.valid_answers
            fact = kb.facts[question.fact_index]
            assert fact.obj == question.answer

    def test_question_shares_relation_keyword_with_key(self, movie_kb):
        kb, questions = movie_kb
        for question in questions[:40]:
            fact = kb.facts[question.fact_index]
            assert set(fact.key_tokens()) & set(question.tokens)

    def test_vocabulary_covers_everything(self, movie_kb):
        kb, questions = movie_kb
        for fact in kb.facts:
            for token in fact.key_tokens():
                assert token in kb.vocabulary
            assert fact.value_token() in kb.vocabulary
        for question in questions:
            for token in question.tokens:
                assert token in kb.vocabulary

    def test_deterministic(self):
        a, qa = generate_movie_kb(num_films=10, seed=5)
        b, qb = generate_movie_kb(num_films=10, seed=5)
        assert [f.obj for f in a.facts] == [f.obj for f in b.facts]
        assert [q.tokens for q in qa] == [q.tokens for q in qb]

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_movie_kb(num_films=0)
        with pytest.raises(ValueError):
            generate_movie_kb(num_films=5, questions_per_film=0)


class TestKeyValueMemory:
    def test_encoding_shapes(self, movie_kb):
        kb, _ = movie_kb
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(len(kb.vocabulary), 32))
        memory = KeyValueMemory.from_knowledge_base(kb, emb)
        assert len(memory) == len(kb)
        assert memory.embedding_dim == 32

    def test_key_is_bow_sum(self, movie_kb):
        kb, _ = movie_kb
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(len(kb.vocabulary), 16))
        memory = KeyValueMemory.from_knowledge_base(kb, emb)
        fact = kb.facts[0]
        expected = sum(emb[kb.vocabulary.id_of(t)] for t in fact.key_tokens())
        np.testing.assert_allclose(memory.keys[0], expected)

    def test_value_is_object_embedding(self, movie_kb):
        kb, _ = movie_kb
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(len(kb.vocabulary), 16))
        memory = KeyValueMemory.from_knowledge_base(kb, emb)
        fact = kb.facts[3]
        np.testing.assert_allclose(
            memory.values[3], emb[kb.vocabulary.id_of(fact.obj)]
        )

    def test_subset_gathers(self, movie_kb):
        kb, _ = movie_kb
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(len(kb.vocabulary), 16))
        memory = KeyValueMemory.from_knowledge_base(kb, emb)
        sub = memory.subset([2, 5, 9])
        assert len(sub) == 3
        np.testing.assert_allclose(sub.keys[1], memory.keys[5])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            KeyValueMemory(
                keys=np.zeros((3, 4)), values=np.zeros((3, 5)),
                value_ids=np.zeros(3, dtype=np.int64),
            )


class TestInvertedIndex:
    def test_correct_slot_always_among_candidates(self, movie_kb):
        kb, questions = movie_kb
        index = InvertedIndex.from_knowledge_base(kb)
        for question in questions:
            candidates = index.candidates(question.tokens)
            assert question.fact_index in candidates

    def test_hashing_shrinks_candidate_set(self, movie_kb):
        kb, questions = movie_kb
        index = InvertedIndex.from_knowledge_base(kb)
        sizes = [len(index.candidates(q.tokens)) for q in questions]
        assert max(sizes) < len(kb)
        assert sum(sizes) / len(sizes) < 0.5 * len(kb)

    def test_unknown_words_return_empty(self, movie_kb):
        kb, _ = movie_kb
        index = InvertedIndex.from_knowledge_base(kb)
        assert index.candidates(["zzzz", "qqqq"]).size == 0

    def test_max_df_validation(self, movie_kb):
        kb, _ = movie_kb
        index = InvertedIndex.from_knowledge_base(kb)
        with pytest.raises(ValueError):
            index.candidates(["who"], max_df=0.0)


class TestKVMnnFast:
    def test_retrieval_accuracy(self, movie_kb, kv_engine):
        _, questions = movie_kb
        correct = sum(
            kv_engine.answer(q.tokens).answer_token in q.valid_answers
            for q in questions
        )
        assert correct / len(questions) > 0.95

    def test_hashing_matches_full_scan_answers(self, movie_kb, kv_engine):
        _, questions = movie_kb
        for question in questions[:25]:
            hashed = kv_engine.answer(question.tokens, use_hashing=True)
            full = kv_engine.answer(question.tokens, use_hashing=False)
            assert hashed.answer_token == full.answer_token
            assert hashed.candidates_scanned <= full.candidates_scanned

    def test_hashing_reduction_reported(self, movie_kb, kv_engine):
        _, questions = movie_kb
        answer = kv_engine.answer(questions[0].tokens)
        assert 0.0 < answer.hashing_reduction < 1.0

    def test_column_reading_matches_baseline(self, movie_kb, kv_engine):
        """The KV read is the same Eq. (3)/(4) pipeline: chunking must
        not change the soft reading."""
        _, questions = movie_kb
        q = kv_engine.encode_question(questions[0].tokens)
        memory = kv_engine.memory
        small_chunks = ColumnMemNN(
            memory.keys, memory.values, chunk=ChunkConfig(chunk_size=7)
        ).output(q)
        one_chunk = ColumnMemNN(
            memory.keys, memory.values, chunk=ChunkConfig(chunk_size=10_000)
        ).output(q)
        np.testing.assert_allclose(
            small_chunks.output, one_chunk.output, rtol=1e-9
        )

    def test_zero_skip_reduces_value_reads(self, movie_kb):
        kb, questions = movie_kb
        skipping = KVMnnFast(
            kb, zero_skip=ZeroSkipConfig(threshold=0.01)
        )
        answer = skipping.answer(questions[0].tokens, use_hashing=False)
        assert answer.stats.rows_skipped > 0
        # The hard retrieval must be unaffected by skipping soft reads.
        assert answer.answer_token in questions[0].valid_answers

    def test_unknown_question_words_ignored(self, kv_engine):
        vector = kv_engine.encode_question(["notaword", "who"])
        only_known = kv_engine.encode_question(["who"])
        np.testing.assert_allclose(vector, only_known)
