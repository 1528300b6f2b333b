"""Compatibility tests for the unified engine/serving API (v2).

Covers the unified ``VectorCache`` protocol and the engine fixes that
ride with it.  The pre-unification surfaces completed their
deprecation cycles and are asserted *gone*: the
``ServerConfig(algorithm=..., use_embedding_cache=...,
embedding_cache_bytes=...)`` keywords and ``EmbeddingCache.touch()``.
"""

import warnings

import numpy as np
import pytest

from repro.core import (
    EmbeddingCacheConfig,
    EngineConfig,
    MemNNConfig,
    MnnFastEngine,
    TraceCacheMixin,
    TraceVectorCache,
    VectorCache,
)
from repro.memsim.embedding_cache import EmbeddingCache
from repro.serving import QaServer, ServerConfig, generate_workload

from .conftest import float64


def _small_network() -> MemNNConfig:
    return MemNNConfig(
        embedding_dim=16, num_sentences=64, num_questions=2,
        vocab_size=128, max_words=6, hops=2,
    )


class TestServerConfigCompat:
    @pytest.mark.parametrize(
        "removed",
        [
            {"algorithm": "mnnfast"},
            {"use_embedding_cache": True},
            {"embedding_cache_bytes": 32768},
        ],
    )
    def test_removed_keywords_are_rejected(self, removed):
        with pytest.raises(TypeError, match=next(iter(removed))):
            ServerConfig(**removed)

    def test_new_style_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ServerConfig(
                engine=EngineConfig.mnnfast(),
                embedding_cache=EmbeddingCacheConfig(
                    size_bytes=64 * 1024, embedding_dim=48
                ),
            )


class TestCacheProtocolUnification:
    def _cache(self) -> EmbeddingCache:
        return EmbeddingCache(
            EmbeddingCacheConfig(size_bytes=4096, embedding_dim=16)
        )

    def test_embedding_cache_satisfies_protocols(self):
        cache = self._cache()
        assert isinstance(cache, VectorCache)
        assert isinstance(cache, TraceVectorCache)

    def test_touch_shim_is_gone(self):
        # The deprecated pre-unification spelling completed its cycle:
        # probe() is the only trace-mode access.
        cache = self._cache()
        assert not hasattr(cache, "touch")

    def test_probe_does_not_warn(self):
        cache = self._cache()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert cache.probe(7) is False
            assert cache.probe(7) is True

    def test_mixin_derives_probe_from_lookup_insert(self):
        class DictCache(TraceCacheMixin):
            def __init__(self):
                self.data = {}

            def lookup(self, word_id):
                return self.data.get(word_id)

            def insert(self, word_id, vector):
                self.data[word_id] = vector

        cache = DictCache()
        assert isinstance(cache, TraceVectorCache)
        assert cache.probe(5) is False  # cold miss fills the tag
        assert cache.probe(5) is True
        assert cache.probe(6) is False


class TestEngineUnification:
    def _engine(self, engine_config: EngineConfig, seed: int = 0) -> MnnFastEngine:
        config = _small_network()
        engine = MnnFastEngine(config, engine_config=engine_config)
        rng = np.random.default_rng(seed)
        story = rng.integers(1, config.vocab_size, size=(20, config.max_words))
        engine.store_story(story)
        return engine

    def _questions(self, seed: int = 1) -> np.ndarray:
        config = _small_network()
        rng = np.random.default_rng(seed)
        return rng.integers(1, config.vocab_size, size=(2, config.max_words))

    def test_attention_honors_algorithm_and_agrees(self):
        questions = self._questions()
        baseline = self._engine(EngineConfig.baseline()).attention(questions)
        column = self._engine(float64(EngineConfig.mnnfast())).attention(questions)
        np.testing.assert_allclose(baseline, column, rtol=1e-12)
        np.testing.assert_allclose(baseline.sum(axis=1), 1.0)

    def test_attention_honors_stable_softmax_flag(self):
        stable = self._engine(
            EngineConfig(algorithm="column", stable_softmax=True)
        ).attention(self._questions())
        unstable = self._engine(
            EngineConfig(algorithm="column", stable_softmax=False)
        ).attention(self._questions())
        # Well-conditioned scores: both softmax forms agree.
        np.testing.assert_allclose(stable, unstable, rtol=1e-9)

    def test_attention_accepts_vector_cache(self):
        config = _small_network()
        cache = EmbeddingCache(
            EmbeddingCacheConfig(
                size_bytes=config.vocab_size * config.embedding_dim * 4,
                embedding_dim=config.embedding_dim,
            )
        )
        questions = self._questions()
        without = self._engine(EngineConfig.mnnfast()).attention(questions)
        with_cache = self._engine(EngineConfig.mnnfast()).attention(
            questions, cache=cache
        )
        np.testing.assert_allclose(with_cache, without, rtol=1e-12)
        assert cache.stats.accesses > 0  # the cache really sat on the path

    def test_answer_reports_per_hop_stats(self):
        engine = self._engine(EngineConfig.mnnfast())
        hooked = []
        result = engine.answer(
            self._questions(), hop_hook=lambda hop, s: hooked.append(hop)
        )
        assert hooked == [0, 1]  # hops=2, in order
        assert len(result.hop_stats) == 2
        per_hop_flops = sum(s.flops for s in result.hop_stats)
        assert 0 < per_hop_flops < result.stats.flops  # answer layer adds more

    def test_server_accepts_legacy_workload_shapes(self):
        # The v1 entry point still runs end to end.
        workload = generate_workload(
            question_rate=2_000.0, story_rate=0.0, duration=0.01
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            metrics = QaServer(ServerConfig()).run(workload)
        assert metrics.completed == metrics.arrivals > 0
