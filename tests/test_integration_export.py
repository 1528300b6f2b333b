"""Integration: train a MemN2N, export it, serve it with the engine.

The strongest cross-module invariant in the repository: the serving
engine (baseline or fully-optimized MnnFast dataflow) must produce the
same logits as the trained model it was exported from.
"""

import numpy as np
import pytest

from repro.core import EngineConfig, MnnFastEngine
from repro.data import build_vocabulary, generate_task, vectorize
from repro.model import (
    MemN2N,
    MemN2NConfig,
    Trainer,
    to_engine_config,
    to_engine_weights,
)

from .conftest import float64

MAX_WORDS = 10


def make_trained_model(hops: int, rng_seed: int = 0):
    examples = generate_task(1, 150, seed=rng_seed)
    vocab = build_vocabulary(examples)
    stories, questions, answers = vectorize(examples, vocab, MAX_WORDS, 16)
    model = MemN2N(
        MemN2NConfig(
            vocab_size=len(vocab),
            embedding_dim=16,
            hops=hops,
            max_sentences=16,
            max_words=MAX_WORDS,
            use_temporal_encoding=False,
        ),
        rng=np.random.default_rng(rng_seed),
    )
    Trainer(model, rng=np.random.default_rng(rng_seed + 1)).fit(
        stories, questions, answers, epochs=8
    )
    return model, vocab, examples


def engine_for(model, example, engine_config=None):
    return MnnFastEngine(
        to_engine_config(model, num_sentences=example.num_sentences),
        to_engine_weights(model),
        engine_config=engine_config,
        use_position_encoding=model.config.use_position_encoding,
    )


@pytest.mark.parametrize("hops", [1, 2, 3])
def test_engine_matches_model_logits(hops):
    model, vocab, examples = make_trained_model(hops)
    example = examples[0]
    story_ids = np.stack(
        [vocab.encode(s, width=MAX_WORDS) for s in example.story]
    )
    question_ids = vocab.encode(example.question, width=MAX_WORDS)[None, :]

    # Model-side forward (no padding slots: trim to the story length).
    model_logits = model.forward(story_ids[None, :, :], question_ids).logits

    engine = engine_for(model, example, engine_config=float64())
    engine.store_story(story_ids)
    result = engine.answer(question_ids)

    np.testing.assert_allclose(result.logits, model_logits, rtol=1e-9)


@pytest.mark.parametrize("hops", [1, 2])
def test_mnnfast_dataflow_matches_model(hops):
    """The optimized dataflow (column + streaming + tiny threshold)
    must still predict what the trained model predicts."""
    model, vocab, examples = make_trained_model(hops)
    agreements = 0
    for example in examples[:20]:
        story_ids = np.stack(
            [vocab.encode(s, width=MAX_WORDS) for s in example.story]
        )
        question_ids = vocab.encode(example.question, width=MAX_WORDS)[None, :]
        model_answer = model.predict(story_ids[None, :, :], question_ids)[0]

        engine = engine_for(
            model, example,
            engine_config=EngineConfig.mnnfast(chunk_size=4, threshold=1e-6),
        )
        engine.store_story(story_ids)
        engine_answer = engine.answer(question_ids).answer_ids[0]
        agreements += int(engine_answer == model_answer)
    assert agreements == 20


def test_adjacent_weights_reject_wrong_hop_count():
    model, _, _ = make_trained_model(hops=2)
    weights = to_engine_weights(model)
    from repro.core import MemNNConfig as EngineCfg

    with pytest.raises(ValueError, match="hops"):
        MnnFastEngine(
            EngineCfg(
                embedding_dim=16,
                num_sentences=16,
                vocab_size=model.config.vocab_size,
                max_words=MAX_WORDS,
                hops=3,  # mismatch: weights serve exactly 2
            ),
            weights,
        )


def test_temporal_encoding_blocks_export():
    model = MemN2N(
        MemN2NConfig(vocab_size=10, embedding_dim=4, hops=1,
                     max_sentences=4, max_words=3,
                     use_temporal_encoding=True)
    )
    with pytest.raises(ValueError, match="temporal"):
        to_engine_weights(model)


def test_export_config_round_trip():
    model, _, _ = make_trained_model(hops=1)
    config = to_engine_config(model, num_sentences=42)
    assert config.num_sentences == 42
    assert config.embedding_dim == model.config.embedding_dim
    assert config.hops == 1
    with pytest.raises(ValueError):
        to_engine_config(model, num_sentences=0)
