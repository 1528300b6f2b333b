"""Differential grid for the approximate top-k tier (ISSUE 6).

The tier composes with every other optimization the engine offers —
zero-skipping, sharded fan-out, the out-of-core store — and its
quality contract must hold across the whole grid:

* **answer agreement** with the exact engine >= 0.99 and
  **attention-mass recall** >= 0.95 at the default ``nprobe``, on the
  topical workload (the concentrated-attention regime the tier is
  built for);
* in **exact-scan fallback** (memory at or below ``min_rows``) the
  tier is not approximate at all: logits agree with the exact engine
  to the repo-wide 1e-10 bound.

Quality measurement runs over *small batches*: candidates are unioned
across each kernel pass, so one big batch would cover most clusters
and make the floors trivially (and meaninglessly) easy.
"""

import itertools

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    TopKConfig,
    ZeroSkipConfig,
)
from repro.core.zero_skip import probability_mode_mask
from repro.index import TopKMemNN, synthetic_topical_workload

AGREEMENT_FLOOR = 0.99
RECALL_FLOOR = 0.95
LOGIT_TOLERANCE = 1e-10  # fallback mode — same bound as the exact paths

NS, ED, NW, VOCAB = 4_096, 32, 8, 2_000
NQ_BATCH, NUM_BATCHES = 8, 16  # 128 questions: floors hold a 1-miss slack

#: Zero-skip grid dimension.  A candidate scan's running denominators
#: never exceed the full memory's, so on the candidates it keeps every
#: row the exact engine keeps; at 0.001 the floors hold with the
#: retrieval approximation on top.  Thresholds that bite harder
#: (0.01 already costs 4 of 128 answers) are pinned separately in
#: :func:`test_probability_skip_renormalizes_over_candidates`.
ZERO_SKIPS = (0.0, 0.001)
STORES = ("resident", "mmap")
SHARDS = (1, 3)


@pytest.fixture(scope="module")
def workload():
    config = MemNNConfig(
        embedding_dim=ED, num_sentences=NS, num_questions=NQ_BATCH,
        vocab_size=VOCAB, max_words=NW, hops=1,
    )
    rng = np.random.default_rng(42)
    weights = EngineWeights.random(config, rng=rng, scale=0.35)
    stories, questions = synthetic_topical_workload(
        config, NQ_BATCH * NUM_BATCHES, rng=rng
    )
    return config, weights, stories, questions


def _grid_config(zero_skip, store, shards, tmp_path) -> EngineConfig:
    config = EngineConfig(algorithm="column")
    if zero_skip:
        config = config.with_zero_skip(zero_skip)
    if shards > 1:
        config = config.with_sharding(shards)
    if store == "mmap":
        config = config.with_store(
            backend="mmap", path=str(tmp_path / "memories")
        )
    return config


def _answers_per_batch(config, weights, stories, questions, engine_config):
    engine = MnnFastEngine(config, weights, engine_config=engine_config)
    engine.store_story(stories)
    results = []
    for i in range(NUM_BATCHES):
        batch = questions[i * NQ_BATCH:(i + 1) * NQ_BATCH]
        results.append(engine.answer(batch))
    return results


@pytest.mark.parametrize(
    "zero_skip,store,shards",
    list(itertools.product(ZERO_SKIPS, STORES, SHARDS)),
    ids=lambda v: str(v),
)
def test_grid_holds_quality_floors(workload, tmp_path, zero_skip, store, shards):
    config, weights, stories, questions = workload
    base = _grid_config(zero_skip, store, shards, tmp_path)
    topk_cfg = base.with_topk(nprobe=8, min_rows=0, measure_recall=True)

    exact = _answers_per_batch(config, weights, stories, questions, base)
    topk = _answers_per_batch(config, weights, stories, questions, topk_cfg)

    agree = 0
    recalls = []
    used_index = False
    for e, t in zip(exact, topk):
        agree += int(np.sum(e.answer_ids == t.answer_ids))
        for s in t.tier_stats()["index"]:
            assert s is not None
            used_index = used_index or s.used_index
            if s.recall is not None:
                recalls.append(s.recall)
    agreement = agree / len(questions)

    assert used_index, "grid point never exercised the index"
    assert agreement >= AGREEMENT_FLOOR, (
        f"agreement {agreement:.4f} under zero_skip={zero_skip}, "
        f"store={store}, shards={shards}"
    )
    assert float(np.mean(recalls)) >= RECALL_FLOOR, (
        f"mean recall {np.mean(recalls):.4f} under zero_skip={zero_skip}, "
        f"store={store}, shards={shards}"
    )


def test_probability_skip_renormalizes_over_candidates(workload):
    """Probability-mode zero-skipping composes with the tier but its
    threshold applies to the *candidate-renormalized* distribution, so
    the keep mask can differ from the exact engine's near the
    threshold — a documented semantic interaction, pinned here at a
    bound looser than the retrieval-only floor."""
    config, weights, stories, questions = workload
    base = EngineConfig(algorithm="column").with_zero_skip(0.1)
    topk_cfg = base.with_topk(nprobe=8, min_rows=0)

    exact = _answers_per_batch(config, weights, stories, questions, base)
    topk = _answers_per_batch(config, weights, stories, questions, topk_cfg)
    agree = sum(
        int(np.sum(e.answer_ids == t.answer_ids))
        for e, t in zip(exact, topk)
    )
    assert agree / len(questions) >= 0.95


def test_candidate_scan_keeps_every_row_the_exact_rule_keeps():
    """On the rows it scans, the tier's skip rule keeps every row the
    exact rule keeps — a candidate scan's running denominators never
    exceed the full memory's — and it reads no other row."""
    rng = np.random.default_rng(3)
    ns, ed = 512, 8
    m_in, u = rng.normal(size=(ns, ed)), rng.normal(size=(4, ed))
    exact = probability_mode_mask(u @ m_in.T, 0.01)
    # One-hot M_OUT, M_IN and u zero-padded to match: response column i
    # is row i's kept weight.
    pad = ((0, 0), (0, ns - ed))
    config = TopKConfig(nprobe=2, min_rows=0, record_candidates=True)
    result = TopKMemNN(np.pad(m_in, pad), np.eye(ns), config=config).output(
        np.pad(u, pad), zero_skip=ZeroSkipConfig(0.01)
    )
    kept = result.output != 0
    scanned = np.zeros(ns, dtype=bool)
    scanned[list(result.index_stats.candidates)] = True
    assert 0 < scanned.sum() < ns and not kept[:, ~scanned].any()
    assert exact[:, scanned].any()
    assert not (exact[:, scanned] & ~kept[:, scanned]).any()


@pytest.mark.parametrize(
    "zero_skip,store,shards",
    list(itertools.product(ZERO_SKIPS, STORES, SHARDS)),
    ids=lambda v: str(v),
)
def test_grid_fallback_is_exact(tmp_path, zero_skip, store, shards):
    """With the memory at or below ``min_rows`` the tier delegates to
    the configured exact path — logits agree to 1e-10 everywhere on
    the grid (so enabling top-k is always safe: small memories lose
    nothing)."""
    ns = 96
    config = MemNNConfig(
        embedding_dim=16, num_sentences=ns, num_questions=4,
        vocab_size=200, max_words=6, hops=2,
    )
    rng = np.random.default_rng(9)
    weights = EngineWeights.random(config, rng=rng)
    stories = rng.integers(1, 200, size=(ns, 6))
    questions = rng.integers(1, 200, size=(4, 6))

    base = _grid_config(zero_skip, store, shards, tmp_path)
    topk_cfg = base.with_topk(nprobe=8)  # default min_rows >> ns
    results = {}
    for name, cfg in (("exact", base), ("topk", topk_cfg)):
        engine = MnnFastEngine(config, weights, engine_config=cfg)
        engine.store_story(stories)
        results[name] = engine.answer(questions)

    np.testing.assert_allclose(
        results["topk"].logits, results["exact"].logits,
        rtol=LOGIT_TOLERANCE, atol=LOGIT_TOLERANCE,
    )
    np.testing.assert_array_equal(
        results["topk"].answer_ids, results["exact"].answer_ids
    )
    index_stats = [
        s for s in results["topk"].tier_stats()["index"] if s is not None
    ]
    assert index_stats and not any(s.used_index for s in index_stats)
