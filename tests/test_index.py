"""Unit tests for the IVF top-k retrieval tier (ISSUE 6).

Covers the index data structure (k-means build, membership partition,
probing), the :class:`~repro.core.config.TopKConfig` surface (knob
validation, sizing heuristics, batch-union candidate model) and the
:class:`~repro.index.TopKMemNN` dispatch — in particular the
exact-scan fallback, which must be *bit-exact* with the column kernel
(the approximate tier's quality metrics live in
``test_topk_recall.py``).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    ChunkConfig,
    ColumnMemNN,
    EngineConfig,
    MnnFastEngine,
    TopKConfig,
)
from repro.docqa import (
    docqa_network,
    docqa_weights,
    generate_queries,
    synthetic_corpus,
)
from repro.index import IVFIndex, TopKMemNN
from repro.store import MmapStore, ResidentStore


def _memories(rng, ns=600, ed=16):
    return rng.normal(size=(ns, ed)), rng.normal(size=(ns, ed))


class TestTopKConfigValidation:
    def test_disabled_by_default(self):
        config = TopKConfig()
        assert not config.enabled
        assert not config.uses_index(10**6)

    def test_rejects_negative_nprobe(self):
        with pytest.raises(ValueError, match="nprobe"):
            TopKConfig(nprobe=-1)

    def test_rejects_non_integer_nprobe(self):
        with pytest.raises(ValueError, match="nprobe"):
            TopKConfig(nprobe=2.5)

    def test_rejects_bad_nlist(self):
        with pytest.raises(ValueError, match="nlist"):
            TopKConfig(nprobe=4, nlist=0)

    def test_rejects_bad_kmeans_iters(self):
        with pytest.raises(ValueError, match="kmeans_iters"):
            TopKConfig(nprobe=4, kmeans_iters=0)

    def test_rejects_negative_min_rows(self):
        with pytest.raises(ValueError, match="min_rows"):
            TopKConfig(nprobe=4, min_rows=-1)

    def test_effective_nlist_defaults_to_sqrt(self):
        assert TopKConfig(nprobe=4).effective_nlist(10_000) == 100
        assert TopKConfig(nprobe=4, nlist=32).effective_nlist(10_000) == 32
        # Never more clusters than rows.
        assert TopKConfig(nprobe=4, nlist=500).effective_nlist(10) == 10

    def test_uses_index_respects_min_rows(self):
        config = TopKConfig(nprobe=4, min_rows=100)
        assert not config.uses_index(100)
        assert config.uses_index(101)

    def test_expected_candidates_single_question(self):
        config = TopKConfig(nprobe=10, nlist=100, min_rows=0)
        assert config.expected_candidates(10_000) == 1_000
        # Fallback / disabled: every row is a candidate.
        assert TopKConfig().expected_candidates(10_000) == 10_000
        assert TopKConfig(nprobe=4, min_rows=10**6).expected_candidates(
            10_000
        ) == 10_000

    def test_expected_candidates_batch_union_grows(self):
        config = TopKConfig(nprobe=10, nlist=100, min_rows=0)
        single = config.expected_candidates(10_000, batch_size=1)
        batch = config.expected_candidates(10_000, batch_size=16)
        assert single < batch <= 10_000
        # 1 - (1 - 0.1)^16 of the rows, up to rounding.
        expected = 10_000 * (1.0 - 0.9**16)
        assert abs(batch - expected) <= 1
        with pytest.raises(ValueError, match="batch_size"):
            config.expected_candidates(10_000, batch_size=0)

    def test_probing_everything_is_a_full_scan(self):
        config = TopKConfig(nprobe=200, nlist=100, min_rows=0)
        assert config.expected_candidates(10_000) == 10_000


class TestIVFIndex:
    def test_members_partition_the_rows(self, rng):
        m_in, m_out = _memories(rng)
        store_rows = m_in.shape[0]
        index = IVFIndex.build(
            ColumnMemNN(m_in, m_out).store, nlist=16, seed=0
        )
        assert index.num_rows == store_rows
        assert index.nlist == 16
        all_members = np.concatenate(
            [index.cluster_members(c) for c in range(index.nlist)]
        )
        np.testing.assert_array_equal(
            np.sort(all_members), np.arange(store_rows)
        )
        assert sum(index.cluster_sizes) == store_rows

    def test_topical_workload_repeat_twice_identical(self):
        """Same seed, same workload — the generator draws nothing
        outside its own rng, so benches and sweeps are repeatable."""
        from repro.core import MemNNConfig
        from repro.index import synthetic_topical_workload

        config = MemNNConfig(
            embedding_dim=16, num_sentences=400, vocab_size=300, max_words=6
        )
        first = synthetic_topical_workload(
            config, 20, rng=np.random.default_rng(5)
        )
        second = synthetic_topical_workload(
            config, 20, rng=np.random.default_rng(5)
        )
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_build_is_deterministic(self, rng):
        m_in, m_out = _memories(rng)
        store = ColumnMemNN(m_in, m_out).store
        a = IVFIndex.build(store, nlist=8, seed=3)
        b = IVFIndex.build(store, nlist=8, seed=3)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.cluster_sizes, b.cluster_sizes)
        for cluster in range(a.nlist):
            np.testing.assert_array_equal(
                a.cluster_members(cluster), b.cluster_members(cluster)
            )

    def test_probe_returns_sorted_unique_members(self, rng):
        m_in, m_out = _memories(rng)
        index = IVFIndex.build(ColumnMemNN(m_in, m_out).store, nlist=16)
        u = rng.normal(size=(3, m_in.shape[1]))
        runs, clusters = index.probe(u, nprobe=4)
        assert 1 <= len(clusters) <= 3 * 4  # union across the batch
        # Runs: non-empty, ascending, disjoint, adjacent clusters merged.
        assert np.all(runs[:, 1] > runs[:, 0])
        assert np.all(runs[1:, 0] > runs[:-1, 1])
        assert len(runs) <= len(clusters)
        candidates = index.rows(runs)
        assert np.all(np.diff(candidates) > 0)  # sorted, unique
        expected = np.sort(np.concatenate(
            [index.cluster_members(c) for c in clusters]
        ))
        np.testing.assert_array_equal(candidates, expected)
        # The runs index the member permutation (the cluster-major order).
        np.testing.assert_array_equal(
            np.sort(np.concatenate([index.members[a:b] for a, b in runs])),
            expected,
        )

    def test_probe_all_clusters_is_every_row(self, rng):
        m_in, m_out = _memories(rng)
        index = IVFIndex.build(ColumnMemNN(m_in, m_out).store, nlist=8)
        u = rng.normal(size=(2, m_in.shape[1]))
        runs, _ = index.probe(u, nprobe=8)
        np.testing.assert_array_equal(runs, [[0, m_in.shape[0]]])
        np.testing.assert_array_equal(index.rows(runs), np.arange(m_in.shape[0]))

    def test_probed_cluster_contains_its_centroid_row(self, rng):
        # A question aligned with a stored row must retrieve that row:
        # the row's cluster maximizes u.c among all clusters containing
        # it is not guaranteed in general, but probing enough clusters
        # (nprobe = nlist) always recovers it — spot-check mid nprobe.
        m_in, m_out = _memories(rng)
        index = IVFIndex.build(ColumnMemNN(m_in, m_out).store, nlist=8)
        row = 17
        runs, _ = index.probe(m_in[row][None, :] * 2.0, nprobe=8)
        assert row in index.rows(runs)


class TestTopKMemNNDispatch:
    def test_requires_enabled_config(self, rng):
        m_in, m_out = _memories(rng)
        with pytest.raises(ValueError, match="enabled"):
            TopKMemNN(m_in, m_out, config=TopKConfig())

    def test_fallback_is_bit_exact_with_column(self, rng):
        """Below min_rows the tier delegates to the exact kernel —
        identical bytes, not 1e-10-close."""
        m_in, m_out = _memories(rng, ns=300)
        u = rng.normal(size=(4, m_in.shape[1]))
        chunk = ChunkConfig(64)
        exact = ColumnMemNN(m_in, m_out, chunk=chunk).output(u)
        topk = TopKMemNN(
            m_in, m_out, config=TopKConfig(nprobe=4, min_rows=1000),
            chunk=chunk,
        ).output(u)
        np.testing.assert_array_equal(topk.output, exact.output)
        assert topk.index_stats is not None
        assert not topk.index_stats.used_index
        assert topk.index_stats.candidate_fraction == 1.0

    def test_indexed_pass_reports_stats(self, rng):
        m_in, m_out = _memories(rng)
        u = rng.normal(size=(2, m_in.shape[1]))
        solver = TopKMemNN(
            m_in, m_out,
            config=TopKConfig(nprobe=2, nlist=16, min_rows=0),
        )
        result = solver.output(u)
        stats = result.index_stats
        assert stats is not None and stats.used_index
        assert stats.nlist == 16 and stats.nprobe == 2
        assert 0.0 < stats.candidate_fraction < 1.0
        assert stats.candidate_rows < stats.num_rows == m_in.shape[0]
        # The index is built once and reused.
        first = solver.index
        solver.output(u)
        assert solver.index is first

    def test_candidate_rows_attention_matches_exact_subset(self, rng):
        """The tier's output equals the exact kernel run on exactly the
        candidate rows — the approximation is *which* rows, never *how*
        they are attended."""
        m_in, m_out = _memories(rng)
        u = rng.normal(size=(3, m_in.shape[1]))
        solver = TopKMemNN(
            m_in, m_out, config=TopKConfig(nprobe=3, nlist=16, min_rows=0)
        )
        result = solver.output(u)
        candidates = solver.index.rows(solver.index.probe(u, nprobe=3)[0])
        subset = ColumnMemNN(m_in[candidates], m_out[candidates]).output(u)
        np.testing.assert_allclose(
            result.output, subset.output, rtol=1e-10, atol=1e-10
        )

    def test_works_over_mmap_store(self, rng, tmp_path):
        m_in, m_out = _memories(rng)
        store = MmapStore.save(tmp_path / "memories", m_in, m_out)
        u = rng.normal(size=(2, m_in.shape[1]))
        resident = TopKMemNN(
            m_in, m_out, config=TopKConfig(nprobe=4, nlist=16, min_rows=0)
        ).output(u)
        mapped_solver = TopKMemNN(
            store=store,
            config=TopKConfig(nprobe=4, nlist=16, min_rows=0),
        )
        mapped = mapped_solver.output(u)
        np.testing.assert_allclose(
            mapped.output, resident.output, rtol=1e-10, atol=1e-10
        )
        assert mapped_solver.store_stats is not None


class TestEngineConfigTopK:
    def test_with_topk_enables_and_disables(self):
        config = EngineConfig().with_topk(nprobe=8)
        assert config.topk.enabled
        assert not config.with_topk(nprobe=0).topk.enabled

    def test_with_topk_preserves_omitted_knobs(self):
        config = EngineConfig().with_topk(nprobe=8, min_rows=0, nlist=32)
        again = config.with_topk(nprobe=4, measure_recall=True)
        assert again.topk.min_rows == 0
        assert again.topk.nlist == 32
        assert again.topk.nprobe == 4
        assert again.topk.measure_recall

    def test_baseline_with_topk_rejected_at_validate(self):
        config = EngineConfig.baseline().with_topk(nprobe=8)
        with pytest.raises(ValueError, match="baseline"):
            config.validate()
        # The column and sharded dataflows compose with the tier.
        EngineConfig(algorithm="column").with_topk(nprobe=8).validate()
        EngineConfig.sharded(2).with_topk(nprobe=8).validate()


# --- cluster-major candidate scan --------------------------------------------


def _docqa_surrogate(
    num_docs=16, rows_per_doc=64, num_queries=48, embedding_dim=32, seed=0
):
    """A small copy of perfbench's ``docqa_sessions`` inputs: planted
    doc/fact anchors, peaked input embedding, damped output embedding."""
    corpus = synthetic_corpus(
        num_docs=num_docs, rows_per_doc=rows_per_doc, max_words=8, seed=seed
    )
    queries, _ = generate_queries(corpus, num_queries, seed=seed + 1)
    network = docqa_network(corpus, embedding_dim=embedding_dim, hops=2)
    weights = docqa_weights(network, seed=seed + 2, scale=0.7, out_scale=0.02)
    questions = np.stack([query.words for query in queries])
    return network, weights, corpus.rows, questions


def _docqa_engine(problem, engine_config, rows=None):
    network, weights, stories, _ = problem
    engine = MnnFastEngine(network, weights, engine_config=engine_config)
    engine.store_story(stories if rows is None else stories[:rows])
    return engine


class TestClusterMajorScan:
    """A resident, unsharded memory is scanned in cluster-major order:
    the probe's runs index a permuted copy made at index-build time."""

    def test_all_clusters_probed_equals_the_exact_scan(self, rng):
        m_in, m_out = _memories(rng)
        u = rng.normal(size=(3, m_in.shape[1]))
        chunk = ChunkConfig(128)
        exact = ColumnMemNN(m_in, m_out, chunk=chunk).output(u)
        scanned = TopKMemNN(
            m_in, m_out, chunk=chunk,
            config=TopKConfig(nprobe=16, nlist=16, min_rows=0),
        ).output(u)
        assert scanned.index_stats.candidate_rows == m_in.shape[0]
        np.testing.assert_allclose(
            scanned.output, exact.output, rtol=1e-10, atol=1e-10
        )

    def test_matches_the_gather_path_on_the_docqa_surrogate(self, tmp_path):
        """Same candidates, recall and answers as the gather path an
        out-of-core memory still takes (``RowSubsetStore`` reads in
        original row order), at ``nprobe < nlist`` with zero-skipping
        and the early-exit gate on."""
        problem = _docqa_surrogate()
        config = (
            EngineConfig.mnnfast(chunk_size=256)
            .with_topk(
                nprobe=6, nlist=24, min_rows=0,
                measure_recall=True, record_candidates=True,
            )
            .with_early_exit(0.2)
        )
        scan = _docqa_engine(problem, config)
        gather = _docqa_engine(
            problem, config.with_store(backend="mmap", path=str(tmp_path / "m"))
        )
        questions = problem[3]
        for start in range(0, len(questions), 4):
            a = scan.answer(questions[start : start + 4])
            b = gather.answer(questions[start : start + 4])
            np.testing.assert_array_equal(a.answer_ids, b.answer_ids)
            np.testing.assert_array_equal(a.hop_trace.hops_run, b.hop_trace.hops_run)
            stats = zip(a.tier_stats()["index"], b.tier_stats()["index"])
            for hop, (sa, sb) in enumerate(stats):
                assert 0 < sa.candidate_rows < sa.num_rows
                assert sa.candidate_rows == sb.candidate_rows
                # Recorded candidates stay sorted original row ids.
                assert sa.candidates == sb.candidates
                assert list(sa.candidates) == sorted(set(sa.candidates))
                # The running-probability skip mask depends on scan
                # order, so past the first hop the two paths' states
                # (hence recalls) agree to the skip threshold's scale.
                assert sa.recall == pytest.approx(
                    sb.recall, rel=1e-12 if hop == 0 else 1e-4
                )
        assert scan._solver(0)._cluster_scan is not None
        assert gather._solver(0)._cluster_scan is None
        gather.close()

    def test_append_rebuilds_the_cluster_major_copy(self):
        """``store_story`` after an indexed pass drops the permuted
        copy with the index; the next pass rebuilds both over the
        longer memory — identical to an engine that ingested it whole."""
        problem = _docqa_surrogate()
        config = EngineConfig.mnnfast(chunk_size=256).with_topk(
            nprobe=6, nlist=24, min_rows=0
        )
        stories, questions = problem[2], problem[3][:8]
        appended = _docqa_engine(problem, config, rows=700)
        appended.answer(questions)
        first = appended._solver(0)._cluster_scan
        assert first.num_sentences == 700
        appended.store_story(stories[700:])
        result = appended.answer(questions)
        assert appended._solver(0)._cluster_scan is not first
        assert appended._solver(0)._cluster_scan.num_sentences == len(stories)
        whole = _docqa_engine(problem, config).answer(questions)
        assert result.logits.tobytes() == whole.logits.tobytes()

    def test_steady_state_pass_neither_gathers_nor_rebuilds(self, monkeypatch):
        """The regression this layout removes: per hop, a fancy-index
        copy of every candidate row of ``M_IN`` and ``M_OUT`` and a
        throw-away ``ColumnMemNN`` + ``ResidentStore`` around them."""
        problem = _docqa_surrogate()
        engine = _docqa_engine(
            problem,
            EngineConfig.mnnfast(chunk_size=256)
            .with_topk(nprobe=6, nlist=24, min_rows=0)
            .with_early_exit(0.2),
        )
        questions = problem[3][:5]
        engine.answer_batch(questions)  # builds index, permuted copy, solver

        calls = {}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(IVFIndex, "probe")
        counted(ColumnMemNN, "output")
        counted(ColumnMemNN, "__init__")
        counted(ResidentStore, "read_rows")

        # Transient bytes of each hop through the tier (the answer
        # layer's logits, allocated between hops, are not the tier's).
        hop_peaks = []
        tier_output = TopKMemNN.output

        def measured(*args, **kwargs):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            try:
                return tier_output(*args, **kwargs)
            finally:
                hop_peaks.append(tracemalloc.get_traced_memory()[1] - before)

        monkeypatch.setattr(TopKMemNN, "output", measured)
        tracemalloc.start()
        try:
            batch = engine.answer_batch(questions).batch
        finally:
            tracemalloc.stop()

        hops = len(batch.hop_stats)
        assert calls == {"probe": hops, "output": hops}
        assert len(hop_peaks) == hops
        candidates = min(s.candidate_rows for s in batch.tier_stats()["index"])
        candidate_matrix = candidates * engine.config.embedding_dim * 8
        assert max(hop_peaks) < candidate_matrix / 2, (hop_peaks, candidate_matrix)
