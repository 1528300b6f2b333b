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
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    ChunkConfig,
    ColumnMemNN,
    EngineConfig,
    MnnFastEngine,
    TopKConfig,
    compiled_fold,
)
from repro.core.column import ScanRecord
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

    def test_probing_every_cluster_uses_no_index(self):
        config = TopKConfig(nprobe=16, nlist=16, min_rows=0)
        assert not config.uses_index(600)
        assert TopKConfig(nprobe=15, nlist=16, min_rows=0).uses_index(600)
        # nlist is capped by the rows: 10 rows hold at most 10 clusters.
        assert not TopKConfig(nprobe=10, nlist=32, min_rows=0).uses_index(10)

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

    def test_build_drops_empty_clusters(self):
        """Duplicate rows can seed two identical centroids; one wins
        every row and the other ends empty.  A probe at ``nprobe=1``
        that picked the empty twin used to return no run, and the pass
        raised on an empty denominator."""
        rng = np.random.default_rng(0)
        distinct_in, distinct_out = rng.normal(size=(2, 8, 8))
        pick = rng.integers(0, 8, size=64)
        m_in, m_out = distinct_in[pick], distinct_out[pick]
        u = rng.normal(size=(1, 8))
        for seed in range(20):
            solver = TopKMemNN(
                m_in, m_out,
                config=TopKConfig(nprobe=1, nlist=16, min_rows=0, seed=seed),
            )
            result = solver.output(u)
            index = solver.index
            assert index.nlist <= 8
            assert np.all(index.cluster_sizes > 0)
            assert result.index_stats.nlist == index.nlist
            assert result.index_stats.candidate_rows > 0

    @pytest.mark.parametrize("nq", (1, 3, 8))
    def test_probe_returns_what_it_returned(self, nq):
        """The probe's runs, clusters and candidate rows equal those of
        the ``np.unique``/``np.stack`` probe it replaced, kept here."""

        def reference(index, u, nprobe):
            nprobe = min(nprobe, index.nlist)
            offsets = np.concatenate([[0], np.cumsum(index.cluster_sizes)])
            scores = u @ index.centroids.T
            if nprobe == index.nlist:
                clusters = np.arange(index.nlist, dtype=np.intp)
            else:
                top = np.argpartition(scores, -nprobe, axis=1)[:, -nprobe:]
                clusters = np.unique(top).astype(np.intp)
            starts, stops = offsets[clusters], offsets[clusters + 1]
            opens = np.ones(len(clusters), dtype=bool)
            np.not_equal(starts[1:], stops[:-1], out=opens[1:])
            closes = np.ones(len(clusters), dtype=bool)
            closes[:-1] = opens[1:]
            runs = np.stack([starts[opens], stops[closes]], axis=1)
            runs = runs[runs[:, 1] > runs[:, 0]]
            rows = np.sort(np.concatenate([index.members[a:b] for a, b in runs]))
            return runs, clusters, rows

        rng = np.random.default_rng(nq)
        for trial in range(6):
            ns, nlist = rng.integers(40, 400), rng.integers(4, 33)
            m_in, m_out = _memories(rng, ns=ns, ed=8)
            index = IVFIndex.build(
                ColumnMemNN(m_in, m_out).store, nlist=nlist, seed=trial
            )
            nlist = index.nlist
            u = rng.normal(size=(nq, 8))
            for nprobe in {1, max(1, nlist // 4), nlist - 1, nlist, nlist + 3}:
                if nprobe < 1:
                    continue
                runs, clusters = index.probe(u, nprobe)
                want_runs, want_clusters, want_rows = reference(index, u, nprobe)
                np.testing.assert_array_equal(runs, want_runs)
                np.testing.assert_array_equal(clusters, want_clusters)
                assert runs.dtype == want_runs.dtype
                assert clusters.dtype == want_clusters.dtype
                np.testing.assert_array_equal(index.rows(runs), want_rows)


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
        tier = TopKMemNN(
            m_in, m_out, chunk=chunk,
            config=TopKConfig(nprobe=16, nlist=16, min_rows=0),
        )
        scanned = tier.output(u)
        # Probing every cluster is the exact scan itself: no index, no
        # cluster-major copy, the same bytes.
        assert tier.index is None
        assert scanned.index_stats.candidate_rows == m_in.shape[0]
        assert not scanned.index_stats.used_index
        assert scanned.output.tobytes() == exact.output.tobytes()

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

    @pytest.mark.parametrize("fold", ("compiled", "numpy"))
    def test_a_lean_hop_equals_the_full_shape_hop(self, fold, request, monkeypatch):
        """An engine hop through the tier ends in place over the
        cluster-major copy and keeps a bare record; recording the
        candidates keeps the full ``InferenceResult``.  Read after later
        answers, the two engines' answers and records are the same but
        for timings and the recorded candidates, and each indexed hop
        crosses the three boundaries perfbench wraps once."""
        if fold == "numpy":
            request.getfixturevalue("numpy_fold")
        elif compiled_fold.fold_backend() != "c":
            pytest.skip(compiled_fold.fold_backend())
        problem = _docqa_surrogate()
        config = (
            EngineConfig.mnnfast(chunk_size=256)
            .with_topk(nprobe=6, nlist=24, min_rows=0)
            .with_early_exit(0.2)
        )
        lean = _docqa_engine(problem, config)
        full = _docqa_engine(
            problem, config.with_topk(nprobe=6, record_candidates=True)
        )
        calls = Counter()
        for owner, attr in (
            (TopKMemNN, "output"), (IVFIndex, "probe"), (ColumnMemNN, "output"),
        ):  # fmt: skip
            original = vars(owner)[attr]

            def counted(*args, _original=original, _owner=owner, **kwargs):
                calls[_owner] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        questions = problem[3]
        batches = [questions[start : start + 4] for start in range(0, 24, 4)]
        answers = [lean.answer(batch) for batch in batches]
        hops = sum(len(answer._hops) for answer in answers)
        assert calls == {TopKMemNN: hops, IVFIndex: hops, ColumnMemNN: hops}
        # Every hop took the lean path: no InferenceResult was kept.
        assert all(
            type(hop.kernel) is ScanRecord for a in answers for hop in a._hops
        )
        wants = [full.answer(batch) for batch in batches]

        def untimed(index):
            return replace(
                index, build_seconds=0.0, probe_seconds=0.0, candidates=None
            )

        for got, want in zip(answers, wants):
            assert got.logits.tobytes() == want.logits.tobytes()
            assert got.answer_ids.tobytes() == want.answer_ids.tobytes()
            trace, want_trace = got.hop_trace, want.hop_trace
            assert trace.hops_run.tobytes() == want_trace.hops_run.tobytes()
            assert [c.tobytes() for c in trace.confidence] == [
                c.tobytes() for c in want_trace.confidence
            ]
            assert got.stats == want.stats
            assert got.hop_stats == want.hop_stats
            tiers, want_tiers = got.tier_stats(), want.tier_stats()
            assert [untimed(i) for i in tiers["index"]] == [
                untimed(i) for i in want_tiers["index"]
            ]
            assert tiers["shards"] == want_tiers["shards"]
            assert tiers["store"] == want_tiers["store"]
        build = [a.tier_stats()["index"][0].build_seconds for a in answers]
        assert build[0] > 0 and not any(build[1:])

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


# --- below the crossover -------------------------------------------------------


class TestBelowTheCrossover:
    """At or below ``TopKConfig.min_rows`` an engine hop through the tier
    is the exact column kernel's own: no index, no cluster-major copy,
    one ``ColumnMemNN.output(u_tile=...)`` per hop."""

    CONFIG = (
        EngineConfig.mnnfast(chunk_size=256)
        .with_topk(nprobe=6, nlist=24)
        .with_early_exit(0.2)
    )

    @pytest.mark.parametrize("fold", ("compiled", "numpy"))
    def test_a_fallback_hop_is_the_tier_off_hop(self, fold, request):
        """Logits, answers, depths and gate confidences are the tier-off
        engine's bytes; each hop's record reads no index and every row
        a candidate, and the counters hold no probe."""
        if fold == "numpy":
            request.getfixturevalue("numpy_fold")
        elif compiled_fold.fold_backend() != "c":
            pytest.skip(compiled_fold.fold_backend())
        problem = _docqa_surrogate()
        ns = len(problem[2])
        assert not self.CONFIG.topk.uses_index(ns)
        tier = _docqa_engine(problem, self.CONFIG)
        off = _docqa_engine(problem, self.CONFIG.with_topk(nprobe=0))
        questions = problem[3]
        for start in range(0, 24, 4):
            got = tier.answer(questions[start : start + 4])
            want = off.answer(questions[start : start + 4])
            assert got.logits.tobytes() == want.logits.tobytes()
            assert got.answer_ids.tobytes() == want.answer_ids.tobytes()
            trace, want_trace = got.hop_trace, want.hop_trace
            assert trace.hops_run.tobytes() == want_trace.hops_run.tobytes()
            assert [c.tobytes() for c in trace.confidence] == [
                c.tobytes() for c in want_trace.confidence
            ]
            assert got.stats == want.stats
            assert got.hop_stats == want.hop_stats
            records = got.tier_stats()["index"]
            assert len(records) == len(got.hop_stats)
            for record in records:
                assert not record.used_index
                assert record.candidate_rows == record.num_rows == ns
                assert record.nlist == 0
        solver = tier._solver(0)
        assert solver.index is None and solver._cluster_scan is None

    def test_a_fallback_hop_builds_and_probes_nothing(self, monkeypatch):
        problem = _docqa_surrogate()
        engine = _docqa_engine(problem, self.CONFIG)
        calls = Counter()
        for owner, attr in (
            (IVFIndex, "build"), (IVFIndex, "probe"), (ColumnMemNN, "output"),
        ):  # fmt: skip
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                original = getattr(owner, attr)

            def counted(*args, _original=original, _attr=attr, **kwargs):
                hop = kwargs.get("u_tile") is not None
                calls[_attr + (" hop" if hop else "")] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        questions = problem[3]
        answers = [
            engine.answer(questions[start : start + 4]) for start in range(0, 24, 4)
        ]
        hops = sum(len(answer._hops) for answer in answers)
        # On the compiled fold each answer is one repro_pass call through
        # the exact solver: no hop crosses output.
        looped = hops if compiled_fold.fold_backend() != "c" else 0
        assert calls == ({"output hop": looped} if looped else {})
        assert all(
            type(hop.kernel) is ScanRecord for a in answers for hop in a._hops
        )

    def test_a_story_grown_across_min_rows_switches_to_the_index(self):
        """``store_story`` past ``min_rows`` drops the fallback solver;
        the next pass probes an index over the longer memory, as an
        engine that ingested the story whole does."""
        problem = _docqa_surrogate()
        config = self.CONFIG.with_topk(nprobe=6, min_rows=700)
        stories, questions = problem[2], problem[3][:8]
        grown = _docqa_engine(problem, config, rows=700)
        before = grown.answer(questions).tier_stats()["index"]
        assert not any(record.used_index for record in before)
        grown.store_story(stories[700:])
        result = grown.answer(questions)
        assert all(record.used_index for record in result.tier_stats()["index"])
        assert grown._solver(0).index.num_rows == len(stories)
        whole = _docqa_engine(problem, config).answer(questions)
        assert result.logits.tobytes() == whole.logits.tobytes()
        assert result.answer_ids.tobytes() == whole.answer_ids.tobytes()
        assert result.hop_trace.hops_run.tobytes() == whole.hop_trace.hops_run.tobytes()
