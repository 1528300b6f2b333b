"""Confidence-gated early exit: config, gate behavior, serving lever.

Covers the adaptive hop-pruning surface end to end: the
:class:`EarlyExitConfig` validation and builder, the logit-margin
signal and :class:`HopTrace` record, the engine gate's depth
semantics (min_hops floor, never-on-last-hop, accounting), the
serving-side cost model / degradation lever
(:func:`exit_rate_for_threshold`, ``expected_hop_survivors``,
``effective_exit_threshold``), and the lever under overload.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import early_exit_workload, sweep_early_exit
from repro.core import (
    EngineConfig,
    EngineWeights,
    MemNNConfig,
    MnnFastEngine,
    softmax,
)
from repro.core.config import EarlyExitConfig
from repro.core.early_exit import (
    EXIT_CONFIDENCE,
    EXIT_FULL_DEPTH,
    AnswerLayer,
    HopTrace,
    logit_margin_confidence,
)
from repro.serving import (
    AdmissionConfig,
    DegradationConfig,
    DegradationPolicy,
    QaServer,
    QuestionRequest,
    ServerConfig,
    exit_rate_for_threshold,
    generate_workload,
)

from .conftest import float64


class TestEarlyExitConfig:
    def test_defaults_disable_the_gate(self):
        cfg = EarlyExitConfig()
        assert cfg.threshold == 0.0
        assert not cfg.enabled
        assert cfg.required_confidence == 1.0

    def test_threshold_domain(self):
        with pytest.raises(ValueError, match="threshold"):
            EarlyExitConfig(threshold=-0.1)
        with pytest.raises(ValueError, match="threshold"):
            EarlyExitConfig(threshold=1.0)
        assert EarlyExitConfig(threshold=0.999).enabled

    def test_min_hops_positive_integer(self):
        with pytest.raises(ValueError, match="min_hops"):
            EarlyExitConfig(min_hops=0)

    def test_required_confidence_is_one_minus_threshold(self):
        assert EarlyExitConfig(threshold=0.3).required_confidence == pytest.approx(0.7)

    def test_builder_sets_threshold_and_keeps_other_knobs(self):
        base = EngineConfig.mnnfast()
        gated = base.with_early_exit(0.2)
        assert gated.early_exit.threshold == 0.2
        assert gated.early_exit.min_hops == base.early_exit.min_hops
        # The rest of the engine config is untouched.
        assert gated.algorithm == base.algorithm
        assert gated.zero_skip == base.zero_skip

    def test_builder_partial_override_inherits(self):
        first = EngineConfig().with_early_exit(0.1, min_hops=2)
        second = first.with_early_exit(0.4)
        assert second.early_exit.min_hops == 2
        assert second.early_exit.threshold == 0.4


class TestConfidenceSignals:
    def test_logit_margin_in_unit_interval(self, rng):
        u = rng.normal(size=(6, 8))
        o = rng.normal(size=(6, 8))
        w = rng.normal(size=(5, 8))
        conf = logit_margin_confidence(u, o, remaining_hops=2, answer_weight=w)
        assert conf.shape == (6,)
        assert np.all(conf >= 0.0) and np.all(conf <= 1.0)

    def test_logit_margin_single_class_is_one(self, rng):
        conf = logit_margin_confidence(
            rng.normal(size=(3, 4)),
            rng.normal(size=(3, 4)),
            remaining_hops=1,
            answer_weight=rng.normal(size=(1, 4)),
        )
        np.testing.assert_array_equal(conf, 1.0)


class TestHopTrace:
    def test_full_depth_constructor(self):
        trace = HopTrace.full_depth(num_questions=3, hops=4)
        assert trace.num_questions == 3
        assert trace.num_exited == 0
        assert trace.mean_hops == 4.0
        assert trace.hops_saved_fraction == 0.0
        assert trace.exit_reason == [EXIT_FULL_DEPTH] * 3
        assert trace.depth_histogram() == {4: 3}

    def test_derived_statistics(self):
        trace = HopTrace(
            threshold=0.2,
            hops_configured=4,
            hops_run=np.array([1, 4, 2, 1]),
            exit_reason=[
                EXIT_CONFIDENCE,
                EXIT_FULL_DEPTH,
                EXIT_CONFIDENCE,
                EXIT_CONFIDENCE,
            ],
        )
        assert trace.num_exited == 3
        assert trace.mean_hops == pytest.approx(2.0)
        assert trace.hops_saved_fraction == pytest.approx(1.0 - 8 / 16)
        assert trace.depth_histogram() == {1: 2, 2: 1, 4: 1}

    def test_question_view_slices_all_fields(self):
        trace = HopTrace(
            threshold=0.2,
            hops_configured=3,
            hops_run=np.array([1, 3]),
            exit_reason=[EXIT_CONFIDENCE, EXIT_FULL_DEPTH],
            confidence=[np.array([0.9, 0.4]), np.array([np.nan, 0.6])],
        )
        view = trace.question(1)
        assert view.num_questions == 1
        assert view.hops_run[0] == 3
        assert view.exit_reason == [EXIT_FULL_DEPTH]
        assert [c[0] for c in view.confidence] == [0.4, 0.6]


def _calibrated_problem(num_questions=24, hops=4, seed=7):
    config = MemNNConfig(
        embedding_dim=16,
        num_sentences=300,
        num_questions=num_questions,
        vocab_size=200,
        max_words=6,
        hops=hops,
    )
    weights, stories, questions = early_exit_workload(
        config, num_questions, seed=seed
    )
    return config, weights, stories, questions


def _run(config, weights, stories, questions, engine_config):
    engine = MnnFastEngine(config, weights, engine_config=engine_config)
    engine.store_story(stories)
    return engine.answer(questions)


class TestEngineGate:
    def test_gate_fires_on_calibrated_workload(self):
        config, weights, stories, questions = _calibrated_problem()
        result = _run(
            config, weights, stories, questions,
            EngineConfig().with_early_exit(0.2),
        )
        trace = result.hop_trace
        assert trace.num_exited > 0
        assert EXIT_CONFIDENCE in trace.exit_reason
        assert trace.mean_hops < config.hops
        assert 0.0 < trace.hops_saved_fraction < 1.0

    def test_gate_preserves_answers_on_calibrated_workload(self):
        config, weights, stories, questions = _calibrated_problem()
        full = _run(config, weights, stories, questions, EngineConfig())
        gated = _run(
            config, weights, stories, questions,
            EngineConfig().with_early_exit(0.2),
        )
        np.testing.assert_array_equal(gated.answer_ids, full.answer_ids)

    def test_min_hops_floor_honored(self):
        config, weights, stories, questions = _calibrated_problem(hops=4)
        result = _run(
            config, weights, stories, questions,
            EngineConfig().with_early_exit(0.5, min_hops=3),
        )
        assert np.all(np.asarray(result.hop_trace.hops_run) >= 3)

    def test_gate_never_checks_after_last_hop(self):
        # min_hops == hops leaves no hop after which a check may run:
        # the gate is active but can never fire, and emits no checks.
        config, weights, stories, questions = _calibrated_problem(hops=3)
        result = _run(
            config, weights, stories, questions,
            EngineConfig().with_early_exit(0.5, min_hops=3),
        )
        trace = result.hop_trace
        assert trace.num_exited == 0
        assert list(trace.hops_run) == [config.hops] * len(questions)
        assert trace.confidence == []

    def test_confidence_checks_recorded_per_gate_hop(self):
        config, weights, stories, questions = _calibrated_problem(hops=4)
        trace = _run(
            config, weights, stories, questions,
            EngineConfig().with_early_exit(0.05, min_hops=1),
        ).hop_trace
        # Checks after hops 1 .. hops-1.
        assert len(trace.confidence) == config.hops - 1
        assert all(c.shape == (len(questions),) for c in trace.confidence)
        # Retired questions read NaN in later checks.
        if trace.num_exited > 0 and len(trace.confidence) > 1:
            exited_first = np.asarray(trace.hops_run) == 1
            if exited_first.any():
                assert np.isnan(trace.confidence[1][exited_first]).all()

    def test_gate_checks_are_accounted_in_opstats(self):
        # A tiny threshold arms the gate (checks run, costs accrue)
        # but is effectively unreachable, so no hop work is saved —
        # isolating the gate's own accounting.
        config, weights, stories, questions = _calibrated_problem()
        full = _run(config, weights, stories, questions, EngineConfig())
        gated = _run(
            config, weights, stories, questions,
            EngineConfig().with_early_exit(1e-9),
        )
        assert gated.hop_trace.num_exited == 0
        assert gated.stats.flops > full.stats.flops
        assert gated.stats.exp_calls > full.stats.exp_calls


def _reference_gated_pass(engine, questions):
    """The gated hop recurrence written out plainly: dense softmax
    attention, one confidence check per gate hop, every question's
    answer logits projected from its terminal state at the end."""
    m_in, m_out = engine.memories
    answer_weight = engine.weights.answer_weight
    hops = engine.config.hops
    ee = engine.engine_config.early_exit
    u, _, _ = engine.embed_question(questions)
    active = np.arange(len(u))
    final_u = np.empty_like(u)
    hops_run = np.zeros(len(u), dtype=int)
    confidences = []
    for hop in range(hops):
        output = softmax(u @ m_in.T) @ m_out
        u = u + output
        hops_run[active] += 1
        remaining = hops - (hop + 1)
        if remaining == 0 or hop + 1 < ee.min_hops:
            continue
        confidence = logit_margin_confidence(u, output, remaining, answer_weight)
        row = np.full(len(final_u), np.nan)
        row[active] = confidence
        confidences.append(row)
        exiting = confidence >= ee.required_confidence
        final_u[active[exiting]] = u[exiting] + remaining * output[exiting]
        active, u = active[~exiting], u[~exiting]
        if len(active) == 0:
            break
    final_u[active] = u
    return final_u, final_u @ answer_weight.T, hops_run, confidences


class TestGateLogitReuse:
    """An exit on the logit-margin gate keeps the logits the gate
    projected; only the survivors reach the answer layer."""

    def test_gated_pass_matches_the_plain_recurrence(self):
        config, weights, stories, questions = _calibrated_problem()
        engine = MnnFastEngine(
            config, weights, engine_config=float64().with_early_exit(0.2)
        )
        engine.store_story(stories)
        result = engine.answer(questions)
        final_u, logits, hops_run, confidences = _reference_gated_pass(
            engine, questions
        )
        trace = result.hop_trace
        assert 0 < trace.num_exited < len(questions)
        np.testing.assert_array_equal(trace.hops_run, hops_run)
        assert trace.exit_reason == [
            EXIT_CONFIDENCE if depth < config.hops else EXIT_FULL_DEPTH
            for depth in hops_run
        ]
        assert len(trace.confidence) == len(confidences)
        for checked, expected in zip(trace.confidence, confidences):
            np.testing.assert_allclose(checked, expected, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(result.response, final_u, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(result.logits, logits, rtol=1e-10, atol=1e-10)
        np.testing.assert_array_equal(result.answer_ids, logits.argmax(axis=1))

    def test_exited_logits_are_the_terminal_state_projected(self):
        config, weights, stories, questions = _calibrated_problem()
        result = _run(
            config, weights, stories, questions,
            float64(EngineConfig.mnnfast()).with_early_exit(0.2),
        )
        exited = result.hop_trace.hops_run < config.hops
        assert exited.any() and not exited.all()
        np.testing.assert_allclose(
            result.logits,
            result.response @ weights.answer_weight.T,
            rtol=1e-10, atol=1e-10,
        )

    def test_float32_exited_logits_are_the_terminal_state_projected(self):
        """Under the default precision the identity is exact: every row
        of the logits — kept from the gate or projected at the end — is
        the response narrowed, through the engine's float32 answer
        layer, then widened (a row's logits do not depend on its batch)."""
        engine, result, exited = self._float32_gated_pass()
        layer = engine.answer_layer
        assert layer.dtype == np.float32
        assert result.logits.dtype == np.float64
        projected, answer_ids = layer.project(result.response)
        assert result.logits.tobytes() == projected.tobytes()
        np.testing.assert_array_equal(result.answer_ids, answer_ids)

    def test_float32_exited_logits_are_blas_under_the_numpy_fold(self, numpy_fold):
        """Without the compiled layer BLAS is the exact referee: the
        response narrowed, times the float32 ``W``, widened."""
        engine, result, _ = self._float32_gated_pass()
        weight = engine.answer_layer.weight
        assert weight.dtype == np.float32
        projected = result.response.astype(np.float32) @ weight.T
        assert result.logits.tobytes() == projected.astype(np.float64).tobytes()

    @staticmethod
    def _float32_gated_pass():
        config, weights, stories, questions = _calibrated_problem()
        engine = MnnFastEngine(
            config, weights,
            engine_config=EngineConfig.mnnfast().with_early_exit(0.2),
        )
        engine.store_story(stories)
        result = engine.answer(questions)
        exited = result.hop_trace.hops_run < config.hops
        assert exited.any() and not exited.all()
        return engine, result, exited

    def test_logit_margin_hands_its_logits_back(self, rng):
        u, o = rng.normal(size=(2, 6, 8))
        w = rng.normal(size=(5, 8))
        logits = np.empty((6, 5))
        conf = logit_margin_confidence(u, o, 3, w, out=logits)
        np.testing.assert_array_equal(conf, logit_margin_confidence(u, o, 3, w))
        np.testing.assert_array_equal(logits, (u + 3 * o) @ w.T)

    def test_answer_layer_is_charged_for_survivors_only(self):
        config, weights, stories, questions = _calibrated_problem()
        result = _run(
            config, weights, stories, questions,
            EngineConfig().with_early_exit(0.2),
        )
        trace = result.hop_trace
        num_answers, ed = weights.answer_weight.shape
        checked = sum(int(np.sum(~np.isnan(c))) for c in trace.confidence)
        gate_flops = checked * (2 * ed + 2 * num_answers * ed)
        survivors = len(questions) - trace.num_exited
        assert 0 < survivors < len(questions)
        assert (
            result.stats.flops
            - sum(stats.flops for stats in result.hop_stats)
            - gate_flops
        ) == 2 * survivors * num_answers * ed


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dtype=st.sampled_from([np.float64, np.float32]),
    num_answers=st.sampled_from([1, 2, 5975]),
    spread=st.floats(1e-3, 1e4),
    ties=st.sampled_from(["none", "duplicate_rows", "zero_state"]),
    nq=st.integers(1, 4),
)
def test_logit_margin_is_the_softmax_margin(
    seed, dtype, num_answers, spread, ties, nq
):
    """``(1 - e^(l2 - l1)) / sum_j e^(l_j - l1)`` is ``p1 - p2`` of the
    softmax: within 1e-12 (float64) / 1e-6 (float32), in ``[0, 1]``,
    exactly 0 on a tie and 1 for a single answer — up to logit spreads
    where most exponentials underflow — and the ``out=`` buffer holds
    exactly the answer layer's projection (BLAS's GEMM where the
    compiled layer does not run: float64, or no compiler)."""
    rng = np.random.default_rng(seed)
    ed = 8
    u, o = rng.normal(size=(2, nq, ed))
    if ties == "zero_state":
        u[:], o[:] = 0.0, 0.0
    w = rng.normal(0.0, spread / np.sqrt(ed), (num_answers, ed))
    if ties == "duplicate_rows":
        # Every logit appears twice, so the top two are equal.
        w = np.repeat(w[: (num_answers + 1) // 2], 2, axis=0)[:num_answers]
    w = np.asfortranarray(w.astype(dtype))
    logits = np.empty((nq, num_answers), dtype)
    margin = logit_margin_confidence(u, o, 2, w, out=logits)

    layer = AnswerLayer(w)
    if layer.packed is None:
        projected = (u + 2 * o).astype(dtype) @ w.T
    else:
        projected = layer.project(u + 2 * o)[0].astype(dtype)
    assert logits.tobytes() == projected.tobytes()
    assert margin.dtype == np.float64 and margin.shape == (nq,)
    assert np.all((margin >= 0.0) & (margin <= 1.0))
    if num_answers == 1:
        np.testing.assert_array_equal(margin, 1.0)
        return
    probabilities = softmax(logits.astype(np.float64))
    top2 = np.sort(probabilities, axis=1)[:, -2:]
    tolerance = 1e-12 if dtype == np.float64 else 1e-6
    np.testing.assert_allclose(
        margin, top2[:, 1] - top2[:, 0], rtol=0, atol=tolerance
    )
    ordered = np.sort(logits, axis=1)
    tied = ordered[:, -1] == ordered[:, -2]
    np.testing.assert_array_equal(margin[tied], 0.0)


class TestServingLever:
    def test_exit_rate_zero_at_zero_threshold(self):
        assert exit_rate_for_threshold(0.0) == 0.0
        assert exit_rate_for_threshold(-1.0) == 0.0

    def test_exit_rate_monotone_and_capped(self):
        thresholds = [0.01, 0.05, 0.15, 0.4, 0.9, 0.99]
        rates = [exit_rate_for_threshold(t) for t in thresholds]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert all(0.0 < r <= 0.95 for r in rates)

    def test_expected_hop_survivors_gate_off(self):
        server = QaServer(ServerConfig(engine=EngineConfig.mnnfast()))
        hops = server.config.network.hops
        assert server.expected_hop_survivors(8) == [8] * hops

    def test_expected_hop_survivors_shrink_geometrically(self):
        server = QaServer(
            ServerConfig(engine=EngineConfig.mnnfast().with_early_exit(0.4))
        )
        survivors = server.expected_hop_survivors(64, hops=4)
        assert len(survivors) == 4
        assert survivors[0] == 64
        assert all(b <= a for a, b in zip(survivors, survivors[1:]))
        assert survivors[-1] < 64

    def test_expected_hop_survivors_respect_min_hops(self):
        server = QaServer(
            ServerConfig(
                engine=EngineConfig.mnnfast().with_early_exit(0.4, min_hops=3)
            )
        )
        survivors = server.expected_hop_survivors(32, hops=4)
        # No check fires before min_hops, so the first three hops run
        # the full batch.
        assert survivors[:3] == [32, 32, 32]
        assert survivors[3] < 32

    def test_inference_seconds_cheaper_with_gate(self):
        server = QaServer(ServerConfig(engine=EngineConfig.mnnfast()))
        full = server.inference_seconds(batch_size=16, hops=4)
        gated = server.inference_seconds(
            batch_size=16, hops=4, exit_threshold=0.4
        )
        assert gated < full

    def test_effective_exit_threshold_additive_and_capped(self):
        policy = DegradationPolicy(
            DegradationConfig(
                enabled=True,
                low_watermark=0,
                high_watermark=1,
                max_level=5,
                exit_threshold_step=0.3,
                max_exit_threshold=0.8,
            ),
            EngineConfig.mnnfast(),  # gate off: base threshold 0
            hops=4,
        )
        assert policy.effective_exit_threshold() == 0.0
        policy.observe(10)
        assert policy.effective_exit_threshold() == pytest.approx(0.3)
        policy.observe(10)
        assert policy.effective_exit_threshold() == pytest.approx(0.6)
        policy.observe(10)  # 0.9 would exceed the cap
        assert policy.effective_exit_threshold() == pytest.approx(0.8)
        # Draining the queue steps the lever back down.
        policy.observe(0)
        policy.observe(0)
        policy.observe(0)
        assert policy.effective_exit_threshold() == 0.0

    def test_effective_exit_threshold_stacks_on_engine_base(self):
        policy = DegradationPolicy(
            DegradationConfig(enabled=True, low_watermark=0, high_watermark=1),
            EngineConfig.mnnfast().with_early_exit(0.1),
            hops=4,
        )
        assert policy.effective_exit_threshold() == pytest.approx(0.1)
        policy.observe(10)
        assert policy.effective_exit_threshold() == pytest.approx(
            0.1 + policy.config.exit_threshold_step
        )

    def test_pinned_effective_tuple_untouched_by_exit_lever(self):
        # The historical (th_skip, hops) lever must not see the new
        # exit-threshold knobs.
        policy = DegradationPolicy(
            DegradationConfig(enabled=True, low_watermark=0, high_watermark=1),
            EngineConfig.mnnfast(),
            hops=3,
        )
        policy.observe(10)
        threshold, hops = policy.effective()
        assert threshold == pytest.approx(0.1 * policy.config.threshold_factor)
        assert hops == 3 - policy.config.hop_step


class TestWorkloadDeterminism:
    def test_early_exit_workload_repeat_twice_identical(self):
        config = MemNNConfig(
            embedding_dim=16,
            num_sentences=300,
            num_questions=12,
            vocab_size=200,
            max_words=6,
            hops=4,
        )
        first = early_exit_workload(config, 12, seed=11)
        second = early_exit_workload(config, 12, seed=11)
        for a, b in zip(first, second):
            if isinstance(a, EngineWeights):
                np.testing.assert_array_equal(a.embedding_a, b.embedding_a)
                np.testing.assert_array_equal(a.embedding_c, b.embedding_c)
                np.testing.assert_array_equal(a.answer_weight, b.answer_weight)
            else:
                np.testing.assert_array_equal(a, b)

    def test_sweep_quick_smoke(self):
        sweep = sweep_early_exit(
            num_questions=16, thresholds=(0.0, 0.2), seed=3
        )
        assert [p.threshold for p in sweep.points] == [0.0, 0.2]
        zero = sweep.point_at(0.0)
        assert zero.agreement == 1.0
        assert zero.mean_hops == sweep.hops
        # An armed gate that saves hops still agrees with full depth.
        aggressive = sweep.point_at(0.2)
        assert aggressive.mean_hops < zero.mean_hops
        assert aggressive.agreement >= 0.98


class TestOverload:
    """Under 2x overload the exit lever sheds hops before requests: two
    batched deployments on one question stream, bounded queue and
    deadline, one with only the early-exit lever of the degradation
    policy armed (zero-skip threshold and hop count parked)."""

    def _pair(self):
        network = MemNNConfig(
            embedding_dim=48, num_sentences=20_000, num_questions=1,
            vocab_size=30_000, hops=4,
        )

        def config(armed):
            return ServerConfig(
                network=network,
                engine=EngineConfig.mnnfast().with_batching(8, max_wait=1e-3),
                workers=4,
                deadline=5e-3,
                admission=AdmissionConfig(max_queue=64),
                degradation=DegradationConfig(
                    enabled=armed, high_watermark=16, low_watermark=4,
                    max_level=3, threshold_factor=1.0, hop_step=0,
                    exit_threshold_step=0.15,
                ),
            )

        server = QaServer(config(False))
        per_question = server.inference_seconds(batch_size=8) / 8 + (
            server.question_embed_seconds(QuestionRequest(arrival=0.0, words=6))
        )
        workload = generate_workload(
            question_rate=2.0 * 4 / per_question, story_rate=0.0,
            duration=0.05, seed=11,
        )
        full = QaServer(config(False), seed=9).run(workload)
        gated = QaServer(config(True), seed=9).run(workload)
        return full, gated

    def test_exit_lever_sheds_hops_before_requests(self):
        full, gated = self._pair()
        full.reconcile()
        gated.reconcile()
        assert full.timed_out > 0
        assert gated.timed_out < full.timed_out
        assert gated.shed <= full.shed
        assert gated.completed > full.completed
        assert gated.hops_saved_fraction > 0.0
        assert gated.degradation_peak_level > 0
