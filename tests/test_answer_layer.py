"""The answer layer: ``W`` packed once, the projection and the gate's
softmax margin in one compiled call (DESIGN.md §10, "The answer layer").

Each case runs under the compiled layer and under the ``numpy_fold``
fixture, where ``u @ W.T`` and the NumPy margin run: the referee.  The
compiled layer computes each logit as one k-ordered FMA chain, so a
row's logits are the same alone or in any batch; the NumPy one is held
to BLAS bit for bit.
"""

import numpy as np
import pytest

from repro.core import EngineConfig, MemNNConfig, MnnFastEngine, compiled_fold
from repro.core import engine as engine_module
from repro.core.column import exp_floor
from repro.core.early_exit import AnswerLayer, _softmax_margin, logit_margin_confidence
from repro.core.engine import EngineWeights

SHAPES = [(na, ed) for na in (1, 2, 5, 16, 17, 140, 2048, 5975) for ed in (8, 48, 64)]
MAX_NQ = 17
EPS32 = float(np.finfo(np.float32).eps)


@pytest.fixture(params=("compiled", "numpy"))
def fold(request):
    """Which answer layer runs: the compiled one, or the NumPy referee."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_fold")
    elif compiled_fold.fold_backend() != "c":
        pytest.skip(compiled_fold.fold_backend())
    return request.param


def _layer(na, ed, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    weight = np.asfortranarray(rng.normal(0.0, scale / np.sqrt(ed), (na, ed)))
    return AnswerLayer(weight, np.float32), weight, rng


def _margin(layer, states):
    logits = np.empty((len(states), layer.num_answers), np.float32)
    return layer.margin(states, logits), logits


@pytest.mark.parametrize("na, ed", SHAPES)
def test_logits_and_margin_against_the_referee(na, ed, fold):
    """Every nq in 0-17: logits within float32's bound of the exact
    product, the argmax the logits', the margin within 1e-6 of the NumPy
    margin of the same logits; compiled, each row the same bits alone
    and in every batch, else BLAS's bits."""
    layer, weight, rng = _layer(na, ed)
    assert (layer.packed is not None) == (fold == "compiled")
    narrow = weight.astype(np.float32)
    states = rng.normal(size=(MAX_NQ, ed))
    whole, _ = layer.project(states)
    for nq in range(MAX_NQ + 1):
        u = states[:nq]
        logits, answer_ids = layer.project(u)
        assert logits.dtype == np.float64 and logits.shape == (nq, na)
        np.testing.assert_array_equal(answer_ids, logits.argmax(axis=1))
        u32 = u.astype(np.float32)
        exact = u32.astype(np.float64) @ narrow.T.astype(np.float64)
        bound = ed * EPS32 * (np.abs(u32) @ np.abs(narrow).T).astype(np.float64)
        assert np.all(np.abs(logits - exact) <= bound)
        if fold == "compiled":
            assert logits.tobytes() == whole[:nq].tobytes()
            for row in range(nq):
                alone, _ = layer.project(u[row : row + 1])
                assert alone.tobytes() == logits[row : row + 1].tobytes()
        else:
            assert logits.tobytes() == (u32 @ narrow.T).astype(np.float64).tobytes()
        confidence, gate_logits = _margin(layer, u)
        assert gate_logits.tobytes() == logits.astype(np.float32).tobytes()
        referee = _softmax_margin(gate_logits.copy())
        np.testing.assert_allclose(confidence, referee, rtol=0, atol=1e-6)
        assert np.all((confidence >= 0) & (confidence <= 1))


def test_rows_are_batch_independent_in_any_order():
    """Compiled: a row's logits do not depend on which rows share its
    call, nor on their order (one FMA chain per logit)."""
    if compiled_fold.fold_backend() != "c":
        pytest.skip(compiled_fold.fold_backend())
    layer, _, rng = _layer(5975, 64)
    states = rng.normal(size=(MAX_NQ, 64))
    whole, _ = layer.project(states)
    for _ in range(20):
        rows = rng.permutation(MAX_NQ)[: rng.integers(1, MAX_NQ + 1)]
        logits, _ = layer.project(states[rows])
        assert logits.tobytes() == whole[rows].tobytes()


@pytest.mark.parametrize("na", (2, 17, 5975))
def test_ties_give_exactly_zero(na, fold):
    """A duplicated maximum is a margin of exactly 0: twin answers, and
    a zero state (every logit 0)."""
    rng = np.random.default_rng(1)
    half = rng.normal(size=((na + 1) // 2, 8))
    weight = np.asfortranarray(np.repeat(half, 2, axis=0)[:na])
    layer = AnswerLayer(weight, np.float32)
    states = np.vstack([rng.normal(size=(5, 8)), np.zeros((1, 8))])
    confidence, logits = _margin(layer, states)
    ordered = np.sort(logits, axis=1)
    assert np.all(ordered[:, -1] == ordered[:, -2])
    np.testing.assert_array_equal(confidence, 0.0)


def test_one_answer_gives_one(fold):
    layer, _, rng = _layer(1, 8)
    confidence, _ = _margin(layer, rng.normal(size=(4, 8)))
    np.testing.assert_array_equal(confidence, 1.0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("na", (5, 140, 5975))
def test_a_nan_row_never_exits(na, fold):
    """A row holding a NaN (or an inf) gets NaN confidence, which clears
    no gate; its answer id is np.argmax's (the first NaN); the other
    rows are untouched."""
    layer, weight, rng = _layer(na, 8)
    states = rng.normal(size=(4, 8))
    states[1, 3] = np.nan
    states[2, 0] = np.inf
    confidence, _ = _margin(layer, states)
    assert np.isnan(confidence[1]) and np.isnan(confidence[2])
    assert not np.any(confidence[1:3] >= 0.0)
    clean, _ = _margin(layer, states[[0, 3]])
    np.testing.assert_allclose(
        confidence[[0, 3]], clean, rtol=0, atol=0 if fold == "compiled" else 1e-6
    )
    logits, answer_ids = layer.project(states)
    np.testing.assert_array_equal(answer_ids, logits.argmax(axis=1))


def test_no_question_writes_nothing(fold):
    layer, _, _ = _layer(140, 48)
    logits, answer_ids = layer.project(np.empty((0, 48)))
    assert logits.shape == (0, 140) and answer_ids.shape == (0,)
    confidence, _ = _margin(layer, np.empty((0, 48)))
    assert confidence.shape == (0,)


def test_the_compiled_layer_checks_its_arrays():
    if compiled_fold.fold_backend() != "c":
        pytest.skip(compiled_fold.fold_backend())
    layer, _, _ = _layer(140, 48)
    with pytest.raises(ValueError, match="u must be"):
        layer.project(np.zeros((2, 47)))
    with pytest.raises(ValueError, match="logits must be"):
        layer.margin(np.zeros((2, 48)), np.zeros((2, 140), np.int32))


@pytest.mark.parametrize("scale", (1.0, 5.0, 100.0))
def test_the_floored_numpy_margin_keeps_its_sums(scale):
    """The NumPy margin floors shifted logits at ``exp_floor`` (so its
    float32 exp makes no subnormal); on peaked logits, where many cells
    fall below the floor, the margin is bit for bit the unfloored one."""
    rng = np.random.default_rng(2)
    logits = (rng.normal(size=(8, 5975)) * scale * 8).astype(np.float32)
    shifted = logits - logits.max(axis=1, keepdims=True)
    if scale > 1:
        assert np.mean(shifted < exp_floor(np.dtype(np.float32))) > 0.01
    rows = np.arange(len(logits))
    top = logits.argmax(axis=1)
    l1 = logits[rows, top]
    masked = logits.copy()
    masked[rows, top] = -np.inf
    l2 = masked.max(axis=1)
    total = np.exp(logits - l1[:, None]).sum(axis=1, dtype=np.float64)
    unfloored = (1.0 - np.exp(l2 - l1.astype(np.float64))) / total
    np.testing.assert_array_equal(_softmax_margin(logits.copy()), unfloored)


def test_the_gate_crosses_the_engine_modules_margin_once_per_check(
    monkeypatch, fold
):
    """Each gate check of the hop loop calls
    ``repro.core.engine.logit_margin_confidence`` once (perfbench's
    ``early_exit.gate`` span wraps that name), handing it the engine's
    answer layer.  On the compiled fold an answer without a hop hook is
    one ``repro_pass`` call, whose gate is in C: it crosses that name not
    at all, and its bytes are the hooked answer's."""
    network = MemNNConfig(
        embedding_dim=16, num_sentences=64, vocab_size=300, max_words=6, hops=4
    )
    rng = np.random.default_rng(3)
    tables = EngineWeights.random(network, rng=rng)
    weights = EngineWeights(
        tables.embedding_a, tables.embedding_c, rng.normal(0.0, 3.0, (300, 16))
    )
    engine = MnnFastEngine(network, weights, EngineConfig().with_early_exit(0.3))
    engine.store_story(rng.integers(1, 300, size=(64, 6)))
    calls = []
    margin = vars(engine_module)["logit_margin_confidence"]
    assert margin is logit_margin_confidence

    def spy(*args, **kwargs):
        calls.append(args[3])
        return margin(*args, **kwargs)

    monkeypatch.setitem(vars(engine_module), "logit_margin_confidence", spy)
    questions = rng.integers(1, 300, size=(6, 6))
    result = engine.answer(questions)
    checks = len(result.hop_trace.confidence)
    assert len(calls) == (0 if fold == "compiled" else checks)
    hooked = engine.answer(questions, hop_hook=lambda hop, stats: None)
    assert len(calls) == (1 if fold == "compiled" else 2) * checks > 0
    assert all(layer is engine.answer_layer for layer in calls)
    assert 0 < result.hop_trace.num_exited
    assert result.logits.tobytes() == hooked.logits.tobytes()
    assert result.response.tobytes() == hooked.response.tobytes()
    assert [c.tobytes() for c in result.hop_trace.confidence] == [
        c.tobytes() for c in hooked.hop_trace.confidence
    ]
