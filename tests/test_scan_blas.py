"""The BLAS entries a resident scan calls from C (DESIGN.md §10,
"Compiled fold").

``repro_scan`` makes a tile's score product ``u @ M_IN.T[:, tile]`` and,
at threshold 0, its weighted sum ``p @ M_OUT[tile]`` through the BLAS
NumPy loaded, dispatched as ``np.matmul`` dispatches (dot, its own loop,
gemv or gemm).  These tests pin that dispatch on the installed NumPy,
byte for byte, and check that a host where no entry resolves runs the
NumPy fold with the referee's bits.
"""

import ctypes

import numpy as np
import pytest

from repro.core import EngineConfig, MnnFastEngine, compiled_fold

from .test_differential_paths import _random_problem

ED, CAPACITY = 48, 2048

requires_compiler = pytest.mark.skipif(
    compiled_fold.fold_backend() != "c", reason=compiled_fold.fold_backend()
)


def _product(a, b):
    """``a @ b`` by ``_fold.c``'s ``matmul``: ``a`` C-ordered, ``b``
    with unit column stride."""
    library = compiled_fold.kernels()
    c = np.full((a.shape[0], b.shape[1]), np.nan, np.float32)
    library.repro_matmul(
        ctypes.addressof(library.blas), a.shape[0], b.shape[1], a.shape[1],
        a.ctypes.data, b.ctypes.data, b.strides[0] // 4, c.ctypes.data,
    )  # fmt: skip
    return c


@requires_compiler
@pytest.mark.parametrize("n", (1, 2, 13, 999, 1000))
def test_scan_products_equal_numpys(n):
    """For every batch size 1-17 and tile width: the score product on a
    strided column slice of a feature-major ``(ed, capacity)`` ``M_IN``,
    and the threshold-0 readout ``p @ M_OUT[tile]``, have ``np.matmul``'s
    bytes."""
    rng = np.random.default_rng(n)
    features = rng.normal(0.0, 0.5, (ED, CAPACITY)).astype(np.float32)
    m_out = rng.normal(0.0, 0.1, (CAPACITY, ED)).astype(np.float32)
    for nq in range(1, 18):
        u = rng.normal(0.0, 1.0, (nq, ED)).astype(np.float32)
        for start in (0, 7):
            tile = features[:, start : start + n]
            scores = u @ tile
            assert _product(u, tile).tobytes() == scores.tobytes(), (nq, start)
            p = np.exp(scores - scores.max(axis=1, keepdims=True))
            rows = m_out[start : start + n]
            assert _product(p, rows).tobytes() == (p @ rows).tobytes(), (nq, start)


def test_a_host_without_the_entries_runs_the_numpy_fold(monkeypatch, request):
    """With no entry of ``BLAS_ENTRIES`` resolvable, ``fold_backend()``
    says so, and a float32 engine answers with the NumPy fold referee's
    bits (the fold, the embedding and the answer layer all in NumPy)."""
    config, weights, story, questions = _random_problem(3)

    def answers():
        engine = MnnFastEngine(config, weights, EngineConfig.mnnfast())
        results = []
        for index, sentence in enumerate(story[:9]):
            engine.store_story(sentence)
            if index % 2:
                results.append(engine.answer(questions))
        engine.close()
        return results

    request.addfinalizer(compiled_fold.load.cache_clear)
    monkeypatch.setattr(compiled_fold, "BLAS_ENTRIES", (("no_such_sgemm", 64),))
    compiled_fold.load.cache_clear()
    assert compiled_fold.blas_entries() is None
    backend = compiled_fold.fold_backend()
    assert backend.startswith("numpy: ") and "BLAS" in backend
    got = answers()
    monkeypatch.undo()
    request.getfixturevalue("numpy_fold")
    want = answers()
    for left, right in zip(got, want):
        assert left.logits.tobytes() == right.logits.tobytes()
        assert left.answer_ids.tobytes() == right.answer_ids.tobytes()
        assert left.response.tobytes() == right.response.tobytes()
        assert left.stats == right.stats
