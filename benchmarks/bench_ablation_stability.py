"""Ablation: lazy-softmax numerical stability (DESIGN.md §5).

The paper's Eq. (4) exponentiates raw scores; the column kernel folds
with an online running-max rescaling instead.  The ablation times the
kernel and demonstrates the failure mode the rescaling prevents, with
the raw form evaluated directly through ``unstable_softmax``.
"""

import numpy as np
import pytest

from repro.core import ChunkConfig, ColumnMemNN, softmax, unstable_softmax
from repro.report import format_table


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(2)
    ns, ed = 100_000, 48
    return rng.normal(size=(ns, ed)), rng.normal(size=(ns, ed)), rng.normal(size=(8, ed))


def test_online_softmax_kernel(benchmark, workload):
    m_in, m_out, u = workload
    engine = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=1000))
    result = benchmark(engine.output, u)
    assert np.all(np.isfinite(result.output))


def test_stability_failure_mode(benchmark, report):
    """Large scores: the paper-faithful Eq. (4) overflows, ours does not."""

    def run():
        rng = np.random.default_rng(3)
        m_in = rng.normal(size=(4096, 16)) * 100.0
        m_out = rng.normal(size=(4096, 16))
        u = rng.normal(size=(4, 16)) * 10.0
        scores = u @ m_in.T
        with np.errstate(over="ignore", invalid="ignore"):
            unstable = unstable_softmax(scores) @ m_out
        engine = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=256))
        stable = engine.output(u).output
        exact = softmax(scores) @ m_out
        return (
            bool(np.all(np.isfinite(unstable))),
            float(np.abs(stable - exact).max()),
        )

    unstable_finite, stable_error = benchmark(run)
    report(
        format_table(
            ["mode", "finite output", "max abs error vs exact"],
            [
                ["paper Eq. (4)", unstable_finite, "overflow"],
                ["online softmax (ours)", True, f"{stable_error:.2e}"],
            ],
            title="Ablation — lazy-softmax stability at large score magnitudes",
        )
    )
    assert not unstable_finite  # the paper-faithful form overflows here
    assert stable_error < 1e-6
