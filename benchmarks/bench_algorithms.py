"""Measured NumPy microbenchmarks of the core algorithms.

These are real wall-clock measurements of this repository's
implementations (not the platform models): the column-based algorithm
and zero-skipping operating on large in-memory networks.  Absolute
times reflect NumPy, not the paper's OpenBLAS testbed — the point is
the relative behaviour (chunking stays competitive while shrinking
intermediates; zero-skipping pays off when the kept set is small).
"""

import numpy as np
import pytest

from repro.core import (
    BaselineMemNN,
    ChunkConfig,
    ColumnMemNN,
    ZeroSkipConfig,
)

NS, ED, NQ = 200_000, 48, 16


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    m_in = rng.normal(size=(NS, ED))
    m_out = rng.normal(size=(NS, ED))
    # Peaked scores so zero-skipping has realistic sparsity to exploit.
    u = m_in[rng.integers(0, NS, size=NQ)] * 2.0
    return m_in, m_out, u


def test_baseline_inference(benchmark, workload):
    m_in, m_out, u = workload
    engine = BaselineMemNN(m_in, m_out)
    result = benchmark(engine.output, u)
    assert result.output.shape == (NQ, ED)


def test_column_inference(benchmark, workload):
    m_in, m_out, u = workload
    engine = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=1000))
    result = benchmark(engine.output, u)
    assert result.output.shape == (NQ, ED)
    # The whole point: chunk-sized intermediates instead of ns-sized.
    assert result.stats.intermediate_bytes <= 2 * NQ * 1000 * 4


def test_mnnfast_zero_skip(benchmark, workload):
    m_in, m_out, u = workload
    engine = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=1000))
    skip = ZeroSkipConfig(threshold=1e-4)
    result = benchmark(engine.output, u, zero_skip=skip)
    assert result.stats.rows_skipped > 0
