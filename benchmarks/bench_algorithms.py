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

from emit import emit

from repro.core import (
    BaselineMemNN,
    ChunkConfig,
    ColumnMemNN,
    ZeroSkipConfig,
)

NS, ED, NQ = 200_000, 48, 16

#: Headline wall-clock per algorithm, accumulated across tests and
#: re-emitted after each so the final BENCH_algorithms.json carries
#: every series that ran (pytest offers no reliable "last test" hook).
_HEADLINES: dict[str, float] = {}


def _record(name: str, result) -> None:
    _HEADLINES[name] = round(result.elapsed_seconds, 6)
    emit("algorithms", {
        "workload": {"ns": NS, "ed": ED, "nq": NQ},
        "elapsed_seconds": dict(_HEADLINES),
    })


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
    _record("baseline", result)
    assert result.output.shape == (NQ, ED)


def test_column_inference(benchmark, workload):
    m_in, m_out, u = workload
    engine = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=1000))
    result = benchmark(engine.output, u)
    _record("column", result)
    assert result.output.shape == (NQ, ED)
    # The whole point: chunk-sized intermediates instead of ns-sized.
    assert result.stats.intermediate_bytes <= 2 * NQ * 1000 * 4


def test_mnnfast_zero_skip(benchmark, workload):
    m_in, m_out, u = workload
    engine = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=1000))
    skip = ZeroSkipConfig(threshold=1e-4)
    result = benchmark(engine.output, u, zero_skip=skip)
    _record("zero_skip", result)
    assert result.stats.rows_skipped > 0
