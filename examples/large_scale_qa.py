"""Large-scale question answering: where the column-based algorithm wins.

The paper's motivation (§2.2) is the *large-scale* regime: hundreds of
thousands to hundreds of millions of story sentences, where the
baseline's ``nq x ns`` intermediates dwarf any cache.  This example
runs a 400k-sentence knowledge base through the three dataflows,
measures real NumPy wall-clock plus the operation statistics, and
finishes with the scale-out pattern of §3.1: shard the memory across
workers, merge their mergeable partial outputs, and verify the result
is bit-identical.

Run:  python examples/large_scale_qa.py
"""

import time

import numpy as np

from repro import (
    BaselineMemNN,
    ChunkConfig,
    ColumnMemNN,
    ShardedMemNN,
    ZeroSkipConfig,
    merge_partials,
)

NS, ED, NQ = 400_000, 48, 16


def build_workload(seed: int = 0):
    print(f"Building a {NS:,}-sentence knowledge base (ed={ED}, nq={NQ}) ...")
    rng = np.random.default_rng(seed)
    m_in = rng.normal(size=(NS, ED))
    m_out = rng.normal(size=(NS, ED))
    # Questions correlated with a handful of memory rows, so attention
    # is sparse the way trained attention is (Fig. 6).
    u = m_in[rng.integers(0, NS, size=NQ)] * 2.0
    return m_in, m_out, u


def timed(label, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    print(f"  {label:<28s} {elapsed * 1e3:8.1f} ms", end="")
    return result, elapsed


def main() -> None:
    m_in, m_out, u = build_workload()

    print("\nOne inference pass per dataflow:")
    baseline = BaselineMemNN(m_in, m_out)
    base_result, _ = timed("baseline (Fig. 5a)", baseline.output, u)
    print(
        f"   | intermediates {base_result.stats.intermediate_bytes / 1e6:7.1f} MB"
        f" | divisions {base_result.stats.divisions:,}"
    )

    column = ColumnMemNN(m_in, m_out, chunk=ChunkConfig(chunk_size=1000))
    col_result, _ = timed("column-based (Fig. 5b)", column.output, u)
    print(
        f"   | intermediates {col_result.stats.intermediate_bytes / 1e3:7.1f} KB"
        f" | divisions {col_result.stats.divisions:,}"
    )

    skip = ZeroSkipConfig(threshold=1e-4)
    mnn_result, _ = timed("mnnfast (column+zero-skip)", column.output, u, zero_skip=skip)
    print(
        f"   | rows skipped {mnn_result.stats.rows_skipped:,}"
        f" ({mnn_result.stats.skip_ratio:.1%})"
    )

    np.testing.assert_allclose(col_result.output, base_result.output, rtol=1e-9)
    print("\nColumn-based output matches the baseline exactly (Eq. 4 == Eq. 3).")

    # --- scale-out: shard, compute partials, merge (§3.1) --------------------------
    print("\nScale-out across 4 workers (the multi-GPU pattern of §5.3):")
    sharded = ShardedMemNN(
        m_in, m_out, num_shards=4, chunk=ChunkConfig(chunk_size=1000)
    )
    partials = []
    for worker, (partial, _) in enumerate(sharded.shard_partials(u)):
        partials.append(partial)
        print(
            f"  worker {worker}: {sharded.plan.shard_rows(worker):,} sentences, "
            f"partial state {partial.weighted.nbytes + partial.denom.nbytes:,} bytes"
        )
    merged = merge_partials(partials).finalize()
    np.testing.assert_allclose(merged, base_result.output, rtol=1e-9)
    print(
        "  merged 4 partial outputs -> identical result; synchronization "
        f"payload is O(nq x ed) = {partials[0].weighted.nbytes:,} bytes per worker."
    )


if __name__ == "__main__":
    main()
