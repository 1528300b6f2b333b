"""Property-based tests (hypothesis) for the memory-hierarchy substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EmbeddingCacheConfig
from repro.memsim import (
    Access,
    DramModel,
    EmbeddingCache,
    MemoryHierarchy,
    SetAssociativeCache,
)

address = st.integers(min_value=0, max_value=1 << 20)
size = st.integers(min_value=1, max_value=512)


def make_cache(size_kb=4, ways=2):
    return SetAssociativeCache(
        size_bytes=size_kb * 1024, line_bytes=64, associativity=ways
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(address, size, st.booleans()), max_size=200))
def test_cache_never_exceeds_capacity(accesses):
    cache = make_cache()
    capacity_lines = cache.size_bytes // cache.line_bytes
    for addr, sz, write in accesses:
        cache.access(addr, sz, write=write)
        assert cache.resident_lines <= capacity_lines


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(address, size, st.booleans()), max_size=200))
def test_hits_plus_misses_equals_line_touches(accesses):
    cache = make_cache()
    expected = 0
    for addr, sz, write in accesses:
        first = addr // 64
        last = (addr + sz - 1) // 64
        expected += last - first + 1
        cache.access(addr, sz, write=write)
    assert cache.stats.hits + cache.stats.misses == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(address, size), max_size=150))
def test_read_only_workload_never_writes_back(accesses):
    cache = make_cache(size_kb=1)
    for addr, sz in accesses:
        cache.access(addr, sz, write=False)
    assert cache.stats.writebacks == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(address, size, st.booleans()), max_size=120))
def test_repeating_a_trace_on_warm_cache_only_hits_when_it_fits(accesses):
    """A working set within capacity replays with 100% hits."""
    footprint_lines = set()
    for addr, sz, _ in accesses:
        for line in range(addr // 64, (addr + sz - 1) // 64 + 1):
            footprint_lines.add(line)
    cache = SetAssociativeCache(
        size_bytes=1 << 20, line_bytes=64, associativity=16
    )
    if len(footprint_lines) > (1 << 20) // 64:
        return
    for addr, sz, write in accesses:
        cache.access(addr, sz, write=write)
    before_misses = cache.stats.misses
    for addr, sz, write in accesses:
        cache.access(addr, sz, write=write)
    assert cache.stats.misses == before_misses


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=4),
)
def test_embedding_cache_accounts_every_access(word_ids, ways):
    entries = 16
    cache = EmbeddingCache(
        EmbeddingCacheConfig(size_bytes=entries * 8 * 4, embedding_dim=8),
        associativity=ways if entries % ways == 0 else 1,
    )
    cache.simulate_stream(word_ids)
    assert cache.stats.hits + cache.stats.misses == len(word_ids)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
def test_bigger_embedding_cache_never_hits_less(word_ids):
    rates = []
    for entries in (8, 32, 128):
        cache = EmbeddingCache(
            EmbeddingCacheConfig(size_bytes=entries * 8 * 4, embedding_dim=8),
            associativity=entries,  # fully associative isolates capacity
        )
        cache.simulate_stream(word_ids)
        rates.append(cache.stats.hits)
    assert rates == sorted(rates)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(address, size, st.booleans()), max_size=100))
def test_hierarchy_dram_bytes_are_line_multiples(accesses):
    hierarchy = MemoryHierarchy(make_cache(), DramModel())
    for addr, sz, write in accesses:
        hierarchy.access(Access(addr, sz, write=write))
    summary = hierarchy.total()
    assert summary.dram_bytes % 64 == 0
    assert summary.dram_bytes == (
        summary.demand_misses + summary.writebacks + summary.bypassed_lines
    ) * 64
