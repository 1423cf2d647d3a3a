"""Property-based tests: the cache and TLB against reference models."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import AccessType, PageSize
from repro.ptw.page_table import NUM_LEVELS, PageTable

from .helpers import load, make_cache


class ReferenceLRUCache:
    """Dict-of-OrderedDict LRU cache: the specification for our LRU level."""

    def __init__(self, num_sets, assoc):
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def access(self, line_address):
        s = self.sets[line_address & (self.num_sets - 1)]
        hit = line_address in s
        if hit:
            s.move_to_end(line_address)
        else:
            if len(s) >= self.assoc:
                s.popitem(last=False)
            s[line_address] = True
        return hit

    def contains(self, line_address):
        return line_address in self.sets[line_address & (self.num_sets - 1)]


@settings(max_examples=120, deadline=None)
@given(
    addresses=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200)
)
def test_lru_cache_matches_reference_model(addresses):
    """Hit/miss sequence and final contents must match the reference LRU."""
    cache, _ = make_cache(sets=4, assoc=2)
    reference = ReferenceLRUCache(4, 2)
    for line in addresses:
        expected_hit = reference.access(line)
        latency = cache.access(load(line << 6))
        actual_hit = latency == cache.config.latency
        assert actual_hit == expected_hit
    for line in set(addresses):
        assert cache.probe(line << 6) == reference.contains(line)


@settings(max_examples=120, deadline=None)
@given(
    addresses=st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=150)
)
def test_tlb_lru_matches_reference_model(addresses):
    from repro.common.params import TLBConfig
    from repro.common.stats import LevelStats
    from repro.tlb.policies.registry import make_tlb_policy
    from repro.tlb.tlb import TLB

    config = TLBConfig("T", entries=8, associativity=2, latency=1)
    tlb = TLB(config, make_tlb_policy("lru", 4, 2), LevelStats("T"))
    reference = ReferenceLRUCache(4, 2)

    for vpn in addresses:
        expected_hit = reference.access(vpn)
        entry = tlb.lookup(vpn << 12, AccessType.DATA)
        assert (entry is not None) == expected_hit
        if entry is None:
            tlb.insert(vpn << 12, vpn, PageSize.SIZE_4K, AccessType.DATA)
    for vpn in set(addresses):
        assert tlb.probe(vpn << 12) == reference.contains(vpn)


@settings(max_examples=60, deadline=None)
@given(
    addresses=st.lists(st.integers(min_value=0, max_value=511), min_size=1, max_size=120),
    policy=st.sampled_from(["lru", "srrip", "drrip", "tdrrip", "ptp", "xptp", "ship", "mockingjay"]),
)
def test_cache_invariants_under_any_policy(addresses, policy):
    """Structural invariants hold for every replacement policy.

    Occupancy never exceeds capacity, a line probed true was accessed, and
    every demand access after the first to a still-resident line is a hit.
    """
    cache, _ = make_cache(sets=4, assoc=2, policy=policy)
    for line in addresses:
        cache.access(load(line << 6, pc=line))
        assert cache.occupancy() <= 8
        assert cache.probe(line << 6)  # just-accessed line must be resident
    assert cache.stats.accesses == len(addresses)
    assert cache.stats.hits + cache.stats.misses == len(addresses)


@settings(max_examples=60, deadline=None)
@given(
    vpns=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=80),
    large=st.booleans(),
)
def test_page_table_walk_addresses_are_consistent(vpns, large):
    """Walks of the same page always read the same entry addresses, and the
    leaf entry address determines the mapping."""
    size_policy = (lambda v: PageSize.SIZE_2M) if large else None
    pt = PageTable(size_policy)
    leaf_level = 2 if large else 1
    seen = {}
    for vpn in vpns:
        page_size = pt.size_policy(vpn << 12)
        entries = [None] * (NUM_LEVELS + 1)
        pfn = pt.walk_path(vpn << 12, page_size, entries)
        # One entry read per level from the root down to the leaf level.
        assert all(entries[level] is not None for level in range(leaf_level, NUM_LEVELS + 1))
        assert entries[:leaf_level] == [None] * leaf_level
        key = entries[leaf_level]
        if key in seen:
            assert seen[key] == (pfn, page_size)
        elif not large:
            # 4 KB leaves: one entry address <-> one pfn
            seen[key] = (pfn, page_size)
        again = [None] * (NUM_LEVELS + 1)
        assert pt.walk_path(vpn << 12, page_size, again) == pfn
        assert again == entries


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_workload_streams_are_reproducible(seed):
    import itertools

    from repro.workloads.server import ServerWorkload

    wl1 = ServerWorkload("a", seed, code_pages=32, data_pages=600,
                         hot_data_pages=32, warm_pages=64, local_pages=8)
    wl2 = ServerWorkload("a", seed, code_pages=32, data_pages=600,
                         hot_data_pages=32, warm_pages=64, local_pages=8)
    a = list(itertools.islice(wl1.record_stream(), 64))
    b = list(itertools.islice(wl2.record_stream(), 64))
    assert a == b


@settings(max_examples=40, deadline=None)
@given(
    vpns=st.lists(st.integers(min_value=0, max_value=1 << 18), min_size=2, max_size=40)
)
def test_walker_refs_never_increase_for_repeated_walks(vpns):
    """Re-walking the same page never needs more references than before.

    The PSCs only gain information along a walked path, so the reference
    count for a given vaddr is non-increasing between *consecutive* walks
    of that vaddr (other walks may evict PSC entries in between, but an
    immediate re-walk must hit every PSC level the first walk filled).
    """
    from repro.common.params import PSCConfig
    from repro.common.stats import SimStats
    from repro.common.types import AccessType
    from repro.ptw.page_table import PageTable
    from repro.ptw.walker import PageTableWalker

    from .helpers import StubMemory

    stats = SimStats()
    walker = PageTableWalker(PageTable(), PSCConfig(), StubMemory(), stats)

    def walk(vaddr):
        """``(memory references, pfn)`` of one walk."""
        refs = stats.counters.get("ptw.data_walk_refs", 0)
        pfn = walker.walk(vaddr, AccessType.DATA).pfn
        return stats.counters["ptw.data_walk_refs"] - refs, pfn

    for vpn in vpns:
        first_refs, first_pfn = walk(vpn << 12)
        second_refs, second_pfn = walk(vpn << 12)
        assert second_refs <= first_refs
        assert second_pfn == first_pfn
        # An immediate re-walk resumes from PSCL2: exactly the leaf read.
        assert second_refs == 1
