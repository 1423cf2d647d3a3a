"""Unit tests for the page structure caches and the page-table walker."""

from repro.common.params import PSCConfig
from repro.common.stats import SimStats
from repro.common.types import AccessType, PageSize, RequestType
from repro.ptw.page_table import PageTable
from repro.ptw.psc import PageStructureCache, SplitPSC
from repro.ptw.walker import PageTableWalker

from .helpers import StubMemory


class TestPageStructureCache:
    def test_miss_then_hit(self):
        psc = PageStructureCache("P", entries=4, associativity=2)
        assert psc.lookup(10) is None
        psc.insert(10, 99)
        assert psc.lookup(10) == 99
        assert psc.hits == 1
        assert psc.misses == 1

    def test_lru_eviction_within_set(self):
        psc = PageStructureCache("P", entries=2, associativity=2)  # 1 set
        psc.insert(0, 1)
        psc.insert(1, 2)
        psc.lookup(0)          # refresh key 0
        psc.insert(2, 3)       # evicts key 1
        assert psc.lookup(1) is None
        assert psc.lookup(0) == 1

    def test_update_existing_key(self):
        psc = PageStructureCache("P", entries=4, associativity=2)
        psc.insert(10, 1)
        psc.insert(10, 2)
        assert psc.lookup(10) == 2
        assert len(psc) == 1

    def test_invalidate_all(self):
        psc = PageStructureCache("P", entries=4, associativity=2)
        psc.insert(1, 1)
        psc.invalidate_all()
        assert psc.lookup(1) is None


class TestSplitPSC:
    def test_deepest_hit_prefers_pscl2(self):
        psc = SplitPSC(PSCConfig())
        vpn = 0x12345
        psc.fill(vpn, 2, 100)
        psc.fill(vpn, 3, 200)
        assert psc.deepest_hit(vpn) == 2

    def test_falls_back_to_shallower(self):
        psc = SplitPSC(PSCConfig())
        vpn = 0x12345
        psc.fill(vpn, 4, 300)
        assert psc.deepest_hit(vpn) == 4

    def test_full_miss(self):
        psc = SplitPSC(PSCConfig())
        assert psc.deepest_hit(0x999) == 0

    def test_key_prefixes(self):
        assert SplitPSC.key_for(0x1FF, 2) == 0x1FF >> 9
        assert SplitPSC.key_for(1 << 36, 5) == 1


def data_refs(stats):
    """Page-table entries read by demand data walks so far."""
    return stats.counters.get("ptw.data_walk_refs", 0)


def make_walker():
    stats = SimStats()
    memory = StubMemory(latency=50)
    pt = PageTable()
    walker = PageTableWalker(pt, PSCConfig(), memory, stats)
    return walker, memory, stats


class TestWalker:
    def test_cold_4k_walk_reads_five_levels(self):
        walker, memory, stats = make_walker()
        result = walker.walk(0x1234_5000, AccessType.DATA)
        assert data_refs(stats) == 5
        assert len(memory.requests) == 5
        assert result.page_size is PageSize.SIZE_4K
        assert result.latency == walker.psc_latency + 5 * 50

    def test_warm_walk_uses_pscl2(self):
        walker, memory, stats = make_walker()
        walker.walk(0x0000, AccessType.DATA)
        cold = data_refs(stats)
        result = walker.walk(0x1000, AccessType.DATA)  # same region
        assert data_refs(stats) - cold == 1            # leaf only
        assert result.latency == walker.psc_latency + 50

    def test_requests_are_typed_pte(self):
        walker, memory, _ = make_walker()
        walker.walk(0x5000, AccessType.INSTRUCTION)
        assert all(r.req_type == RequestType.PTW for r in memory.requests)
        assert all(r.is_pte for r in memory.requests)
        assert all(r.translation_type == AccessType.INSTRUCTION for r in memory.requests)

    def test_walk_counters(self):
        walker, _, stats = make_walker()
        walker.walk(0x5000, AccessType.DATA)
        walker.walk(0x6000, AccessType.INSTRUCTION)
        assert stats.counters["ptw.data_walks"] == 1
        assert stats.counters["ptw.instr_walks"] == 1
        assert stats.counters["ptw.psc_misses"] == 1
        assert stats.counters["ptw.pscl2_hits"] == 1

    def test_2m_walk_four_levels_cold(self):
        stats = SimStats()
        memory = StubMemory(latency=50)
        pt = PageTable(size_policy=lambda vaddr: PageSize.SIZE_2M)
        walker = PageTableWalker(pt, PSCConfig(), memory, stats)
        result = walker.walk(0x20_0000, AccessType.DATA)
        assert data_refs(stats) == 4
        assert result.page_size is PageSize.SIZE_2M

    def test_2m_warm_walk_resumes_at_pscl3(self):
        stats = SimStats()
        memory = StubMemory(latency=50)
        pt = PageTable(size_policy=lambda vaddr: PageSize.SIZE_2M)
        walker = PageTableWalker(pt, PSCConfig(), memory, stats)
        walker.walk(0x20_0000, AccessType.DATA)
        cold = data_refs(stats)
        # A different 2 MB page in the same 1 GB region: PSCL3 knows the L2
        # table, so only the L2 (leaf) entry is read.
        walker.walk(0x40_0000, AccessType.DATA)
        assert data_refs(stats) - cold == 1
        assert stats.counters["ptw.pscl3_hits"] == 1

    def test_thread_id_propagates(self):
        walker, memory, _ = make_walker()
        walker.walk(0x5000, AccessType.DATA, thread_id=1)
        assert all(r.thread_id == 1 for r in memory.requests)
