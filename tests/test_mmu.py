"""Unit tests for the MMU (Figure 7 operation)."""

from dataclasses import replace

from repro.common.params import TLBConfig, scaled_config
from repro.common.stats import SimStats
from repro.common.types import AccessType, PageSize
from repro.ptw.page_table import PageTable
from repro.ptw.walker import PageTableWalker
from repro.tlb.hierarchy import MMU

from .helpers import StubMemory


def make_mmu(config=None, size_policy=None):
    config = config or scaled_config()
    stats = SimStats()
    memory = StubMemory(latency=30)
    pt = PageTable(size_policy)
    walker = PageTableWalker(pt, config.psc, memory, stats)
    return MMU(config, walker, stats), stats, memory


class TestTranslationPath:
    def test_cold_miss_walks(self):
        mmu, stats, _ = make_mmu()
        result = mmu.translate(0x5000, AccessType.DATA)
        assert result.stlb_miss
        assert result.latency > mmu.config.stlb.latency
        assert stats.level("STLB").accesses == 1
        assert stats.level("STLB").misses == 1
        assert stats.level("DTLB").misses == 1

    def test_l1_hit_is_free(self):
        mmu, stats, _ = make_mmu()
        # The MMU rewrites one result per translate: copy what is kept.
        first_pfn = mmu.translate(0x5000, AccessType.DATA).pfn
        second = mmu.translate(0x5000, AccessType.DATA)
        assert second.latency == 0
        assert not second.stlb_miss
        assert stats.level("STLB").accesses == 1
        assert second.pfn == first_pfn

    def test_instruction_uses_itlb(self):
        mmu, stats, _ = make_mmu()
        mmu.translate(0x5000, AccessType.INSTRUCTION)
        assert stats.level("ITLB").misses == 1
        assert stats.level("DTLB").accesses == 0

    def test_stlb_hit_refills_l1(self):
        config = scaled_config()
        # Shrink the L1 TLBs to 1 set of 4 so we can evict from L1 only.
        tiny = TLBConfig("DTLB", entries=4, associativity=4, latency=1)
        config = replace(config, dtlb=tiny)
        mmu, stats, _ = make_mmu(config)
        mmu.translate(0x0000, AccessType.DATA)
        for page in range(1, 5):  # evict page 0 from the 4-entry DTLB
            mmu.translate(page << 12, AccessType.DATA)
        stlb_accesses = stats.level("STLB").accesses
        result = mmu.translate(0x0000, AccessType.DATA)
        assert stats.level("STLB").accesses == stlb_accesses + 1
        assert not result.stlb_miss
        assert result.latency == mmu.config.stlb.latency
        # And it is back in the DTLB now.
        assert mmu.translate(0x0000, AccessType.DATA).latency == 0

    def test_stlb_miss_counter_for_adaptive(self):
        mmu, _, _ = make_mmu()
        mmu.translate(0x5000, AccessType.DATA)
        mmu.translate(0x6000, AccessType.DATA)
        assert mmu.take_stlb_miss_events() == 2
        assert mmu.take_stlb_miss_events() == 0

    def test_translation_cycle_accounting(self):
        mmu, stats, _ = make_mmu()
        mmu.translate(0x5000, AccessType.INSTRUCTION)
        mmu.translate(0x9000, AccessType.DATA)
        assert stats.counters["translation.instr_cycles"] > 0
        assert stats.counters["translation.data_cycles"] > 0


class TestTypeBit:
    def test_stlb_entry_type_matches_requester(self):
        mmu, _, _ = make_mmu()
        mmu.translate(0x5000, AccessType.INSTRUCTION)
        entry = mmu.stlb.lookup(0x5000, AccessType.INSTRUCTION)
        assert entry.is_instruction
        mmu.translate(0x9000, AccessType.DATA)
        entry = mmu.stlb.lookup(0x9000, AccessType.DATA)
        assert not entry.is_instruction


class TestLargePages:
    def test_2m_translation_covers_region(self):
        mmu, _, _ = make_mmu(size_policy=lambda vaddr: PageSize.SIZE_2M)
        first_pfn = mmu.translate(0x20_0000, AccessType.DATA).pfn
        assert mmu.dtlb.lookup(0x20_0000, AccessType.DATA).page_size is PageSize.SIZE_2M
        # A different 4 KB frame inside the same 2 MB page: L1 TLB hit with a
        # correctly offset pfn.
        second = mmu.translate(0x20_5000, AccessType.DATA)
        assert second.latency == 0
        assert second.pfn == first_pfn + 5

    def test_2m_pfn_composition_via_stlb(self):
        config = scaled_config()
        tiny = TLBConfig("DTLB", entries=4, associativity=4, latency=1)
        config = replace(config, dtlb=tiny)
        mmu, _, _ = make_mmu(config, size_policy=lambda vaddr: PageSize.SIZE_2M)
        first_pfn = mmu.translate(0x20_0000, AccessType.DATA).pfn
        for page in range(1, 6):
            mmu.translate((0x40_0000 * (page + 1)), AccessType.DATA)
        # Refill from STLB at a different offset: pfn must be offset-adjusted.
        again = mmu.translate(0x20_7000, AccessType.DATA)
        assert again.latency == mmu.config.stlb.latency
        assert again.pfn == first_pfn + 7


class TestSplitSTLB:
    def make_split(self):
        config = scaled_config()
        half = TLBConfig("ISTLB", entries=192, associativity=12, latency=8)
        config = replace(config, istlb=half, stlb=replace(config.stlb, entries=192))
        return make_mmu(config)

    def test_routing_by_type(self):
        mmu, _, _ = self.make_split()
        assert mmu.split
        mmu.translate(0x5000, AccessType.INSTRUCTION)
        mmu.translate(0x9000, AccessType.DATA)
        assert mmu.stlb_instr.occupancy() == 1
        assert mmu.stlb_data.occupancy() == 1
        assert mmu.stlb_instr.probe(0x5000)
        assert not mmu.stlb_instr.probe(0x9000)

    def test_shared_stats_level(self):
        mmu, stats, _ = self.make_split()
        mmu.translate(0x5000, AccessType.INSTRUCTION)
        mmu.translate(0x9000, AccessType.DATA)
        assert stats.level("STLB").misses == 2
