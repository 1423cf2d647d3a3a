"""Unit tests for the STLB prefetching extension (Section 7)."""

from dataclasses import replace

import pytest

from repro.common.params import scaled_config
from repro.common.types import AccessType, PAGE_BITS
from repro.tlb.prefetch import (
    DistanceSTLBPrefetcher,
    SequentialSTLBPrefetcher,
    make_stlb_prefetcher,
)

I = AccessType.INSTRUCTION
D = AccessType.DATA


class TestSequential:
    def test_prefetches_next_pages(self):
        pf = SequentialSTLBPrefetcher(degree=2)
        assert pf.on_stlb_miss(100, D) == (101, 102)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            SequentialSTLBPrefetcher(degree=0)


class TestDistance:
    def test_no_prediction_without_history(self):
        pf = DistanceSTLBPrefetcher()
        assert pf.on_stlb_miss(100, D) == ()

    def test_learns_repeating_distance(self):
        pf = DistanceSTLBPrefetcher()
        pf.on_stlb_miss(100, D)
        pf.on_stlb_miss(104, D)   # distance 4 observed
        pf.on_stlb_miss(108, D)   # trains 4 -> 4
        assert pf.on_stlb_miss(112, D) == (116,)

    def test_streams_are_per_type(self):
        pf = DistanceSTLBPrefetcher()
        pf.on_stlb_miss(100, D)
        pf.on_stlb_miss(104, D)
        pf.on_stlb_miss(108, D)
        # An interleaved instruction miss must not disturb the data stream.
        pf.on_stlb_miss(7, I)
        assert pf.on_stlb_miss(112, D) == (116,)

    def test_changed_distance_suppresses_prediction(self):
        pf = DistanceSTLBPrefetcher()
        pf.on_stlb_miss(100, D)
        pf.on_stlb_miss(104, D)
        assert pf.on_stlb_miss(117, D) == ()  # distance 13 never seen


class TestFactory:
    def test_names(self):
        assert isinstance(make_stlb_prefetcher("sequential"), SequentialSTLBPrefetcher)
        assert isinstance(make_stlb_prefetcher("distance"), DistanceSTLBPrefetcher)
        assert make_stlb_prefetcher(None) is None

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_stlb_prefetcher("markov")


class TestMMUIntegration:
    def make_mmu(self, prefetcher):
        from repro.common.stats import SimStats
        from repro.ptw.page_table import PageTable
        from repro.ptw.walker import PageTableWalker
        from repro.tlb.hierarchy import MMU

        from .helpers import StubMemory

        config = replace(scaled_config(), stlb_prefetcher=prefetcher)
        stats = SimStats()
        walker = PageTableWalker(PageTable(), config.psc, StubMemory(), stats)
        return MMU(config, walker, stats), stats

    def test_sequential_prefetch_fills_next_page(self):
        mmu, stats = self.make_mmu("sequential")
        mmu.translate(0x5000, AccessType.DATA)
        assert mmu.stlb.probe(0x6000)
        assert stats.counters["stlb.prefetch_fills"] == 1
        assert stats.counters["ptw.pf_data_walks"] == 1

    def test_prefetch_off_demand_stats(self):
        mmu, stats = self.make_mmu("sequential")
        mmu.translate(0x5000, AccessType.DATA)
        # The demand walk counter sees only the demand miss.
        assert stats.counters["ptw.data_walks"] == 1
        assert stats.level("STLB").misses == 1

    def test_prefetched_entry_hits_later(self):
        mmu, stats = self.make_mmu("sequential")
        mmu.translate(0x5000, AccessType.DATA)
        stlb_accesses = stats.level("STLB").accesses
        result = mmu.translate(0x6000, AccessType.DATA)
        assert stats.level("STLB").accesses == stlb_accesses + 1
        assert not result.stlb_miss

    def test_duplicate_prefetch_suppressed(self):
        mmu, stats = self.make_mmu("sequential")
        mmu.translate(0x5000, AccessType.DATA)
        mmu.translate(0x5000 + (1 << 21), AccessType.DATA)
        fills_before = stats.counters["stlb.prefetch_fills"]
        # Missing on 0x5000's neighbour again must not refetch it.
        mmu.translate(0x4000, AccessType.DATA)
        assert stats.counters["stlb.prefetch_fills"] == fills_before

    @pytest.mark.parametrize("prefetcher", ["sequential", "distance"])
    def test_demand_miss_returns_its_own_pfn(self, prefetcher):
        # Prefetch walks run after the demand walk and rewrite the walker's
        # result; the demand translation must still report its own frame.
        mmu, stats = self.make_mmu(prefetcher)
        page_table = mmu.walker.page_table
        misses = 0
        for page in range(0x100, 0x180, 4):
            vaddr = page << PAGE_BITS
            result = mmu.translate(vaddr, AccessType.DATA)
            if result.stlb_miss:
                misses += 1
                assert result.pfn == page_table.translate(vaddr) >> PAGE_BITS
        assert misses > 0
        assert stats.counters["stlb.prefetch_fills"] > 0

    def test_no_prefetcher_by_default(self):
        mmu, stats = self.make_mmu(None)
        mmu.translate(0x5000, AccessType.DATA)
        assert "stlb.prefetch_fills" not in stats.counters
