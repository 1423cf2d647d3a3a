"""Unit tests for the synthetic workload generators."""

import itertools

import pytest

from repro.common.types import PAGE_BYTES, PageSize
from repro.workloads.base import (
    CODE_BASE,
    DATA_BASE,
    LOCAL_BASE,
    PAGES_PER_REGION,
    STREAM_BASE,
    WARM_BASE,
    region_is_large,
    sparse_vaddr,
)
from repro.workloads.mixes import smt_mixes
from repro.workloads.phased import PhasedWorkload
from repro.workloads.server import ServerWorkload, server_suite
from repro.workloads.speclike import SpecLikeWorkload, spec_suite
from repro.workloads.trace_io import FileTraceWorkload, capture


def take(workload, n):
    return list(itertools.islice(workload.record_stream(), n))


class TestSparseLayout:
    def test_slots_within_region(self):
        for idx in range(64):
            vaddr = sparse_vaddr(DATA_BASE, idx)
            region = (vaddr - DATA_BASE) >> 21
            assert region == idx // PAGES_PER_REGION

    def test_cluster_is_contiguous(self):
        base = sparse_vaddr(DATA_BASE, 0)
        for slot in range(1, PAGES_PER_REGION):
            assert sparse_vaddr(DATA_BASE, slot) == base + slot * PAGE_BYTES

    def test_distinct_pages_distinct_addresses(self):
        addrs = {sparse_vaddr(DATA_BASE, i) for i in range(512)}
        assert len(addrs) == 512

    def test_offset_applied(self):
        assert sparse_vaddr(DATA_BASE, 3, 0x40) - sparse_vaddr(DATA_BASE, 3) == 0x40


class TestRegionIsLarge:
    def test_extremes(self):
        assert not region_is_large(0x1000, 0)
        assert region_is_large(0x1000, 100)

    def test_deterministic(self):
        assert region_is_large(0x123456789, 50) == region_is_large(0x123456789, 50)

    def test_same_region_same_outcome(self):
        base = 0x40_0000
        assert region_is_large(base, 50) == region_is_large(base + 0x1F_FFFF, 50)

    def test_fraction_roughly_matches(self):
        hits = sum(region_is_large(r << 21, 30) for r in range(2000))
        assert 0.2 < hits / 2000 < 0.4


class TestServerWorkload:
    def test_deterministic_stream(self):
        a = take(ServerWorkload("w", 5), 500)
        b = take(ServerWorkload("w", 5), 500)
        assert a == b

    def test_stream_is_restartable(self):
        wl = ServerWorkload("w", 5)
        assert take(wl, 200) == take(wl, 200)

    def test_different_seeds_differ(self):
        assert take(ServerWorkload("w", 5), 200) != take(ServerWorkload("w", 6), 200)

    def test_pcs_within_code_footprint(self):
        wl = ServerWorkload("w", 5, code_pages=64)
        for rec in take(wl, 2000):
            assert rec.pc >= CODE_BASE
            assert rec.num_instrs == wl.instrs_per_line

    def test_loads_land_in_known_regions(self):
        wl = ServerWorkload("w", 5)
        regions = set()
        for rec in take(wl, 5000):
            for addr in rec.loads:
                if addr >= LOCAL_BASE:
                    regions.add("local")
                elif addr >= STREAM_BASE:
                    regions.add("stream")
                elif addr >= WARM_BASE:
                    regions.add("warm")
                else:
                    assert addr >= DATA_BASE
                    regions.add("hot")
        assert regions == {"local", "stream", "warm", "hot"}

    def test_stores_are_local(self):
        wl = ServerWorkload("w", 5)
        for rec in take(wl, 3000):
            for addr in rec.stores:
                assert addr >= LOCAL_BASE

    def test_instruction_footprint_spans_many_pages(self):
        wl = ServerWorkload("w", 5, code_pages=256)
        pages = {rec.pc >> 12 for rec in take(wl, 20000)}
        assert len(pages) > 100

    def test_size_policy_respects_percent(self):
        wl0 = ServerWorkload("w", 5, large_page_percent=0)
        wl100 = ServerWorkload("w", 5, large_page_percent=100)
        addr = sparse_vaddr(DATA_BASE, 7)
        assert wl0.size_policy(addr) is PageSize.SIZE_4K
        assert wl100.size_policy(addr) is PageSize.SIZE_2M

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerWorkload("w", 1, code_pages=0)
        with pytest.raises(ValueError):
            ServerWorkload("w", 1, hot_data_pages=100, data_pages=50)
        with pytest.raises(ValueError):
            ServerWorkload("w", 1, warm_pages=10**9)
        with pytest.raises(ValueError):
            ServerWorkload("w", 1, hot_fraction=0.9, local_fraction=0.2)
        with pytest.raises(ValueError):
            ServerWorkload("w", 1, large_page_percent=101)


class TestSpecLikeWorkload:
    def test_small_code_footprint(self):
        wl = SpecLikeWorkload("s", 5, code_pages=4)
        pages = {rec.pc >> 12 for rec in take(wl, 5000)}
        assert len(pages) <= 4

    def test_deterministic(self):
        assert take(SpecLikeWorkload("s", 5), 300) == take(SpecLikeWorkload("s", 5), 300)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpecLikeWorkload("s", 1, hot_data_pages=100, data_pages=50)


class TestSuites:
    def test_server_suite_unique_names_and_seeds(self):
        suite = server_suite(8)
        assert len({w.name for w in suite}) == 8
        assert len({w.seed for w in suite}) == 8

    def test_spec_suite(self):
        suite = spec_suite(4)
        assert len(suite) == 4
        assert all(w.code_pages <= 8 for w in suite)

    def test_suite_large_page_propagates(self):
        suite = server_suite(2, large_page_percent=50)
        assert all(w.large_page_percent == 50 for w in suite)

    def test_smt_mixes_categories(self):
        mixes = smt_mixes(2)
        assert len(mixes) == 6
        categories = {m.category for m in mixes}
        assert categories == {"intense", "medium", "relaxed"}
        for mix in mixes:
            assert len(mix.workloads) == 2
            assert mix.thread0.name != mix.thread1.name

    def test_intense_mix_has_bigger_footprint_than_relaxed(self):
        mixes = {m.category: m for m in smt_mixes(1)}
        assert (
            mixes["intense"].thread1.data_pages > mixes["relaxed"].thread1.data_pages
        )


class TestPhasedWorkload:
    def test_alternates_phases(self):
        wl = PhasedWorkload("p", 3, phase_records=4000)
        records = take(wl, 8000)
        hi_pages = {r.pc >> 12 for r in records[:4000]}
        lo_pages = {r.pc >> 12 for r in records[4000:8000]}
        # The pressure phase roams a much larger code footprint.
        assert len(hi_pages) > 2 * len(lo_pages)

    def test_deterministic(self):
        assert take(PhasedWorkload("p", 3), 300) == take(PhasedWorkload("p", 3), 300)


class TestFileTraceReplay:
    @pytest.mark.parametrize(
        "workload",
        [ServerWorkload("srv", 11), SpecLikeWorkload("spec", 12), PhasedWorkload("ph", 13, 3000)],
        ids=["server", "speclike", "phased"],
    )
    def test_captured_trace_replays_record_for_record(self, tmp_path, workload):
        path = tmp_path / "cap.rptr"
        assert capture(workload, path, 10_000) == 10_000
        replay = FileTraceWorkload("replay", path)
        assert take(replay, 10_000) == take(workload, 10_000)
