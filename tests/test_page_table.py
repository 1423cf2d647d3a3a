"""Unit tests for the 5-level radix page table."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import PAGE_BYTES, PageSize
from repro.ptw.page_table import (
    ENTRIES_PER_TABLE,
    NUM_LEVELS,
    PageTable,
    level_index,
)


class TestLevelIndex:
    def test_level1_is_low_bits(self):
        assert level_index(0x1FF, 1) == 0x1FF

    def test_level_slicing(self):
        vpn = (3 << 36) | (5 << 27) | (7 << 18) | (9 << 9) | 11
        assert level_index(vpn, 5) == 3
        assert level_index(vpn, 4) == 5
        assert level_index(vpn, 3) == 7
        assert level_index(vpn, 2) == 9
        assert level_index(vpn, 1) == 11


def walk(pt, vaddr):
    """``(entries, pfn)`` of one ``walk_path``: ``entries[level]`` is the
    entry address read at ``level``, ``None`` where the walk read nothing."""
    entries = [None] * (NUM_LEVELS + 1)
    pfn = pt.walk_path(vaddr, pt.size_policy(vaddr), entries)
    return entries, pfn


def read_levels(entries):
    """Levels the walk read, in walk (root-first) order."""
    return [level for level in range(NUM_LEVELS, 0, -1) if entries[level] is not None]


def leaf_entry(entries):
    return entries[read_levels(entries)[-1]]


class TestWalkPath:
    def test_4k_walk_has_five_steps(self):
        pt = PageTable()
        entries, _ = walk(pt, 0x1234_5000)
        assert read_levels(entries) == [5, 4, 3, 2, 1]
        assert pt.pages_mapped_4k == 1

    def test_2m_walk_stops_at_level2(self):
        pt = PageTable(size_policy=lambda vaddr: PageSize.SIZE_2M)
        entries, _ = walk(pt, 0x1234_5000)
        assert read_levels(entries) == [5, 4, 3, 2]
        assert pt.pages_mapped_2m == 1

    def test_each_entry_lies_in_the_table_the_level_above_points_to(self):
        pt = PageTable()
        entries, _ = walk(pt, 0x1234_5000)
        for level in range(NUM_LEVELS, 1, -1):
            table = entries[level] >> 12
            index = (entries[level] & 0xFFF) // 8
            assert pt.tables[table][index] == entries[level - 1] >> 12

    def test_walk_is_deterministic(self):
        pt = PageTable()
        assert walk(pt, 0x8000_0000) == walk(pt, 0x8000_0000)

    def test_first_step_reads_root(self):
        pt = PageTable()
        entries, _ = walk(pt, 0)
        assert entries[NUM_LEVELS] >> 12 == pt.root_frame

    def test_adjacent_pages_share_leaf_line(self):
        # 8 PTEs per 64-byte line: the xPTP-relevant sharing property.
        pt = PageTable()
        leaf0 = leaf_entry(walk(pt, 0x0000)[0])
        leaf1 = leaf_entry(walk(pt, 0x1000)[0])
        assert leaf1 - leaf0 == 8
        assert leaf0 >> 6 == leaf1 >> 6

    def test_distant_pages_use_distinct_tables(self):
        pt = PageTable()
        a, _ = walk(pt, 0)
        b, _ = walk(pt, 1 << 40)
        assert leaf_entry(a) >> 12 != leaf_entry(b) >> 12
        assert a[NUM_LEVELS] >> 12 == b[NUM_LEVELS] >> 12

    def test_table_count_grows_lazily(self):
        pt = PageTable()
        assert pt.table_count == 1  # just the root
        walk(pt, 0)
        assert pt.table_count == 5
        walk(pt, 0x1000)  # same tables
        assert pt.table_count == 5


class TestMapping:
    def test_pfn_stable_across_walks(self):
        pt = PageTable()
        assert walk(pt, 0x5000)[1] == walk(pt, 0x5000)[1]

    def test_distinct_pages_get_distinct_frames(self):
        pt = PageTable()
        pfns = {walk(pt, i << 12)[1] for i in range(64)}
        assert len(pfns) == 64

    def test_page_counters(self):
        pt = PageTable()
        walk(pt, 0x0000)
        walk(pt, 0x1000)
        walk(pt, 0x1800)  # same page as 0x1000
        assert pt.pages_mapped_4k == 2
        assert pt.pages_mapped_2m == 0

    def test_2m_page_contiguous_and_aligned(self):
        pt = PageTable(size_policy=lambda vaddr: PageSize.SIZE_2M)
        base = walk(pt, 0x20_0000)[1]
        assert base % ENTRIES_PER_TABLE == 0  # 2 MB-aligned allocation
        nxt = walk(pt, 0x20_1000)[1]
        assert nxt == base + 1
        assert pt.pages_mapped_2m == 1

    def test_translate_composes_offset(self):
        pt = PageTable()
        paddr = pt.translate(0x5123)
        assert paddr & 0xFFF == 0x123
        assert paddr >> 12 == walk(pt, 0x5123)[1]

    def test_translate_2m_region_is_contiguous(self):
        pt = PageTable(size_policy=lambda vaddr: PageSize.SIZE_2M)
        p0 = pt.translate(0x20_0000)
        p1 = pt.translate(0x20_0000 + PAGE_BYTES)
        assert p1 - p0 == PAGE_BYTES

    def test_negative_address_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            walk(PageTable(), -1)


@settings(max_examples=100, deadline=None)
@given(vaddrs=st.lists(st.integers(min_value=0, max_value=(1 << 45) - 1), max_size=30))
def test_translation_is_a_function(vaddrs):
    """Same vaddr always maps to the same paddr; offsets preserved."""
    pt = PageTable()
    first = {v: pt.translate(v) for v in vaddrs}
    for v in vaddrs:
        assert pt.translate(v) == first[v]
        assert first[v] & 0xFFF == v & 0xFFF


@settings(max_examples=50, deadline=None)
@given(pages=st.lists(st.integers(min_value=0, max_value=1 << 30), unique=True, max_size=30))
def test_distinct_pages_never_collide(pages):
    pt = PageTable()
    frames = [walk(pt, p << 12)[1] for p in pages]
    assert len(set(frames)) == len(frames)
