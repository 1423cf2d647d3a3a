"""5-level radix-tree page table (Section 5.1: "We simulate a 5-level radix
tree page table").

Table levels are numbered L5 (root) down to L1 (leaf PTE tables).  Each
table holds 512 eight-byte entries in one 4 KB frame, so a 64-byte cache
line holds 8 PTEs — the property xPTP exploits: one resident leaf-PTE line
in the L2C serves page walks for 8 adjacent virtual pages.

Pages are mapped lazily on first touch (the paper assumes all pages are
resident; no page-fault modelling).  A ``size_policy`` callback decides
whether a virtual address lives in a 4 KB or a 2 MB page (Section 6.5);
2 MB mappings terminate the walk at the L2 entry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..common.types import PAGE_BITS, PTE_BYTES, PageSize

ENTRIES_PER_TABLE = 512
INDEX_BITS = 9
INDEX_MASK = ENTRIES_PER_TABLE - 1
NUM_LEVELS = 5

#: Physical frame numbers for page-table frames are allocated from here so
#: they never collide with data frames.
PT_FRAME_BASE = 1 << 26
DATA_FRAME_BASE = 1 << 8


def level_index(vpn: int, level: int) -> int:
    """9-bit radix index used at table ``level`` for 4 KB page number ``vpn``."""
    return (vpn >> (INDEX_BITS * (level - 1))) & INDEX_MASK


class PageTable:
    """Lazily-populated radix page table with a deterministic frame allocator."""

    def __init__(self, size_policy: Optional[Callable[[int], PageSize]] = None) -> None:
        self.size_policy = size_policy or (lambda vaddr: PageSize.SIZE_4K)
        self._next_pt_frame = PT_FRAME_BASE
        self._next_data_frame = DATA_FRAME_BASE
        # table frame -> {index: child frame}
        self.tables: Dict[int, Dict[int, int]] = {}
        # leaf mappings: 4K vpn -> pfn; 2M vpn21 -> pfn (2 MB-aligned frame number)
        self._leaves_4k: Dict[int, int] = {}
        self._leaves_2m: Dict[int, int] = {}
        self.root_frame = self._alloc_table()
        self.pages_mapped_4k = 0
        self.pages_mapped_2m = 0

    # ------------------------------------------------------------------ #

    def _alloc_table(self) -> int:
        frame = self._next_pt_frame
        self._next_pt_frame += 1
        # First touch only: a table is created once, when the first page
        # below it is mapped.
        self.tables[frame] = {}  # repro: allow[RPR001]
        return frame

    def _alloc_data_frames(self, count: int) -> int:
        """Allocate ``count`` contiguous, count-aligned physical frames."""
        base = self._next_data_frame
        if base % count:
            base += count - base % count
        self._next_data_frame = base + count
        return base

    # ------------------------------------------------------------------ #

    def walk_path(self, vaddr: int, page_size: PageSize, entries: List[int]) -> int:
        """Translate ``vaddr`` as a ``page_size`` page, mapping it on first touch.

        Writes the physical address of the entry a hardware walker starting
        at the root reads at each table level into ``entries[level]``, for
        levels L5 down to the leaf (L1 for 4 KB, L2 for 2 MB); lower slots
        are left alone.  Returns the pfn of the covering 4 KB frame.
        """
        if vaddr < 0:
            raise ValueError("virtual address must be non-negative")
        vpn = vaddr >> PAGE_BITS
        leaf_level = 2 if page_size is PageSize.SIZE_2M else 1
        tables = self.tables
        table = self.root_frame
        for level in range(NUM_LEVELS, leaf_level, -1):
            index = level_index(vpn, level)
            entries[level] = self._entry_address(table, index)
            children = tables[table]
            child = children.get(index)
            if child is None:
                child = self._alloc_table()
                children[index] = child
            table = child
        entries[leaf_level] = self._entry_address(table, level_index(vpn, leaf_level))
        return self._map_leaf(vpn, page_size)

    def _map_leaf(self, vpn: int, page_size: PageSize) -> int:
        if page_size is PageSize.SIZE_2M:
            vpn2m = vpn >> INDEX_BITS
            pfn = self._leaves_2m.get(vpn2m)
            if pfn is None:
                pfn = self._alloc_data_frames(ENTRIES_PER_TABLE)
                self._leaves_2m[vpn2m] = pfn
                self.pages_mapped_2m += 1
            # pfn of the covering 4 KB frame inside the 2 MB page
            return pfn + (vpn & INDEX_MASK)
        pfn = self._leaves_4k.get(vpn)
        if pfn is None:
            pfn = self._alloc_data_frames(1)
            self._leaves_4k[vpn] = pfn
            self.pages_mapped_4k += 1
        return pfn

    @staticmethod
    def _entry_address(table_frame: int, index: int) -> int:
        return (table_frame << PAGE_BITS) | (index * PTE_BYTES)

    # ------------------------------------------------------------------ #

    def translate(self, vaddr: int) -> int:
        """Virtual → physical byte address (mapping on first touch).

        ``walk_path`` always reports the pfn of the covering 4 KB frame
        (even inside a 2 MB page), so composition is uniform.
        """
        entries = [0] * (NUM_LEVELS + 1)
        pfn = self.walk_path(vaddr, self.size_policy(vaddr), entries)
        return (pfn << PAGE_BITS) | (vaddr & (PageSize.SIZE_4K - 1))

    @property
    def table_count(self) -> int:
        return len(self.tables)
