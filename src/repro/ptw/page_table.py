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

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..common.types import PAGE_BITS, PTE_BYTES, PageSize

ENTRIES_PER_TABLE = 512
INDEX_BITS = 9
INDEX_MASK = ENTRIES_PER_TABLE - 1
NUM_LEVELS = 5

#: Physical frame numbers for page-table frames are allocated from here so
#: they never collide with data frames.
PT_FRAME_BASE = 1 << 26
DATA_FRAME_BASE = 1 << 8


class WalkStep(NamedTuple):
    """One page-table entry read: table level and physical byte address."""

    level: int
    entry_address: int


class WalkPath(NamedTuple):
    """Full result of translating a virtual address."""

    steps: Tuple[WalkStep, ...]
    pfn: int
    page_size: PageSize

    @property
    def leaf_level(self) -> int:
        return 2 if self.page_size is PageSize.SIZE_2M else 1


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

    def walk_path(self, vaddr: int) -> WalkPath:
        """Translate ``vaddr``, mapping it on first touch.

        Returns every entry address a hardware walker starting at the root
        would read, in L5→leaf order.
        """
        if vaddr < 0:
            raise ValueError("virtual address must be non-negative")
        vpn = vaddr >> PAGE_BITS
        page_size = self.size_policy(vaddr)
        leaf_level = 2 if page_size is PageSize.SIZE_2M else 1

        # One path per walk (per STLB miss, off the per-reference path): the
        # step list, its entries and the WalkPath are the walk's result.
        steps: List[WalkStep] = []  # repro: allow[RPR001]
        table = self.root_frame
        for level in range(NUM_LEVELS, leaf_level, -1):
            index = level_index(vpn, level)
            steps.append(WalkStep(level, self._entry_address(table, index)))  # repro: allow[RPR001]
            entries = self.tables[table]
            child = entries.get(index)
            if child is None:
                child = self._alloc_table()
                entries[index] = child
            table = child

        index = level_index(vpn, leaf_level)
        steps.append(WalkStep(leaf_level, self._entry_address(table, index)))  # repro: allow[RPR001]
        pfn = self._map_leaf(vpn, page_size)
        return WalkPath(tuple(steps), pfn, page_size)  # repro: allow[RPR001]

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
        path = self.walk_path(vaddr)
        return (path.pfn << PAGE_BITS) | (vaddr & (PageSize.SIZE_4K - 1))

    @property
    def table_count(self) -> int:
        return len(self.tables)
