"""Virtual-memory substrate: radix page table, page structure caches, walker."""

from .page_table import ENTRIES_PER_TABLE, PageTable, level_index
from .psc import PageStructureCache, SplitPSC
from .walker import PageTableWalker, WalkResult

__all__ = [
    "ENTRIES_PER_TABLE",
    "PageStructureCache",
    "PageTable",
    "PageTableWalker",
    "SplitPSC",
    "WalkResult",
    "level_index",
]
