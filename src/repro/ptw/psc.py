"""Split Page Structure Caches (Table 1: PSCL5/4/3/2).

``PSCLk`` caches pointers to level-(k-1) page-table frames keyed by the
virtual-page-number prefix that identifies them (``vpn >> 9*(k-1)``).  A hit
in ``PSCLk`` lets the walker skip straight to the level-(k-1) table, so a
PSCL2 hit leaves a single memory reference (the leaf PTE) — the case xPTP
is designed to make an L2C hit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from ..common.params import PSCConfig
from .page_table import INDEX_BITS


class PageStructureCache:
    """Small set-associative LRU cache of vpn-prefix → table-frame pointers."""

    def __init__(self, name: str, entries: int, associativity: int) -> None:
        if entries % associativity:
            raise ValueError(f"{name}: entries not divisible by associativity")
        self.name = name
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        self._sets: List["OrderedDict[int, int]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _set_for(self, key: int) -> "OrderedDict[int, int]":
        return self._sets[key % self.num_sets]

    def lookup(self, key: int) -> Optional[int]:
        entries = self._set_for(key)
        frame = entries.get(key)
        if frame is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return frame

    def insert(self, key: int, frame: int) -> None:
        entries = self._set_for(key)
        if key in entries:
            entries[key] = frame
            entries.move_to_end(key)
            return
        if len(entries) >= self.associativity:
            entries.popitem(last=False)
        entries[key] = frame

    def reset_stats(self) -> None:
        """Clear hit/miss diagnostics at the warmup/measurement boundary.

        Cached pointers are microarchitectural state and survive the reset.
        """
        self.hits = 0
        self.misses = 0

    def invalidate_all(self) -> None:
        for entries in self._sets:
            entries.clear()

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)


class SplitPSC:
    """The four split PSCs, indexed by the table level they point *into*."""

    #: PSCLk exists for these k values; a PSCLk hit leaves k-1 memory reads.
    LEVELS = (2, 3, 4, 5)

    def __init__(self, config: PSCConfig) -> None:
        self.config = config
        self.caches: Dict[int, PageStructureCache] = {
            2: PageStructureCache("PSCL2", config.pscl2_entries, config.pscl2_assoc),
            3: PageStructureCache("PSCL3", config.pscl3_entries, config.pscl3_assoc),
            4: PageStructureCache("PSCL4", config.pscl4_entries, config.pscl4_assoc),
            5: PageStructureCache("PSCL5", config.pscl5_entries, config.pscl5_assoc),
        }

    def reset_stats(self) -> None:
        """Clear per-structure hit/miss diagnostics (warmup boundary)."""
        for cache in self.caches.values():
            cache.reset_stats()

    @staticmethod
    def key_for(vpn: int, level: int) -> int:
        """Prefix of ``vpn`` identifying the level-(level-1) table."""
        return vpn >> (INDEX_BITS * (level - 1))

    def deepest_hit(self, vpn: int) -> Optional[tuple]:
        """Find the deepest PSC hit for ``vpn``.

        Returns ``(level, frame)`` where ``frame`` is the level-(level-1)
        table to resume the walk from, or ``None`` on a full miss.  Checked
        deepest-first (PSCL2 → PSCL5) because a deeper hit skips more.
        """
        for level in self.LEVELS:
            frame = self.caches[level].lookup(self.key_for(vpn, level))
            if frame is not None:
                # One pair per PSC hit: walks run per STLB miss, off the
                # per-reference path.
                return level, frame  # repro: allow[RPR001]
        return None

    def fill(self, vpn: int, level: int, frame: int) -> None:
        """Record that the level-(level-1) table for ``vpn`` is ``frame``."""
        if level in self.caches:
            self.caches[level].insert(self.key_for(vpn, level), frame)
