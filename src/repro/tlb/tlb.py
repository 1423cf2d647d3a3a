"""Set-associative TLB.

Entries for 4 KB and 2 MB pages coexist (Section 6.5): the lookup key
encodes the page size, and a lookup probes both sizes.  The replacement
policy is pluggable (LRU, probabilistic LRU, iTP, CHiRP).
"""

from __future__ import annotations

from typing import List, Optional

from ..common.params import TLBConfig
from ..common.stats import LevelStats
from ..common.types import AccessType, LARGE_PAGE_BITS, PAGE_BITS, PageSize
from .entry import TLBEntry
from .policies.base import TLBReplacementPolicy
from .policies.lru import TLBLRUPolicy

_INSTRUCTION = AccessType.INSTRUCTION
_SIZE_4K = PageSize.SIZE_4K


def _key(vpn: int, page_size: PageSize) -> int:
    return (vpn << 1) | (1 if page_size is PageSize.SIZE_2M else 0)


class TLB:
    """One TLB level (ITLB, DTLB, STLB or one half of a split STLB)."""

    def __init__(
        self, config: TLBConfig, policy: TLBReplacementPolicy, stats: LevelStats
    ) -> None:
        if policy.num_sets != config.num_sets or policy.associativity != config.associativity:
            raise ValueError(
                f"{config.name}: policy geometry {policy.num_sets}x{policy.associativity} "
                f"does not match TLB {config.num_sets}x{config.associativity}"
            )
        self.config = config
        self.policy = policy
        self.stats = stats
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._set_mask = self.num_sets - 1
        self.sets: List[List[TLBEntry]] = [
            [TLBEntry() for _ in range(self.associativity)] for _ in range(self.num_sets)
        ]
        self._key_maps: List[dict] = [dict() for _ in range(self.num_sets)]
        # Hot-path bindings: the policy never changes after construction.
        self._on_hit = policy.on_hit
        self._on_miss = policy.on_miss
        self._on_insert = policy.on_insert
        self._victim = policy.victim
        self._policy_on_evict = policy.on_evict
        # A policy that keeps LRU's own hit hook has its recency stack
        # touched here directly; iTP and CHiRP keep their promotion rules.
        self._stacks = (
            policy.stacks if type(policy).on_hit is TLBLRUPolicy.on_hit else None
        )

    # ------------------------------------------------------------------ #

    def _find(self, vaddr: int, page_size: PageSize) -> Optional[tuple]:
        vpn = vaddr >> (PAGE_BITS if page_size is _SIZE_4K else LARGE_PAGE_BITS)
        key = _key(vpn, page_size)
        set_index = vpn & self._set_mask
        way = self._key_maps[set_index].get(key)
        if way is None:
            return None
        return set_index, way

    def lookup(self, vaddr: int, access_type: AccessType) -> Optional[TLBEntry]:
        """Look up ``vaddr``; on a hit the policy's promotion rule runs.

        The two page-size probes are unrolled with precomputed shifts —
        this is the hottest TLB operation (every reference translates).
        """
        set_mask = self._set_mask
        key_maps = self._key_maps
        # 4 KB probe: key = (vpn << 1) | 0.
        vpn = vaddr >> PAGE_BITS
        set_index = vpn & set_mask
        way = key_maps[set_index].get(vpn << 1)
        if way is None:
            # 2 MB probe: key = (vpn << 1) | 1.
            vpn2 = vaddr >> LARGE_PAGE_BITS
            set_index2 = vpn2 & set_mask
            way = key_maps[set_index2].get((vpn2 << 1) | 1)
            if way is None:
                self._on_miss(set_index, vaddr, access_type)
                # The caller records the miss with its resolved latency.
                return None
            set_index = set_index2
        entries = self.sets[set_index]
        entry = entries[way]
        stacks = self._stacks
        if stacks is not None:
            stacks[set_index].touch(way)
        else:
            self._on_hit(set_index, way, entries, access_type)
        stats = self.stats
        stats.accesses += 1
        stats.hits += 1
        stats.cat_accesses["i" if access_type is _INSTRUCTION else "d"] += 1
        return entry

    def record_miss(self, access_type: AccessType, miss_latency: int) -> None:
        stats = self.stats
        category = "i" if access_type is _INSTRUCTION else "d"
        stats.accesses += 1
        stats.misses += 1
        stats.miss_latency_sum += miss_latency
        stats.cat_accesses[category] += 1
        stats.cat_misses[category] += 1

    def insert(
        self,
        vaddr: int,
        pfn: int,
        page_size: PageSize,
        access_type: AccessType,
    ) -> TLBEntry:
        """Install a translation (end of page walk / refill from STLB)."""
        vpn = vaddr >> (PAGE_BITS if page_size is _SIZE_4K else LARGE_PAGE_BITS)
        key = _key(vpn, page_size)
        set_index = vpn & self._set_mask
        key_map = self._key_maps[set_index]
        entries = self.sets[set_index]

        way = key_map.get(key)
        if way is None:
            # A full key map means every way is valid: skip the scan.
            if len(key_map) < self.associativity:
                way = self._find_invalid_way(entries)
            if way is None:
                way = self._victim(set_index, entries)
                self._evict(set_index, way)
            key_map[key] = way
        entry = entries[way]
        entry.valid = True
        entry.key = key
        entry.vpn = vpn
        entry.pfn = pfn
        entry.page_size = page_size
        entry.access_type = access_type
        self._on_insert(set_index, way, entries, access_type)
        return entry

    def _find_invalid_way(self, entries: List[TLBEntry]) -> Optional[int]:
        for way, entry in enumerate(entries):
            if not entry.valid:
                return way
        return None

    def _evict(self, set_index: int, way: int) -> None:
        entries = self.sets[set_index]
        entry = entries[way]
        if not entry.valid:
            return
        self.stats.evictions += 1
        self._policy_on_evict(set_index, way, entries)
        del self._key_maps[set_index][entry.key]
        entry.invalidate()

    def invalidate(self, vaddr: int) -> bool:
        """Invalidate the translation covering ``vaddr`` (shootdown model).

        Probes both page sizes; returns True iff an entry was removed.  Goes
        through the same eviction path as replacement (the policy's
        ``on_evict`` must drop its recency/metadata state either way), so
        ``stats.evictions`` counts replacement and invalidation removals.
        """
        for size in (PageSize.SIZE_4K, PageSize.SIZE_2M):
            found = self._find(vaddr, size)
            if found is not None:
                self._evict(*found)
                return True
        return False

    # ------------------------------------------------------------------ #

    def probe(self, vaddr: int) -> bool:
        """Presence check without touching replacement state.

        Probes both page sizes as :meth:`lookup` does (STLB prefetching
        calls it per candidate page).
        """
        vpn = vaddr >> PAGE_BITS
        if (vpn << 1) in self._key_maps[vpn & self._set_mask]:
            return True
        vpn2 = vaddr >> LARGE_PAGE_BITS
        return ((vpn2 << 1) | 1) in self._key_maps[vpn2 & self._set_mask]

    def occupancy(self) -> int:
        return sum(len(m) for m in self._key_maps)

    def instruction_entries(self) -> int:
        return sum(
            1
            for s in self.sets
            for e in s
            if e.valid and e.access_type is AccessType.INSTRUCTION
        )
