"""Hardware page-table walker with split page structure caches.

On an STLB miss the walker resolves the translation by reading page-table
entries through the cache hierarchy, starting at the L2C (ChampSim
convention — "entries from all page table levels are stored in the cache
hierarchy", Section 5.1).  Every PTE read is tagged ``is_pte`` with the
instruction/data translation type, which is what xPTP's Type bit observes.

Timing simplification (DESIGN.md §3): the paper's walker supports up to 4
concurrent walks; this model charges walks sequentially, which is the
conservative choice and does not change policy orderings.

Hot-path notes: :meth:`PageTableWalker.walk` runs on every STLB miss and
allocates nothing.  The counter names it bumps are precomputed module
constants (no f-strings); :meth:`PageTable.walk_path` writes the walk's
entry addresses into a buffer the walker owns, indexed by table level; and
the walker owns one :class:`WalkResult`, rewritten by every walk, so a
caller reads it before the next ``walk`` on the same walker.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.params import PSCConfig
from ..common.stats import SimStats
from ..common.types import AccessType, MemoryRequest, PAGE_BITS, PageSize, RequestType
from .page_table import NUM_LEVELS, PageTable
from .psc import SplitPSC

_INSTRUCTION = AccessType.INSTRUCTION
_SIZE_2M = PageSize.SIZE_2M

#: PSC hit counters by the level that hit (PSCLk), precomputed for the hot
#: walk path.  Level 1 never appears: PSCL2 is the deepest structure.
_PSCL_HIT_COUNTERS = {
    2: "ptw.pscl2_hits",
    3: "ptw.pscl3_hits",
    4: "ptw.pscl4_hits",
    5: "ptw.pscl5_hits",
}
_PSC_MISS_COUNTER = "ptw.psc_misses"

#: (walks, walk_cycles, walk_refs) counter-name triples, indexed by
#: demand/prefetch origin, then by instruction (vs data) translation.  Nested
#: rather than keyed by a ``(prefetch, is_instr)`` pair, which would build a
#: tuple per walk.
_WALK_COUNTERS = {
    False: {
        False: ("ptw.data_walks", "ptw.data_walk_cycles", "ptw.data_walk_refs"),
        True: ("ptw.instr_walks", "ptw.instr_walk_cycles", "ptw.instr_walk_refs"),
    },
    True: {
        False: ("ptw.pf_data_walks", "ptw.pf_data_walk_cycles", "ptw.pf_data_walk_refs"),
        True: ("ptw.pf_instr_walks", "ptw.pf_instr_walk_cycles", "ptw.pf_instr_walk_refs"),
    },
}


@dataclass(slots=True)
class WalkResult:
    """Outcome of the latest walk on one walker (rewritten in place)."""

    latency: int = 0
    pfn: int = 0
    page_size: PageSize = PageSize.SIZE_4K


class PageTableWalker:
    """Walks the radix page table through the cache hierarchy."""

    def __init__(
        self,
        page_table: PageTable,
        psc_config: PSCConfig,
        memory_level,
        stats: SimStats,
    ) -> None:
        self.page_table = page_table
        self.psc = SplitPSC(psc_config)
        self.psc_latency = psc_config.latency
        self.memory_level = memory_level
        self.stats = stats
        # Reusable PTE-read request (walks are sequential; the request is
        # consumed synchronously by the cache hierarchy).
        self._ptw_req = MemoryRequest(
            address=0, req_type=RequestType.PTW, is_pte=True
        )
        # Entry address read at each table level, indexed by level (slot 0
        # unused), and the result, both rewritten by every walk.
        self._entries = [0] * (NUM_LEVELS + 1)
        self._result = WalkResult()

    def reset_stats(self) -> None:
        """Clear PSC hit/miss diagnostics at the warmup/measurement boundary."""
        self.psc.reset_stats()

    def walk(
        self,
        vaddr: int,
        translation_type: AccessType,
        thread_id: int = 0,
        prefetch: bool = False,
    ) -> WalkResult:
        vpn = vaddr >> PAGE_BITS
        page_size = self.page_table.size_policy(vaddr)
        leaf_level = 2 if page_size is _SIZE_2M else 1
        entries = self._entries
        pfn = self.page_table.walk_path(vaddr, page_size, entries)
        bump = self.stats.bump

        hit_level = self.psc.deepest_hit(vpn)
        if hit_level:
            first = hit_level - 1  # PSCLk knows the level-(k-1) table
            bump(_PSCL_HIT_COUNTERS[hit_level])
        else:
            first = NUM_LEVELS
            bump(_PSC_MISS_COUNTER)

        latency = self.psc_latency
        req = self._ptw_req
        req.translation_type = translation_type
        req.thread_id = thread_id
        access = self.memory_level.access
        for level in range(first, leaf_level - 1, -1):
            req.address = entries[level]
            latency += access(req)

        # Refill the PSCs along the traversed path: reading the level-k
        # entry reveals the level-(k-1) table frame.
        fill = self.psc.fill
        for level in range(NUM_LEVELS, leaf_level, -1):
            fill(vpn, level, entries[level - 1] >> PAGE_BITS)

        names = _WALK_COUNTERS[prefetch][translation_type is _INSTRUCTION]
        bump(names[0])
        bump(names[1], latency)
        # A PSCL2 hit on a 2 MB page (first == 1) reads no entry.
        bump(names[2], first - leaf_level + 1)
        result = self._result
        result.latency = latency
        result.pfn = pfn
        result.page_size = page_size
        return result
