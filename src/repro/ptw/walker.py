"""Hardware page-table walker with split page structure caches.

On an STLB miss the walker resolves the translation by reading page-table
entries through the cache hierarchy, starting at the L2C (ChampSim
convention — "entries from all page table levels are stored in the cache
hierarchy", Section 5.1).  Every PTE read is tagged ``is_pte`` with the
instruction/data translation type, which is what xPTP's Type bit observes.

Timing simplification (DESIGN.md §3): the paper's walker supports up to 4
concurrent walks; this model charges walks sequentially, which is the
conservative choice and does not change policy orderings.

Hot-path notes: :meth:`PageTableWalker.walk` runs on every STLB miss, so the
counter names it bumps are precomputed module constants (no f-strings) and
the step/PSC-refill loops iterate the walk path in place instead of building
filtered copies.
"""

from __future__ import annotations

from typing import NamedTuple

from ..common.params import PSCConfig
from ..common.stats import SimStats
from ..common.types import AccessType, MemoryRequest, PAGE_BITS, PageSize, RequestType
from .page_table import PageTable, WalkPath
from .psc import SplitPSC

_INSTRUCTION = AccessType.INSTRUCTION

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

#: Sentinel resume level on a full PSC miss: deeper than any real table level,
#: so every step of the walk path is charged.
_WALK_ALL_LEVELS = 99


class WalkResult(NamedTuple):
    latency: int
    pfn: int
    page_size: PageSize
    memory_references: int


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
        path: WalkPath = self.page_table.walk_path(vaddr)
        steps = path.steps
        bump = self.stats.bump

        latency = self.psc_latency
        hit = self.psc.deepest_hit(vpn)
        if hit is not None:
            resume_level = hit[0] - 1  # PSCLk knows the level-(k-1) table
            bump(_PSCL_HIT_COUNTERS[hit[0]])
        else:
            resume_level = _WALK_ALL_LEVELS
            bump(_PSC_MISS_COUNTER)

        references = 0
        req = self._ptw_req
        req.translation_type = translation_type
        req.thread_id = thread_id
        access = self.memory_level.access
        for step in steps:
            if step.level > resume_level:
                continue
            req.address = step.entry_address
            latency += access(req)
            references += 1

        # Refill the PSCs along the traversed path: reading the level-k
        # entry reveals the level-(k-1) table frame.
        fill = self.psc.fill
        for i in range(len(steps) - 1):
            fill(vpn, steps[i].level, steps[i + 1].entry_address >> PAGE_BITS)

        names = _WALK_COUNTERS[prefetch][translation_type is _INSTRUCTION]
        bump(names[0])
        bump(names[1], latency)
        bump(names[2], references)
        # One WalkResult per resolved miss: walks are off the per-reference
        # fast path, and the caller needs the four fields together.
        return WalkResult(latency, path.pfn, path.page_size, references)  # repro: allow[RPR001]
