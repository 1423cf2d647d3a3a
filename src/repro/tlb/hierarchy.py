"""MMU: the full translation hierarchy of Figure 7.

``translate`` walks ITLB/DTLB → STLB → page-table walker, charging the
latencies of Table 1.  First-level TLB hits are free (their 1-cycle latency
is pipelined into the base CPI); an STLB access charges the STLB latency; an
STLB miss additionally charges the full page walk.

The STLB MSHR Type bit of Figure 7 (step 2/4) is modelled with an
:class:`MSHRFile`: the miss allocates an entry annotated with the
translation type, and the insertion at walk completion reads the type back
from the MSHR — exactly the dataflow iTP requires.

Split-STLB designs (Section 6.6) instantiate two structures and route by
access type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..cache.mshr import make_mshr_file
from ..common.params import SystemConfig
from ..common.stats import SimStats
from ..common.types import AccessType, PAGE_BITS, PageSize, RequestType
from ..ptw.walker import PageTableWalker
from .policies.chirp import CHiRPPolicy
from .prefetch import make_stlb_prefetcher
from .tlb import TLB

if TYPE_CHECKING:  # pragma: no cover
    from ..topology.structures import MMUStructures


_INSTRUCTION = AccessType.INSTRUCTION
_SIZE_2M = PageSize.SIZE_2M

#: Translation-cycle counter names, precomputed so the warm accounting path
#: (runs on every first-level TLB miss) never builds an f-string.
_TRANSLATION_CYCLES_INSTR = "translation.instr_cycles"
_TRANSLATION_CYCLES_DATA = "translation.data_cycles"


@dataclass(slots=True)
class TranslationResult:
    """Outcome of the latest address translation on one MMU.

    Each MMU owns one and rewrites it on every ``translate``, so the
    per-reference path allocates nothing: read it before the next
    ``translate`` on the same MMU (SMT threads share one).
    """

    pfn: int = 0
    latency: int = 0      # cycles beyond a first-level TLB hit
    stlb_miss: bool = False


class MMU:
    """ITLB + DTLB + (unified or split) STLB + hardware walker."""

    def __init__(
        self,
        config: SystemConfig,
        walker: PageTableWalker,
        stats: SimStats,
        structures: Optional["MMUStructures"] = None,
    ) -> None:
        self.config = config
        self.walker = walker
        self.stats = stats

        if structures is None:
            # Compatibility path for direct construction (tests, downstream
            # code): derive the TLB set from the SystemConfig exactly as the
            # pre-topology wiring did.  Imported lazily — the topology
            # package imports repro.tlb, so a module-level import here would
            # close the cycle.
            from ..topology.structures import mmu_structures

            structures = mmu_structures(config, stats)

        self.itlb = structures.itlb
        self.dtlb = structures.dtlb
        self.split = structures.stlb_instr is not None
        if self.split:
            self.stlb_data = structures.stlb
            self.stlb_instr = structures.stlb_instr
        else:
            self.stlb = structures.stlb
        self.stlb_mshrs = make_mshr_file(config.stlb.mshr_entries)
        self.prefetcher = make_stlb_prefetcher(config.stlb_prefetcher)
        #: STLB misses since the adaptive controller last sampled (Section
        #: 4.3.1).  Adaptive-controller *state*, not a statistic: it is read
        #: and cleared by :meth:`take_stlb_miss_events`, never by the warmup
        #: reset, so it is exempt from the stats-reset rule.
        self.stlb_miss_events = 0  # repro: allow[RPR004]
        # Hot-path bindings: resolve the per-type structure routing and the
        # CHiRP isinstance check once instead of per translation.
        self._stlb_i = self._stlb_for(AccessType.INSTRUCTION)
        self._stlb_d = self._stlb_for(AccessType.DATA)
        policy = self._stlb_i.policy
        self._chirp = policy if isinstance(policy, CHiRPPolicy) else None
        self._stlb_latency = config.stlb.latency
        self._result = TranslationResult()

    def reset_stats(self) -> None:
        """Clear MSHR event counters at the warmup/measurement boundary.

        ``stlb_miss_events`` is adaptive-controller *state* (the current
        window's sample), not a statistic, so it is left alone.
        """
        self.stlb_mshrs.reset_stats()

    # ------------------------------------------------------------------ #

    def _stlb_for(self, access_type: AccessType) -> TLB:
        if not self.split:
            return self.stlb
        return (
            self.stlb_instr if access_type is AccessType.INSTRUCTION else self.stlb_data
        )

    def translate(
        self, vaddr: int, access_type: AccessType, thread_id: int = 0
    ) -> TranslationResult:
        is_instr = access_type is _INSTRUCTION
        if is_instr:
            l1 = self.itlb
            stlb = self._stlb_i
            if self._chirp is not None:
                self._chirp.observe_fetch_page(vaddr >> PAGE_BITS)
        else:
            l1 = self.dtlb
            stlb = self._stlb_d

        entry = l1.lookup(vaddr, access_type)
        latency = 0
        if entry is None:
            latency = self._stlb_latency
            entry = stlb.lookup(vaddr, access_type)
            if entry is not None:
                l1.insert(vaddr, entry.pfn, entry.page_size, access_type)
                l1.record_miss(access_type, latency)
                self._account_translation(access_type, latency)
        result = self._result
        if entry is not None:
            pfn = entry.pfn
            if entry.page_size is _SIZE_2M:
                pfn += (vaddr >> PAGE_BITS) & 0x1FF
            result.pfn = pfn
            result.latency = latency
            result.stlb_miss = False
            return result

        # STLB miss: allocate the typed MSHR entry (Figure 7, step 2) and walk.
        vpn = vaddr >> PAGE_BITS
        self.stlb_mshrs.allocate(vpn, RequestType.PTW, is_pte=True, translation_type=access_type)
        # The walker's result is rewritten by the prefetch walks below, so
        # read it now.
        walk = self.walker.walk(vaddr, access_type, thread_id)
        walk_latency = walk.latency
        pfn = walk.pfn
        page_size = walk.page_size
        latency += walk_latency
        mshr_entry = self.stlb_mshrs.release(vpn)
        insert_type = (
            mshr_entry.translation_type if mshr_entry is not None else access_type
        )

        # TLB entries for 2 MB pages store the base pfn of the whole page so a
        # later hit at any offset composes the right frame (the walk reports
        # the covering 4 KB frame of this particular vaddr).
        stored_pfn = pfn
        if page_size is _SIZE_2M:
            stored_pfn -= vpn & 0x1FF
        stlb.insert(vaddr, stored_pfn, page_size, insert_type)
        stlb.record_miss(access_type, walk_latency)
        l1.insert(vaddr, stored_pfn, page_size, access_type)
        l1.record_miss(access_type, latency)
        self.stlb_miss_events += 1
        self._account_translation(access_type, latency)
        if self.prefetcher is not None:
            self._stlb_prefetch(vpn, access_type, thread_id)
        result.pfn = pfn
        result.latency = latency
        result.stlb_miss = True
        return result

    def _stlb_prefetch(self, miss_vpn: int, access_type: AccessType, thread_id: int) -> None:
        """Section 7 extension: translation prefetching into the STLB.

        Prefetch walks go through the cache hierarchy (real bandwidth) but
        add no latency to the demand miss.  Prefetched entries are inserted
        through the STLB's normal insertion policy, so iTP treats them like
        any other translation of their type.
        """
        stlb = self._stlb_for(access_type)
        for vpn in self.prefetcher.on_stlb_miss(miss_vpn, access_type):
            if vpn < 0:
                continue
            vaddr = vpn << PAGE_BITS
            if stlb.probe(vaddr):
                continue
            walk = self.walker.walk(vaddr, access_type, thread_id, prefetch=True)
            stored_pfn = walk.pfn
            if walk.page_size is _SIZE_2M:
                stored_pfn -= vpn & 0x1FF
            stlb.insert(vaddr, stored_pfn, walk.page_size, access_type)
            self.stats.bump("stlb.prefetch_fills")

    def _account_translation(self, access_type: AccessType, latency: int) -> None:
        self.stats.bump(
            _TRANSLATION_CYCLES_INSTR
            if access_type is _INSTRUCTION
            else _TRANSLATION_CYCLES_DATA,
            latency,
        )

    def take_stlb_miss_events(self) -> int:
        """Read-and-reset the window miss counter for the adaptive switch."""
        events = self.stlb_miss_events
        self.stlb_miss_events = 0
        return events
