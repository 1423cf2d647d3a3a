"""Simplified core timing model (DESIGN.md §4).

Each trace record is a fetch group of ``num_instrs`` instructions from one
L1I line.  The cycle cost of a record is:

* a base pipeline cost (``num_instrs * base_cpi``);
* the *full* front-end stall: instruction translation latency beyond an
  ITLB hit plus the un-hidden part of the L1I miss latency — instruction
  references are on the critical path of the pipeline (Section 3.2), so
  nothing hides them except the decoupled front end's prefetching;
* the *partially hidden* data stall: per memory operation, translation +
  cache latency is filtered through an overlap model in which the ROB
  hides short latencies entirely and a fraction of long ones.

This asymmetry — instruction stalls full price, data stalls discounted —
is the paper's central premise and what makes trading data STLB misses for
instruction STLB hits profitable.

Hot-path notes: model parameters and structure references are bound to
instance fields at construction, and each core owns one reusable fetch
request and one reusable data request whose scalar fields are rewritten per
reference (the hierarchy is synchronous, so a request is never live after
its ``access`` call returns).
"""

from __future__ import annotations

from ..common.types import AccessType, MemoryRequest, PAGE_BITS, RequestType, TraceRecord
from .system import System

#: High-bit tag separating SMT thread address spaces (above the 45-bit VPN).
THREAD_TAG_SHIFT = 58

_INSTRUCTION = AccessType.INSTRUCTION
_DATA = AccessType.DATA
_LOAD = RequestType.LOAD
_STORE = RequestType.STORE


class Core:
    """Executes trace records against a :class:`System` and returns cycles.

    The core's own structures (MMU, L1s, adaptive controller) come from
    ``system.cores[slice_index]``; config, stats and DRAM are the machine's.
    """

    def __init__(self, system: System, thread_id: int = 0, slice_index: int = 0) -> None:
        self.system = system
        self.slice = hw = system.cores[slice_index]
        self.thread_id = thread_id
        self.cfg = system.config.core
        self._l1i_latency = system.config.l1i.latency
        self._l1d_latency = system.config.l1d.latency
        self._offset_mask = (1 << PAGE_BITS) - 1
        self._thread_tag = thread_id << THREAD_TAG_SHIFT
        # Hot-path bindings (the wiring never changes after construction).
        cfg = self.cfg
        self._base_cpi = cfg.base_cpi
        self._rob_hide_cycles = cfg.rob_hide_cycles
        self._data_overlap_factor = cfg.data_overlap_factor
        self._store_overlap_scale = cfg.store_overlap_scale
        self._fdip_keep = 1.0 - cfg.fdip_hide_factor
        self._fetch_resteer_penalty = cfg.fetch_resteer_penalty
        # Reusable request objects (one in flight at a time each).
        self._fetch_req = MemoryRequest(
            address=0, req_type=RequestType.IFETCH, thread_id=thread_id
        )
        self._data_req = MemoryRequest(
            address=0, req_type=_LOAD, thread_id=thread_id
        )
        # Structure bindings (System wiring is fixed, and SimStats/stats
        # objects survive reset_stats() as the same instances).
        self._translate = hw.mmu.translate
        self._l1i_access = hw.l1i.access
        self._l1d_access = hw.l1d.access
        self._stats = system.stats
        self._adaptive_on_instructions = hw.adaptive.on_instructions
        self._dram_note_instructions = system.dram.note_instructions

    # ------------------------------------------------------------------ #

    def _data_access(self, vaddr: int, pc: int, is_store: bool) -> float:
        """One load or store; returns the data-side latency the ROB cannot hide."""
        tr = self._translate(vaddr, _DATA, self.thread_id)
        req = self._data_req
        req.address = (tr.pfn << PAGE_BITS) | (vaddr & self._offset_mask)
        req.req_type = _STORE if is_store else _LOAD
        req.pc = pc
        req.stlb_miss = tr.stlb_miss
        extra = self._l1d_access(req) - self._l1d_latency
        total = tr.latency + extra if extra > 0 else tr.latency
        exposed = total - self._rob_hide_cycles
        if exposed <= 0:
            return 0.0
        stall = exposed * self._data_overlap_factor
        if is_store:
            stall *= self._store_overlap_scale
        return stall

    # ------------------------------------------------------------------ #

    def execute(self, record: TraceRecord) -> float:
        """Run one fetch group; returns its cycle cost and updates stats."""
        thread_id = self.thread_id
        pc = record.pc | self._thread_tag

        # Front end: translate the fetch address, then fetch the line.
        tr = self._translate(pc, _INSTRUCTION, thread_id)
        req = self._fetch_req
        req.address = (tr.pfn << PAGE_BITS) | (pc & self._offset_mask)
        req.pc = pc
        req.stlb_miss = tr.stlb_miss
        icache_extra = self._l1i_access(req) - self._l1i_latency
        icache_stall = icache_extra * self._fdip_keep if icache_extra > 0 else 0.0
        front_stall = tr.latency + icache_stall
        if tr.stlb_miss:
            front_stall += self._fetch_resteer_penalty

        data_stall = 0.0
        loads = record.loads
        if loads:
            thread_tag = self._thread_tag
            for vaddr in loads:
                data_stall += self._data_access(vaddr | thread_tag, pc, is_store=False)
        stores = record.stores
        if stores:
            thread_tag = self._thread_tag
            for vaddr in stores:
                data_stall += self._data_access(vaddr | thread_tag, pc, is_store=True)

        num_instrs = record.num_instrs
        cycles = num_instrs * self._base_cpi + front_stall + data_stall

        stats = self._stats
        stats.instructions += num_instrs
        per_thread = stats.per_thread_instructions
        per_thread[thread_id] = per_thread.get(thread_id, 0) + num_instrs
        stats.front_stall_cycles += int(front_stall)
        self._adaptive_on_instructions(num_instrs)
        self._dram_note_instructions(num_instrs)
        return cycles
