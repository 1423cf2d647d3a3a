"""Block-batched execution engine, differential-locked to the scalar spec.

The scalar path (``Core.execute`` → ``MMU.translate`` → cache ``access``)
pays full Python dispatch per record even when nothing interesting happens.
On the server workloads the overwhelming majority of records fully hit in
the first-level structures, where the only architectural effects are
recency bumps, hit counters, and prefetcher window advances.  This engine
exploits that:

1. **Block pull + precompute.**  Records are pulled from the trace stream
   in blocks (:data:`BLOCK_RECORDS`) and the derived per-record indices —
   tagged PC, 4 KB VPN, instruction counts, base cycle cost — are
   precomputed as flat arrays.

2. **Probe, then one hit tier or the scalar fallback.**  For each record,
   a side-effect-free *probe* decides whether every structure hits:

   * **hit tier** — every ITLB/L1I/DTLB/L1D probe hits.  Hit counters are
     accumulated locally, recency is touched in place, and window
     bookkeeping (adaptive controller, DRAM bandwidth window) is kept in
     locals with provably identical arithmetic.  When a prefetcher would
     issue (on sequential code the FDIP window advances one line per
     record, so this carries streaming fetch), the record still takes
     this tier and is counted in ``issue_records`` rather than
     ``fast_records``.  FDIP issues are replayed by a hand-inlined
     equivalent of ``cache.prefetch``: the prefetch-through recursion at
     L2C/LLC/DRAM touches no replacement policy, prefetcher, MSHR or
     adaptive state — only tag probes and counters — and the L1I fill
     itself runs under the engine's pinned exact-LRU policy, so the
     inline replay is bit-identical by construction.  Next-line (L1D)
     issues go through the real ``Prefetcher.on_access`` hook after the
     instruction count is committed.
   * **scalar fallback** — anything else (any miss, or a machine whose L1
     policies/prefetchers are not the exact baseline types).  Local
     state is committed and the untouched record runs through
     ``Core.execute``; all Figure 5/6/7 semantics live only there.

Bit-identity notes (each is load-bearing; see tests/test_kernel_diff.py):

* cycles accumulate per record in stream order; a full-hit record costs
  exactly ``num_instrs * base_cpi`` (front and data stalls are ``0.0`` by
  the overlap model), so the float sum matches the scalar loop bit-for-bit;
* probes never mutate, and hits never change set membership, so deciding
  whole-record eligibility before applying any effect cannot diverge;
* statistics counters are pure accumulators (nothing reads them before a
  quiescent point), so they are summed in locals for the whole block and
  committed once — even across scalar fallbacks, because integer addition
  commutes;
* recency is touched at hit time, in the spec's order, through the same
  ``RecencyStack.touch`` the policies call (a touch of the way that is
  already MRU costs one comparison there, so nothing is skipped here);
* the DRAM bandwidth window is replayed inline per record with the exact
  ``note_instructions`` arithmetic; ``_window_accesses`` and
  ``_queue_delay`` are kept live on the DRAM object (inline prefetches
  bump the access count eagerly) and only ``_window_instructions`` is
  carried in a local, written back before any scalar fallback;
* the adaptive controller carries window overshoot, so one aggregate
  ``on_instructions`` call per commit closes windows at the same
  instruction boundaries with the same STLB-miss samples (misses only
  arise in scalar fallbacks and data re-runs, both of which commit
  first);
* CHiRP's history register dedups consecutive same-page observations, so
  the engine skips the call while the fetch page is unchanged; FDIP's
  last-line register is kept in a local and synchronised around every
  scalar fallback;
* the FDIP window spans ``depth`` *consecutive* lines, which map to
  ``depth`` *distinct* L1I sets whenever ``depth < num_sets``; a window
  fill therefore never evicts another window line, so after a sequential
  hit record lines ``la+1 .. la+depth`` are all resident and the next
  sequential record only needs to probe the one newly exposed target
  (``seq_clean`` induction);
* L1I lines are never dirty (only stores set the dirty bit and the L1I
  serves fetches exclusively), so inline L1I fills never write back; the
  engine still peeks the victim and defers to the real machinery if the
  invariant were ever broken;
* an L1D prefetch fill can evict a line a *later* memory op of the same
  record needs (the hierarchy is non-inclusive, so that is the only
  cross-structure hazard); once any L1D-mutating call has run, each
  remaining memop re-probes at apply time and routes through the real
  ``Core._data_access`` if its line disappeared.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Iterator, List, Tuple, Union

from ..cache.cache import SetAssociativeCache
from ..cache.prefetch.fdip import FDIPPrefetcher
from ..cache.prefetch.next_line import NextLinePrefetcher
from ..common.types import LARGE_PAGE_BITS, PAGE_BITS, PageSize, RequestType, TraceRecord
from ..mem.dram import _FREE_RATE, _MAX_PRESSURE, DRAM
from ..replacement.lru import LRUPolicy
from ..tlb.policies.lru import TLBLRUPolicy
from .scalar import _NO_LIMIT, ScalarEngine

if TYPE_CHECKING:  # pragma: no cover
    from ..core.cpu import Core
    from ..core.system import System

_SIZE_2M = PageSize.SIZE_2M
_PAGE_OFFSET_MASK = (1 << PAGE_BITS) - 1
_LOAD = RequestType.LOAD
_STORE = RequestType.STORE

#: Records pulled (and precomputed) per block.
BLOCK_RECORDS = 4096


class BatchedEngine:
    """Drives one :class:`Core` through its stream in precomputed blocks.

    The engine is bit-identical to the scalar loop by construction (see the
    module docstring); ``fast_records`` (hit records no prefetcher issued
    for), ``issue_records`` (hit records that issued) and ``total_records``
    expose fast-path coverage (perfbench's ``kernel.*_frac``) without
    touching :class:`~repro.common.stats.SimStats`.
    """

    __slots__ = (
        "fast_records", "issue_records", "total_records",
        "_stream", "_execute", "_stats", "_scalar",
        "_ttag", "_thread_id", "_base_cpi",
        "_chirp_observe", "_adaptive_on",
        "_core_data", "_data_req",
        "_itlb_km", "_itlb_sets", "_itlb_mask", "_itlb_stacks", "_itlb_stats",
        "_dtlb_km", "_dtlb_sets", "_dtlb_mask", "_dtlb_stacks", "_dtlb_stats",
        "_l1i", "_l1i_tm", "_l1i_sets", "_l1i_smask", "_l1i_sshift",
        "_l1i_lshift", "_l1i_pshift", "_l1i_stacks", "_l1i_stats", "_l1i_assoc",
        "_l1d", "_l1d_tm", "_l1d_sets", "_l1d_smask", "_l1d_sshift",
        "_l1d_lshift", "_l1d_pshift", "_l1d_stacks", "_l1d_stats",
        "_fdip", "_fdip_depth", "_fdip_seq_ok", "_nl", "_nl_degree",
        "_pf_inline", "_l2_tm", "_l2_smask", "_l2_sshift", "_l2_stats",
        "_llc_tm", "_llc_smask", "_llc_sshift", "_llc_stats",
        "_dram", "_dram_stats", "_contention",
        "_blk", "_idx",
        "_pcs", "_vpns", "_npis", "_cycs",
        "_scratch",
    )

    def __init__(
        self, system: "System", core: "Core", stream: Iterator[TraceRecord]
    ) -> None:
        self._stream = stream
        self._execute = core.execute
        self._stats = system.stats
        self.fast_records = 0
        self.issue_records = 0
        self.total_records = 0

        self._ttag = core._thread_tag
        self._thread_id = core.thread_id
        self._base_cpi = system.config.core.base_cpi
        self._core_data = core._data_access
        # Borrow the core's reusable data request for the next-line
        # on_access calls; the hierarchy is synchronous, so it is
        # never live outside the call it was rewritten for.
        self._data_req = core._data_req

        hw = core.slice
        mmu = hw.mmu
        itlb, dtlb = mmu.itlb, mmu.dtlb
        l1i, l1d = hw.l1i, hw.l1d
        self._itlb_km = itlb._key_maps
        self._itlb_sets = itlb.sets
        self._itlb_mask = itlb._set_mask
        self._itlb_stats = itlb.stats
        self._dtlb_km = dtlb._key_maps
        self._dtlb_sets = dtlb.sets
        self._dtlb_mask = dtlb._set_mask
        self._dtlb_stats = dtlb.stats
        self._l1i = l1i
        self._l1i_tm = l1i._tag_maps
        self._l1i_sets = l1i.sets
        self._l1i_smask = l1i._set_mask
        self._l1i_sshift = l1i._set_shift
        self._l1i_lshift = l1i.line_shift
        self._l1i_pshift = PAGE_BITS - l1i.line_shift
        self._l1i_stats = l1i.stats
        self._l1i_assoc = l1i.associativity
        self._l1d = l1d
        self._l1d_tm = l1d._tag_maps
        self._l1d_sets = l1d.sets
        self._l1d_smask = l1d._set_mask
        self._l1d_sshift = l1d._set_shift
        self._l1d_lshift = l1d.line_shift
        self._l1d_pshift = PAGE_BITS - l1d.line_shift
        self._l1d_stats = l1d.stats

        chirp = mmu._chirp
        self._chirp_observe = (
            chirp.observe_fetch_page if chirp is not None else None
        )
        self._adaptive_on = hw.adaptive.on_instructions
        dram = system.dram
        self._dram = dram
        self._dram_stats = dram.stats
        self._contention = dram.config.contention_cycles

        fdip = l1i.prefetcher
        nl = l1d.prefetcher
        self._fdip = fdip if type(fdip) is FDIPPrefetcher else None
        self._fdip_depth = fdip.depth if type(fdip) is FDIPPrefetcher else 0
        self._nl = nl if type(nl) is NextLinePrefetcher else None
        self._nl_degree = nl.degree if type(nl) is NextLinePrefetcher else 0
        # seq_clean induction needs the window to span distinct L1I sets.
        self._fdip_seq_ok = 0 < self._fdip_depth < l1i.num_sets

        # The hit tier replays only the exact baseline L1 behaviours: LRU
        # recency bumps and the baseline prefetcher windows.  Any other
        # policy/prefetcher type — subclasses included — runs whole-run
        # scalar (on a ScalarEngine), as does a topology whose L1 hit
        # latency exceeds the Table 1 figure the core's stall model subtracts.
        fast_ok = (
            type(itlb.policy) is TLBLRUPolicy
            and type(dtlb.policy) is TLBLRUPolicy
            and type(l1i.policy) is LRUPolicy
            and type(l1d.policy) is LRUPolicy
            and (fdip is None or type(fdip) is FDIPPrefetcher)
            and (nl is None or type(nl) is NextLinePrefetcher)
            and l1i.config.latency <= system.config.l1i.latency
            and l1d.config.latency <= system.config.l1d.latency
        )
        if not fast_ok:
            self._scalar = ScalarEngine(system.stats, [core], [stream])
            return
        self._scalar = None
        self._itlb_stacks = itlb.policy.stacks
        self._dtlb_stacks = dtlb.policy.stacks
        self._l1i_stacks = l1i.policy.stacks
        self._l1d_stacks = l1d.policy.stacks

        # Inline-prefetch eligibility for FDIP issues: the L1I must sit on
        # the plain L2C → LLC → DRAM chain (no analysis probes rewiring
        # next_level), all three cache levels must share one line size (so
        # line addresses transfer), and the DRAM must be the flat model
        # (the row-buffer model mutates open-row state per access).  When
        # the chain does not qualify, records that would issue an FDIP
        # prefetch simply run scalar.
        self._pf_inline = False
        self._l2_tm = self._llc_tm = ()
        self._l2_smask = self._llc_smask = 0
        self._l2_sshift = self._llc_sshift = 0
        self._l2_stats = self._llc_stats = None
        l2 = l1i.next_level
        if type(l2) is SetAssociativeCache:
            llc = l2.next_level
            if (
                type(llc) is SetAssociativeCache
                and llc.next_level is dram
                and type(dram) is DRAM
                and not dram.config.row_buffer
                and l2.line_shift == self._l1i_lshift
                and llc.line_shift == self._l1i_lshift
            ):
                self._pf_inline = True
                self._l2_tm = l2._tag_maps
                self._l2_smask = l2._set_mask
                self._l2_sshift = l2._set_shift
                self._l2_stats = l2.stats
                self._llc_tm = llc._tag_maps
                self._llc_smask = llc._set_mask
                self._llc_sshift = llc._set_shift
                self._llc_stats = llc.stats

        # Current block and its precomputed index arrays.
        self._blk: List[TraceRecord] = []
        self._idx = 0
        self._pcs: List[int] = []
        self._vpns: List[int] = []
        self._npis: List[int] = []
        self._cycs: List[float] = []
        # Per-record probe results for the current record's memory ops:
        # (dtlb_set, dtlb_way, l1d_set, l1d_way, line_addr, tagged_vaddr,
        #  is_store, nl_targets_resident).
        self._scratch: List[Tuple[int, int, int, int, int, int, bool, bool]] = []

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #

    @property
    def fast_path_coverage(self) -> float:
        """Fraction of processed records resolved above the scalar tier."""
        if self.total_records == 0:
            return 0.0
        return (self.fast_records + self.issue_records) / self.total_records

    def reset_stats(self) -> None:
        """Clear the coverage counters ``fast_records``, ``issue_records``
        and ``total_records``; a session calls this at every warmup
        boundary, so coverage always describes the measured window."""
        self.fast_records = 0
        self.issue_records = 0
        self.total_records = 0
        if self._scalar is not None:
            self._scalar.reset_stats()

    def run_until(self, instruction_limit: Union[int, float]) -> float:
        """Execute records until ``stats.instructions >= instruction_limit``.

        Mirrors the scalar driver loop: the limit is checked *before* each
        record, so a multi-instruction record can carry the count past the
        limit and the next call (after ``reset_stats``) resumes with the
        first unexecuted record — blocks split exactly at the boundary.
        Returns the cycles accumulated by this call, in stream order.
        """
        return self._run(instruction_limit, _NO_LIMIT)

    def run_records(self, record_count: int) -> float:
        """Execute exactly ``record_count`` records; returns the cycles they
        cost, in stream order."""
        return self._run(_NO_LIMIT, record_count)

    def _run(self, limit: Union[int, float], records: Union[int, float]) -> float:
        scalar = self._scalar
        if scalar is not None:
            cycles = scalar._run(limit, records)
            self.total_records = scalar.total_records
            return cycles
        stats = self._stats
        cycles = 0.0
        while records > 0 and stats.instructions < limit:
            if self._idx >= len(self._blk):
                self._pull_block()
                if not self._blk:
                    raise StopIteration
            start = self._idx
            cycles = self._run_block(limit, min(len(self._blk), start + records), cycles)
            records -= self._idx - start
        return cycles

    # ------------------------------------------------------------------ #
    # Block pull + precompute (cold relative to the per-record loop)
    # ------------------------------------------------------------------ #

    def _pull_block(self) -> None:
        """Pull up to :data:`BLOCK_RECORDS` records and precompute flat index
        arrays for the whole block.

        Pulling runs ahead of execution; workload streams are pure
        generators (execution-independent), so read-ahead is unobservable.
        """
        blk = self._blk
        blk.clear()
        blk.extend(islice(self._stream, BLOCK_RECORDS))
        ttag = self._ttag
        if ttag:
            pcs = [r.pc | ttag for r in blk]
        else:
            pcs = [r.pc for r in blk]
        base_cpi = self._base_cpi
        npis = [r.num_instrs for r in blk]
        self._pcs = pcs
        self._vpns = [p >> PAGE_BITS for p in pcs]
        self._npis = npis
        self._cycs = [n * base_cpi for n in npis]
        self._idx = 0

    # ------------------------------------------------------------------ #
    # The batch loop (hot: see repro.lint manifest, RPR001)
    # ------------------------------------------------------------------ #

    def _run_block(
        self, limit: Union[int, float], end: int, cycles: float
    ) -> float:
        """Consume block records ``[idx, end)``; stop early at ``limit``.

        Probe-then-apply per record: the probe reads only the key/tag maps
        (no side effects) and decides between the hit tier and the scalar
        fallback.  Locally accumulated state is committed before any state
        the spec machinery reads is reachable (see the module docstring),
        and always before returning, so statistics and structure state are
        exact at every return point.
        """
        blk = self._blk
        pcs = self._pcs
        vpns = self._vpns
        npis = self._npis
        cycs = self._cycs

        itlb_km = self._itlb_km
        itlb_sets = self._itlb_sets
        itlb_mask = self._itlb_mask
        itlb_stacks = self._itlb_stacks
        dtlb_km = self._dtlb_km
        dtlb_sets = self._dtlb_sets
        dtlb_mask = self._dtlb_mask
        dtlb_stacks = self._dtlb_stacks
        l1d = self._l1d
        l1i_tm = self._l1i_tm
        l1i_sets = self._l1i_sets
        l1i_smask = self._l1i_smask
        l1i_sshift = self._l1i_sshift
        l1i_lshift = self._l1i_lshift
        l1i_pshift = self._l1i_pshift
        l1i_stacks = self._l1i_stacks
        l1i_stats = self._l1i_stats
        l1i_assoc = self._l1i_assoc
        l1d_tm = self._l1d_tm
        l1d_sets = self._l1d_sets
        l1d_smask = self._l1d_smask
        l1d_sshift = self._l1d_sshift
        l1d_lshift = self._l1d_lshift
        l1d_pshift = self._l1d_pshift
        l1d_stacks = self._l1d_stacks
        fdip = self._fdip
        fdip_depth = self._fdip_depth
        seq_allowed = self._fdip_seq_ok
        nl = self._nl
        nl_degree = self._nl_degree
        pf_inline = self._pf_inline
        l2_tm = self._l2_tm
        l2_smask = self._l2_smask
        l2_sshift = self._l2_sshift
        l2_stats = self._l2_stats
        llc_tm = self._llc_tm
        llc_smask = self._llc_smask
        llc_sshift = self._llc_sshift
        llc_stats = self._llc_stats
        dram = self._dram
        dram_stats = self._dram_stats
        dram_cat = dram_stats.cat_accesses
        contention = self._contention
        free_rate = _FREE_RATE
        max_pressure = _MAX_PRESSURE
        chirp_observe = self._chirp_observe
        execute = self._execute
        core_data = self._core_data
        data_req = self._data_req
        adaptive_on = self._adaptive_on
        stats = self._stats
        per_thread = stats.per_thread_instructions
        tid = self._thread_id
        ttag = self._ttag
        sc = self._scratch
        size_2m = _SIZE_2M
        offmask = _PAGE_OFFSET_MASK
        lp_bits = LARGE_PAGE_BITS
        load_rt = _LOAD
        store_rt = _STORE

        acc_it = acc_dt = acc_ci = acc_cd = 0
        pf_i = pf_d = 0
        acc_inst = 0
        # Fetch/data translation caches (valid while no scalar machinery
        # can mutate TLB state) and the CHiRP same-page dedup register.
        last_vpn = -1
        last_ts = last_tw = last_pfn = 0
        last_dvpn = -1
        last_dts = last_dtw = last_dpfn = 0
        chirp_last = -1
        seq_clean = False
        fast = 0
        issued = 0
        # Inline-prefetch statistics accumulators (write-only counters;
        # committed once at return — see the module docstring).
        l2_pf = llc_pf = dram_n = 0
        pf_fill = evict_n = 0
        instructions = stats.instructions
        fdip_last = fdip._last_line if fdip is not None else -2
        wi = dram._window_instructions

        i = self._idx
        start = i
        while i < end:
            if instructions >= limit:
                break
            rec = blk[i]
            pc = pcs[i]
            vpn = vpns[i]
            loads = rec.loads
            stores = rec.stores
            hit = False
            issue_i = False
            issue_d = False
            is_seq = False
            ts = tw = cs = cw = la = 0
            while True:  # single pass; break == decided
                # Fetch probe: ITLB (4K key, then 2M key), then L1I.
                if vpn == last_vpn:
                    ts = last_ts
                    tw = last_tw
                    pfn = last_pfn
                else:
                    ts = vpn & itlb_mask
                    tw = itlb_km[ts].get(vpn << 1)
                    if tw is None:
                        vpn2 = pc >> lp_bits
                        ts = vpn2 & itlb_mask
                        tw = itlb_km[ts].get((vpn2 << 1) | 1)
                        if tw is None:
                            break
                    entry = itlb_sets[ts][tw]
                    pfn = entry.pfn
                    if entry.page_size is size_2m:
                        pfn += vpn & 0x1FF
                    last_vpn = vpn
                    last_ts = ts
                    last_tw = tw
                    last_pfn = pfn
                la = (pfn << l1i_pshift) | ((pc & offmask) >> l1i_lshift)
                cs = la & l1i_smask
                cw = l1i_tm[cs].get(la >> l1i_sshift)
                if cw is None:
                    break
                # FDIP window: an absent probe target means the prefetcher
                # would issue.  After a sequential record, only the one
                # newly exposed line needs probing (seq_clean induction).
                is_seq = la == fdip_last + 1
                if fdip_depth:
                    if is_seq:
                        if seq_clean:
                            t = la + fdip_depth
                            if (t >> l1i_sshift) not in l1i_tm[t & l1i_smask]:
                                issue_i = True
                        else:
                            t = la + 1
                            tend = la + fdip_depth
                            while t <= tend:
                                if (t >> l1i_sshift) not in l1i_tm[t & l1i_smask]:
                                    issue_i = True
                                    break
                                t += 1
                    else:
                        t = la + 1
                        if (t >> l1i_sshift) not in l1i_tm[t & l1i_smask]:
                            issue_i = True
                    if issue_i and not pf_inline:
                        break
                # Data probes in scalar record order: loads, then stores.
                if loads or stores:
                    sc.clear()
                    nld = len(loads)
                    k = 0
                    for vaddr in loads + stores:
                        va = vaddr | ttag
                        dvpn = va >> 12
                        if dvpn == last_dvpn:
                            dts = last_dts
                            dtw = last_dtw
                            dpfn = last_dpfn
                        else:
                            dts = dvpn & dtlb_mask
                            dtw = dtlb_km[dts].get(dvpn << 1)
                            if dtw is None:
                                dvpn2 = va >> lp_bits
                                dts = dvpn2 & dtlb_mask
                                dtw = dtlb_km[dts].get((dvpn2 << 1) | 1)
                                if dtw is None:
                                    break
                            de = dtlb_sets[dts][dtw]
                            dpfn = de.pfn
                            if de.page_size is size_2m:
                                dpfn += dvpn & 0x1FF
                            last_dvpn = dvpn
                            last_dts = dts
                            last_dtw = dtw
                            last_dpfn = dpfn
                        dla = (dpfn << l1d_pshift) | ((va & offmask) >> l1d_lshift)
                        dcs = dla & l1d_smask
                        dcw = l1d_tm[dcs].get(dla >> l1d_sshift)
                        if dcw is None:
                            break
                        nl_ok = True
                        if nl_degree:
                            t2 = dla + 1
                            tend2 = dla + nl_degree
                            while t2 <= tend2:
                                if (t2 >> l1d_sshift) not in l1d_tm[t2 & l1d_smask]:
                                    nl_ok = False
                                    issue_d = True
                                    break
                                t2 += 1
                        # One scratch tuple per data access of a hit-tier
                        # record: the replay loop unpacks the eight fields
                        # together, and eight parallel appends would cost
                        # more calls than the tuple costs to build.
                        sc.append((dts, dtw, dcs, dcw, dla, va, k >= nld, nl_ok))  # repro: allow[RPR001]
                        k += 1
                    else:
                        hit = True
                    break
                hit = True
                break

            if hit:
                # ---- hit tier: touch in place, replay any issues -------- #
                if chirp_observe is not None and vpn != chirp_last:
                    chirp_observe(vpn)
                    chirp_last = vpn
                itlb_stacks[ts].touch(tw)
                acc_it += 1
                line = l1i_sets[cs][cw]
                if line.prefetched:
                    line.prefetched = False
                    pf_i += 1
                l1i_stacks[cs].touch(cw)
                acc_ci += 1
                if issue_i:
                    # FDIP issues: each absent window target is brought in
                    # by a hand-inlined ``prefetch`` → ``access`` prefetch-
                    # through chain (see the module docstring).
                    if is_seq:
                        tend = la + fdip_depth
                        t = tend if seq_clean else la + 1
                    else:
                        t = la + 1
                        tend = t
                    while t <= tend:
                        s2 = t & l1i_smask
                        tm = l1i_tm[s2]
                        tag = t >> l1i_sshift
                        if tag in tm:
                            t += 1
                            continue
                        tlines = l1i_sets[s2]
                        stk = l1i_stacks[s2]
                        if len(tm) < l1i_assoc:
                            way = 0
                            while tlines[way].valid:
                                way += 1
                            vline = tlines[way]
                        else:
                            way = stk.lru_way
                            vline = tlines[way]
                            if vline.dirty:
                                # Unreachable for an L1I (never written);
                                # defer to the real machinery rather than
                                # replicate the writeback path inline.
                                self._l1i.prefetch(t, pc)
                                t += 1
                                continue
                            evict_n += 1
                            stk.discard(way)
                            del tm[vline.tag]
                        # Prefetch-through recursion: L2C and LLC probe and
                        # count but do not allocate; DRAM counts the access
                        # (category "d") and bumps the live bandwidth
                        # window; every latency is discarded off-demand.
                        l2_pf += 1
                        if (t >> l2_sshift) not in l2_tm[t & l2_smask]:
                            llc_pf += 1
                            if (t >> llc_sshift) not in llc_tm[t & llc_smask]:
                                dram_n += 1
                                dram._window_accesses += 1
                        # L1I fill (LRU pinned): overwrites every line field,
                        # as ``SetAssociativeCache._fill`` does.
                        vline.valid = True
                        vline.tag = tag
                        vline.dirty = False
                        vline.prefetched = True
                        vline.is_pte = False
                        vline.translation_type = None
                        tm[tag] = way
                        stk.place_at_depth(way, 0)
                        pf_fill += 1
                        t += 1
                fdip_last = la
                data_stall = 0.0
                if loads or stores:
                    if issue_d:
                        # Next-line issues run through the real hook;
                        # STLB-miss events (data re-runs) and window
                        # arithmetic must see the committed instruction
                        # count first.
                        if acc_inst:
                            stats.instructions += acc_inst
                            per_thread[tid] = per_thread.get(tid, 0) + acc_inst
                            adaptive_on(acc_inst)
                            acc_inst = 0
                    clean = True
                    for dts, dtw, dcs, dcw, dla, va, is_st, nl_ok in sc:
                        if not clean:
                            # An earlier next-line fill may have evicted
                            # this op's line (or one of its targets):
                            # re-probe live state.
                            dcw2 = l1d_tm[dcs].get(dla >> l1d_sshift)
                            if dcw2 is None:
                                # Line gone: the op is a real miss now, so
                                # ``Core._data_access`` translates — touch
                                # included — and runs the miss machinery.
                                data_stall += core_data(va, pc, is_st)
                                last_dvpn = -1
                                continue
                            dcw = dcw2
                        dtlb_stacks[dts].touch(dtw)
                        acc_dt += 1
                        dline = l1d_sets[dcs][dcw]
                        if is_st:
                            dline.dirty = True
                        if dline.prefetched:
                            dline.prefetched = False
                            pf_d += 1
                        l1d_stacks[dcs].touch(dcw)
                        acc_cd += 1
                        if nl_ok and clean:
                            continue
                        # The hook probes live state itself, so calling it
                        # is exact whether or not targets remain absent.
                        req = data_req
                        req.address = dla << l1d_lshift
                        req.req_type = store_rt if is_st else load_rt
                        req.pc = pc
                        nl.on_access(l1d, req, True)
                        clean = False
                n = npis[i]
                instructions += n
                acc_inst += n
                wi += n
                if wi >= 1000:
                    # note_instructions arithmetic, verbatim (wi >= 1000).
                    rate = dram._window_accesses * 1000 // wi
                    excess = rate - free_rate
                    if excess < 0:
                        excess = 0
                    pressure = excess / free_rate
                    if pressure > max_pressure:
                        pressure = max_pressure
                    dram._queue_delay = int(contention * pressure)
                    dram._window_accesses = 0
                    wi = 0
                cycles += cycs[i] + data_stall
                if issue_i or issue_d:
                    issued += 1
                else:
                    fast += 1
                seq_clean = is_seq and seq_allowed
                i += 1
                continue

            # ---- scalar fallback: commit local state, run the spec ------ #
            if acc_inst:
                stats.instructions += acc_inst
                per_thread[tid] = per_thread.get(tid, 0) + acc_inst
                adaptive_on(acc_inst)
                acc_inst = 0
            dram._window_instructions = wi
            if fdip is not None:
                fdip._last_line = fdip_last
            cycles += execute(rec)
            instructions = stats.instructions
            wi = dram._window_instructions
            if fdip is not None:
                fdip_last = fdip._last_line
            last_vpn = -1
            last_dvpn = -1
            chirp_last = vpn
            seq_clean = False
            i += 1

        # ---- block epilogue: commit accumulators ------------------------ #
        if acc_inst:
            stats.instructions += acc_inst
            per_thread[tid] = per_thread.get(tid, 0) + acc_inst
            adaptive_on(acc_inst)
        dram._window_instructions = wi
        if fdip is not None:
            fdip._last_line = fdip_last
        if acc_it:
            itlb_stats = self._itlb_stats
            itlb_stats.accesses += acc_it
            itlb_stats.hits += acc_it
            itlb_stats.cat_accesses["i"] += acc_it
        if acc_dt:
            dtlb_stats = self._dtlb_stats
            dtlb_stats.accesses += acc_dt
            dtlb_stats.hits += acc_dt
            dtlb_stats.cat_accesses["d"] += acc_dt
        if acc_ci:
            l1i_stats.accesses += acc_ci
            l1i_stats.hits += acc_ci
            l1i_stats.cat_accesses["i"] += acc_ci
        if pf_i:
            l1i_stats.prefetch_hits += pf_i
        if acc_cd:
            l1d_stats = self._l1d_stats
            l1d_stats.accesses += acc_cd
            l1d_stats.hits += acc_cd
            l1d_stats.cat_accesses["d"] += acc_cd
        if pf_d:
            l1d_stats.prefetch_hits += pf_d
        if pf_fill:
            l1i_stats.prefetch_fills += pf_fill
        if evict_n:
            l1i_stats.evictions += evict_n
        if l2_pf:
            l2_stats.prefetch_requests += l2_pf
        if llc_pf:
            llc_stats.prefetch_requests += llc_pf
        if dram_n:
            dram_stats.accesses += dram_n
            dram_cat["d"] += dram_n
        self._idx = i
        self.fast_records += fast
        self.issue_records += issued
        self.total_records += i - start
        return cycles
