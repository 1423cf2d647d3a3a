"""Set-associative cache level with MSHRs, writebacks and prefetch support.

The hierarchy is non-inclusive and synchronous: a miss recursively accesses
the next level within the same call and the returned latency is the demand
latency of this access.  The xPTP ``Type`` dataflow of Figure 7 is modelled
exactly: a missing page-walk reference allocates an MSHR entry carrying
``is_pte``/``translation_type``, and when the fill completes the bits are
written back into the installed :class:`CacheLine`.

Hot-path notes: geometry is reduced to two shifts and a mask at
construction (``line_bytes`` and the set count must be powers of two), the
four-category stats counters are incremented inline instead of through
:meth:`LevelStats.record_access`, and the writeback/prefetch requests a
level originates are single reusable :class:`MemoryRequest` objects — safe
because the hierarchy is synchronous and strictly layered, so a level's own
request can never be in flight twice.
"""

from __future__ import annotations

from typing import List, Optional, Protocol

from ..common.params import CacheConfig
from ..common.stats import LevelStats
from ..common.types import AccessType, MemoryRequest, RequestType
from ..replacement.base import CacheReplacementPolicy
from ..replacement.drrip import DRRIPPolicy
from ..replacement.lru import LRUPolicy
from .line import CacheLine
from .mshr import make_mshr_file

_IFETCH = RequestType.IFETCH
_STORE = RequestType.STORE
_PREFETCH = RequestType.PREFETCH
_WRITEBACK = RequestType.WRITEBACK
_DATA = AccessType.DATA


class MemoryLevel(Protocol):
    """Anything a cache can forward misses to (another cache or DRAM)."""

    def access(self, req: MemoryRequest) -> int: ...


class SetAssociativeCache:
    """One cache level (L1I, L1D, L2C or LLC)."""

    def __init__(
        self,
        config: CacheConfig,
        policy: CacheReplacementPolicy,
        next_level: MemoryLevel,
        stats: LevelStats,
        prefetcher: Optional["Prefetcher"] = None,
    ) -> None:
        if policy.num_sets != config.num_sets or policy.associativity != config.associativity:
            raise ValueError(
                f"{config.name}: policy geometry {policy.num_sets}x{policy.associativity} "
                f"does not match cache {config.num_sets}x{config.associativity}"
            )
        if config.line_bytes <= 0 or config.line_bytes & (config.line_bytes - 1):
            raise ValueError(
                f"{config.name}: line size {config.line_bytes} is not a power of two"
            )
        self.config = config
        self.policy = policy
        self._next_level = next_level
        self._next_access = next_level.access
        self.stats = stats
        self.prefetcher = prefetcher
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        #: Byte-address -> line-address shift, derived from the configured
        #: line size (prefetchers attached to this cache use it too).
        self.line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # num_sets is validated as a power of two by CacheConfig, so the
        # tag division is an arithmetic shift.
        self._set_shift = self.num_sets.bit_length() - 1
        self.sets: List[List[CacheLine]] = [
            [CacheLine() for _ in range(self.associativity)] for _ in range(self.num_sets)
        ]
        # Per-set tag->way map for O(1) lookup.  Invariant: a tag is present
        # iff the mapped way holds a valid line, so a full map means no
        # invalid way exists and the fill path can skip the scan.
        self._tag_maps: List[dict] = [dict() for _ in range(self.num_sets)]
        # Swapped for the shadow-checked variant under REPRO_CHECK=1.
        self.mshrs = make_mshr_file(config.mshr_entries)
        # DRRIP needs a per-miss callback; resolve the isinstance check once.
        self._drrip_record_miss = (
            policy.record_miss if isinstance(policy, DRRIPPolicy) else None
        )
        # Hot-path bindings: the wiring (policy, prefetcher) and the hit
        # latency never change after construction; next_level may be rewired
        # through a probe, which its property setter handles.
        self._latency = config.latency
        self._on_hit = policy.on_hit
        self._on_fill = policy.on_fill
        self._victim = policy.victim
        self._on_evict = policy.on_evict
        # A policy that keeps LRU's own recency hooks has its stacks moved
        # here directly: a hit touches, a fill places at MRU (the eviction's
        # discard is folded into that placement), and when the victim is
        # LRU's own too it is read off the stack.  A subclass overriding
        # any hook keeps it; xPTP and PTP keep their victim choice.
        cls = type(policy)
        fused = (
            cls.on_hit is LRUPolicy.on_hit
            and cls.on_fill is LRUPolicy.on_fill
            and cls.on_evict is LRUPolicy.on_evict
        )
        self._stacks = policy.stacks if fused else None
        self._lru_victim = fused and cls.victim is LRUPolicy.victim
        self._pf_on_access = prefetcher.on_access if prefetcher is not None else None
        # Reusable request objects for traffic this level originates (see
        # module docstring for the safety argument).
        self._wb_req = MemoryRequest(address=0, req_type=_WRITEBACK)
        self._pf_req = MemoryRequest(address=0, req_type=_PREFETCH)

    @property
    def next_level(self) -> MemoryLevel:
        return self._next_level

    @next_level.setter
    def next_level(self, level: MemoryLevel) -> None:
        """Rewire the downstream level (analysis probes insert themselves)."""
        self._next_level = level
        self._next_access = level.access

    def reset_stats(self) -> None:
        """Clear counters that sit outside :class:`LevelStats` (MSHRs, policy)."""
        self.mshrs.reset_stats()
        reset = getattr(self.policy, "reset_stats", None)
        if reset is not None:
            reset()

    # ------------------------------------------------------------------ #
    # Lookup helpers
    # ------------------------------------------------------------------ #

    def probe(self, address: int) -> bool:
        """Non-intrusive presence check (no state update)."""
        line_address = address >> self.line_shift
        set_index = line_address & self._set_mask
        tag = line_address >> self._set_shift
        return tag in self._tag_maps[set_index]

    # ------------------------------------------------------------------ #
    # Demand path
    # ------------------------------------------------------------------ #

    def access(self, req: MemoryRequest) -> int:
        """Demand access; returns the total latency observed by the requester."""
        req_type = req.req_type
        if req_type is _WRITEBACK:
            self._handle_writeback(req)
            return 0
        line_address = req.address >> self.line_shift
        set_index = line_address & self._set_mask
        tag = line_address >> self._set_shift
        if req_type is _PREFETCH:
            # Prefetch-through: the block is fetched for the requesting
            # level but not allocated here, so upper-level prefetch streams
            # (FDIP, L1D next-line) do not pollute the L2C/LLC.  A level
            # allocates only the prefetches its *own* prefetcher issues
            # (via :meth:`prefetch`).  Prefetch traffic is counted apart so
            # demand MPKI figures match the paper's accounting.
            self.stats.prefetch_requests += 1
            if tag not in self._tag_maps[set_index]:
                self._next_access(req)
            return self._latency
        way = self._tag_maps[set_index].get(tag)
        if req.is_pte:
            category = "dt" if req.translation_type is _DATA else "it"
        elif req_type is _IFETCH:
            category = "i"
        else:
            category = "d"
        stats = self.stats
        latency = self._latency

        if way is not None:
            lines = self.sets[set_index]
            line = lines[way]
            if req.is_pte:
                self._strengthen_type(line, req)
            if req_type is _STORE:
                line.dirty = True
            if line.prefetched:
                line.prefetched = False
                stats.prefetch_hits += 1
            stacks = self._stacks
            if stacks is not None:
                stacks[set_index].touch(way)
            else:
                self._on_hit(set_index, way, lines, req)
            stats.accesses += 1
            stats.hits += 1
            stats.cat_accesses[category] += 1
            pf = self._pf_on_access
            if pf is not None:
                pf(self, req, hit=True)
            return latency

        # Miss path -------------------------------------------------------
        mshrs = self.mshrs
        latency += mshrs.structural_penalty()
        mshrs.allocate(line_address, req_type, req.is_pte, req.translation_type)
        if self._drrip_record_miss is not None:
            self._drrip_record_miss(set_index)
        latency += self._next_access(req)
        entry = mshrs.release(line_address)
        self._fill(set_index, tag, req, entry)
        stats.accesses += 1
        stats.misses += 1
        stats.miss_latency_sum += latency
        stats.cat_accesses[category] += 1
        stats.cat_misses[category] += 1
        pf = self._pf_on_access
        if pf is not None:
            pf(self, req, hit=False)
        return latency

    # ------------------------------------------------------------------ #
    # Fill (the one allocation step: demand miss, prefetch, writeback)
    # ------------------------------------------------------------------ #

    def _fill(self, set_index: int, tag: int, req: MemoryRequest, mshr_entry) -> CacheLine:
        """Install ``tag`` in ``set_index`` and return its line.

        Takes the first invalid way, else evicts the victim inline (stats,
        tag map, dirty writeback); every line field the old block held is
        then overwritten, so the victim needs no separate reset.
        """
        lines = self.sets[set_index]
        tag_map = self._tag_maps[set_index]
        stacks = self._stacks
        if len(tag_map) < self.associativity:
            # The tag map holds exactly the valid ways, so one is invalid.
            way = 0
            while lines[way].valid:
                way += 1
            line = lines[way]
        else:
            if self._lru_victim:
                way = stacks[set_index].lru_way
            else:
                way = self._victim(set_index, lines, req)
            line = lines[way]
            stats = self.stats
            stats.evictions += 1
            if stacks is None:
                self._on_evict(set_index, way, lines)
            del tag_map[line.tag]
            if line.dirty:
                stats.writebacks += 1
                wb = self._wb_req
                wb.address = ((line.tag << self._set_shift) + set_index) << self.line_shift
                wb.is_pte = line.is_pte
                wb.translation_type = line.translation_type
                self._next_access(wb)
        line.valid = True
        line.tag = tag
        line.dirty = req.req_type is _STORE
        line.prefetched = req.req_type is _PREFETCH
        # Figure 7 step 3.1: the Type bit travels through the MSHR and is
        # written back into the block on fill.
        if mshr_entry is not None and mshr_entry.is_pte:
            line.is_pte = True
            line.translation_type = mshr_entry.translation_type
        else:
            line.is_pte = req.is_pte
            line.translation_type = req.translation_type if req.is_pte else None
        tag_map[tag] = way
        if stacks is not None:
            stacks[set_index].place_at_depth(way, 0)
        else:
            self._on_fill(set_index, way, lines, req)
        return line

    def _handle_writeback(self, req: MemoryRequest) -> None:
        """Absorb a writeback from the level above (write-allocate)."""
        line_address = req.address >> self.line_shift
        set_index = line_address & self._set_mask
        tag = line_address >> self._set_shift
        way = self._tag_maps[set_index].get(tag)
        if way is not None:
            line = self.sets[set_index][way]
            line.dirty = True
            self._strengthen_type(line, req)
            return
        # _fill marks dirty only for STORE; writebacks are dirty by definition.
        self._fill(set_index, tag, req, None).dirty = True

    @staticmethod
    def _strengthen_type(line: CacheLine, req: MemoryRequest) -> None:
        """Once a block is known to hold (data) PTEs, the information sticks."""
        if req.is_pte:
            line.is_pte = True
            if line.translation_type is None:
                line.translation_type = req.translation_type
            elif req.translation_type is _DATA:
                line.translation_type = _DATA

    # ------------------------------------------------------------------ #
    # Prefetch path
    # ------------------------------------------------------------------ #

    def prefetch(self, line_address: int, pc: int = 0) -> None:
        """Bring ``line_address`` into this level off the demand path."""
        set_index = line_address & self._set_mask
        tag = line_address >> self._set_shift
        if tag in self._tag_maps[set_index]:
            return
        req = self._pf_req
        req.address = line_address << self.line_shift
        req.pc = pc
        self._next_access(req)
        self._fill(set_index, tag, req, None)
        self.stats.prefetch_fills += 1

    # ------------------------------------------------------------------ #
    # Introspection (tests, experiments)
    # ------------------------------------------------------------------ #

    def occupancy(self) -> int:
        return sum(len(m) for m in self._tag_maps)

    def data_pte_blocks(self) -> int:
        return sum(
            1 for s in self.sets for line in s if line.valid and line.is_data_pte
        )
