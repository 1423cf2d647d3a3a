"""Stateful protocol test: cache set + recency stack + replacement policy.

Drives one :class:`SetAssociativeCache` (LRU and xPTP variants) with
interleaved demand accesses, absorbed writebacks and ``reset_stats``
against a reference model: per-set MRU→LRU lists of (tag, dirty, Type-bit)
records plus the paper's victim rules.  After every rule the machine
asserts:

* residency, hit/miss outcome and demand latency match the model;
* the policy's recency-stack order is *identical* to the model order
  (the stacks themselves run as ``CheckedRecencyStack`` differential
  oracles, so both the production structure and the policy's use of it are
  verified);
* the xPTP Type bit written back from the MSHR at fill time matches what
  the request carried, and ``protected_evictions_avoided`` counts exactly
  the step-(d) alternative-victim evictions — including the step-(c)
  boundary (height == K taken, height == K+1 falls back to LRU);
* eviction/writeback counters match, the MSHR file drains after every
  access, and ``reset_stats`` clears counters without touching state.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cache.cache import SetAssociativeCache
from repro.common.params import CacheConfig
from repro.common.stats import LevelStats
from repro.common.types import AccessType, MemoryRequest, RequestType
from repro.replacement.lru import LRUPolicy
from repro.replacement.xptp import XPTPPolicy

from ..helpers import StubMemory
from . import profiles  # noqa: F401  (registers and loads the settings profile)
from .models import strengthen, xptp_victim
from .oracles import repro_check_enabled

SETS = 4
ASSOC = 4
XPTP_K = 2
MISS_LATENCY = 100

ACCESS_KINDS = st.sampled_from(
    [
        (RequestType.LOAD, False, None),
        (RequestType.STORE, False, None),
        (RequestType.IFETCH, False, None),
        (RequestType.PTW, True, AccessType.INSTRUCTION),
        (RequestType.PTW, True, AccessType.DATA),
    ]
)

SET_INDICES = st.integers(min_value=0, max_value=SETS - 1)
TAGS = st.integers(min_value=0, max_value=5)

WB_BITS = st.sampled_from(
    [(False, None), (True, AccessType.INSTRUCTION), (True, AccessType.DATA)]
)


class _Line:
    """Model line: tag plus the state the protocol invariants observe."""

    __slots__ = ("tag", "dirty", "is_pte", "translation_type")

    def __init__(self, tag, dirty, is_pte, translation_type):
        self.tag = tag
        self.dirty = dirty
        self.is_pte = is_pte
        self.translation_type = translation_type

    @property
    def is_data_pte(self):
        return self.is_pte and self.translation_type is AccessType.DATA


class CacheProtocolMachine(RuleBasedStateMachine):
    """Shared machinery; concrete subclasses pick the policy."""

    def _make_policy(self):
        raise NotImplementedError

    def _victim_index(self, model_set):
        """Reference victim choice; returns (MRU→LRU index, protected)."""
        raise NotImplementedError

    def __init__(self):
        super().__init__()
        config = CacheConfig(
            "MACH", size_bytes=SETS * ASSOC * 64, associativity=ASSOC,
            latency=5, mshr_entries=4,
        )
        with repro_check_enabled():
            # Checked recency stacks + shadow-checked MSHR file: the REPRO_CHECK
            # oracles verify every stack/MSHR operation inside the machine.
            self.cache = SetAssociativeCache(
                config, self._make_policy(), StubMemory(MISS_LATENCY),
                LevelStats("MACH"),
            )
        self.model = [[] for _ in range(SETS)]  # per set, MRU -> LRU
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.protected = 0

    # ------------------------------------------------------------------ #
    # Model transitions
    # ------------------------------------------------------------------ #

    def _model_fill(self, model_set, line):
        """Miss path: evict per policy if full, insert at MRU."""
        if len(model_set) >= ASSOC:
            index, protected = self._victim_index(model_set)
            victim = model_set.pop(index)
            self.evictions += 1
            self.protected += protected
            if victim.dirty:
                self.writebacks += 1
        model_set.insert(0, line)

    def _find(self, model_set, tag):
        for index, line in enumerate(model_set):
            if line.tag == tag:
                return index
        return None

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #

    @rule(set_index=SET_INDICES, tag=TAGS, kind=ACCESS_KINDS)
    def access(self, set_index, tag, kind):
        req_type, is_pte, translation_type = kind
        address = ((tag * SETS) + set_index) << 6
        req = MemoryRequest(
            address=address, req_type=req_type,
            is_pte=is_pte, translation_type=translation_type,
        )
        model_set = self.model[set_index]
        index = self._find(model_set, tag)
        if index is not None:
            self.hits += 1
            line = model_set.pop(index)
            model_set.insert(0, line)  # hit promotion is plain LRU here
            if req_type is RequestType.STORE:
                line.dirty = True
            line.is_pte, line.translation_type = strengthen(
                (line.is_pte, line.translation_type), is_pte, translation_type
            )
            expected_latency = 5
        else:
            self.misses += 1
            self._model_fill(
                model_set,
                _Line(tag, req_type is RequestType.STORE, is_pte,
                      translation_type if is_pte else None),
            )
            expected_latency = 5 + MISS_LATENCY
        latency = self.cache.access(req)
        assert latency == expected_latency
        assert self.cache.mshrs.outstanding() == 0, "MSHR entry leaked past access"

    @rule(set_index=SET_INDICES, tag=TAGS, bits=WB_BITS)
    def absorb_writeback(self, set_index, tag, bits):
        """A dirty line arriving from the level above (write-allocate)."""
        is_pte, translation_type = bits
        address = ((tag * SETS) + set_index) << 6
        req = MemoryRequest(
            address=address, req_type=RequestType.WRITEBACK,
            is_pte=is_pte, translation_type=translation_type,
        )
        model_set = self.model[set_index]
        index = self._find(model_set, tag)
        if index is not None:
            # Absorbed in place: dirty, Type strengthened, *no* promotion.
            line = model_set[index]
            line.dirty = True
            line.is_pte, line.translation_type = strengthen(
                (line.is_pte, line.translation_type), is_pte, translation_type
            )
        else:
            self._model_fill(model_set, _Line(tag, True, is_pte, translation_type))
        assert self.cache.access(req) == 0

    @rule()
    def reset_stats(self):
        snapshot = [
            [(ln.tag, ln.dirty, ln.is_pte, ln.translation_type) for ln in s]
            for s in self.model
        ]
        self.cache.reset_stats()
        self.protected = 0
        # Counters cleared...
        assert self.cache.mshrs.allocations == 0
        assert self.cache.mshrs.merges == 0
        assert self.cache.mshrs.full_events == 0
        assert self.cache.mshrs.retirements == 0
        # ...state untouched: the model (already verified against the cache)
        # still describes it exactly.
        self.check_contents_match_model()
        assert snapshot == [
            [(ln.tag, ln.dirty, ln.is_pte, ln.translation_type) for ln in s]
            for s in self.model
        ]

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #

    @invariant()
    def check_contents_match_model(self):
        cache = self.cache
        assert cache.occupancy() == sum(len(s) for s in self.model)
        for set_index in range(SETS):
            model_set = self.model[set_index]
            tag_map = cache._tag_maps[set_index]
            assert set(tag_map) == {line.tag for line in model_set}
            lines = cache.sets[set_index]
            for model_line in model_set:
                line = lines[tag_map[model_line.tag]]
                assert line.valid
                assert line.dirty == model_line.dirty
                assert line.is_pte == model_line.is_pte
                assert line.translation_type == model_line.translation_type

    @invariant()
    def check_recency_order_matches_model(self):
        for set_index in range(SETS):
            tag_map = self.cache._tag_maps[set_index]
            way_to_tag = {way: tag for tag, way in tag_map.items()}
            stack_tags = [
                way_to_tag[way]
                for way in self.cache.policy.stacks[set_index].order()
                if way in way_to_tag
            ]
            assert stack_tags == [line.tag for line in self.model[set_index]]

    @invariant()
    def check_stats_match_model(self):
        stats = self.cache.stats
        assert stats.hits == self.hits
        assert stats.misses == self.misses
        assert stats.evictions == self.evictions
        assert stats.writebacks == self.writebacks


class LRUCacheMachine(CacheProtocolMachine):
    def _make_policy(self):
        return LRUPolicy(SETS, ASSOC)

    def _victim_index(self, model_set):
        return len(model_set) - 1, False


class XPTPCacheMachine(CacheProtocolMachine):
    def _make_policy(self):
        return XPTPPolicy(SETS, ASSOC, k=XPTP_K)

    def _victim_index(self, model_set):
        return xptp_victim([line.is_data_pte for line in model_set], XPTP_K)

    @invariant()
    def check_protected_eviction_count(self):
        assert self.cache.policy.protected_evictions_avoided == self.protected


TestLRUCacheProtocol = LRUCacheMachine.TestCase
TestXPTPCacheProtocol = XPTPCacheMachine.TestCase
