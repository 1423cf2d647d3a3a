"""Differential test: the fused LRU recency path ≡ the policy-hook path.

A cache or TLB whose policy keeps LRU's own recency hooks moves the
recency stacks itself (direct touch on a hit, one MRU placement per fill).
A subclass whose hooks only call ``super()`` forces the hook path through
the same policy logic, so driving both with one random stream must leave
identical machines behind: tag/key maps, recency orders, line and entry
fields, ``LevelStats``, xPTP counters and the request sequence each level
sends downstream.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.common.params import CacheConfig, TLBConfig
from repro.common.stats import LevelStats
from repro.common.types import AccessType, MemoryRequest, PageSize, RequestType
from repro.replacement.lru import LRUPolicy
from repro.replacement.xptp import XPTPPolicy
from repro.tlb.policies.lru import TLBLRUPolicy
from repro.tlb.tlb import TLB

_I, _D = AccessType.INSTRUCTION, AccessType.DATA


class _CacheHooks:
    """Pass-through recency hooks: same behaviour, hook path forced."""

    def on_hit(self, set_index, way, lines, req):
        super().on_hit(set_index, way, lines, req)

    def on_fill(self, set_index, way, lines, req):
        super().on_fill(set_index, way, lines, req)

    def on_evict(self, set_index, way, lines):
        super().on_evict(set_index, way, lines)


class HookedLRU(_CacheHooks, LRUPolicy):
    pass


class HookedXPTP(_CacheHooks, XPTPPolicy):
    pass


class HookedTLBLRU(TLBLRUPolicy):
    def on_hit(self, set_index, way, entries, access_type):
        super().on_hit(set_index, way, entries, access_type)

    def on_insert(self, set_index, way, entries, access_type):
        super().on_insert(set_index, way, entries, access_type)

    def on_evict(self, set_index, way, entries):
        super().on_evict(set_index, way, entries)


class Recorder:
    """Terminal level: snapshots every request (levels reuse their own)."""

    def __init__(self):
        self.requests = []

    def access(self, req):
        self.requests.append(
            (req.address, req.req_type, req.is_pte, req.translation_type, req.pc)
        )
        return 0 if req.req_type is RequestType.WRITEBACK else 100


def _cache(name, sets, assoc, policy, next_level):
    config = CacheConfig(
        name, size_bytes=sets * assoc * 64, associativity=assoc, latency=4, mshr_entries=4
    )
    return SetAssociativeCache(config, policy(sets, assoc), next_level, LevelStats(name))


def build_pair(l1_policy, l2_policy):
    memory = Recorder()
    l2 = _cache("L2", 8, 4, l2_policy, memory)
    l1 = _cache("L1", 4, 4, l1_policy, l2)
    return (l1, l2), memory


def stats_of(stats):
    return {name: getattr(stats, name) for name in type(stats).__slots__}


def cache_state(cache):
    lines = [
        [(l.valid, l.tag, l.dirty, l.is_pte, l.translation_type, l.prefetched) for l in s]
        for s in cache.sets
    ]
    policy = cache.policy
    return (
        [dict(m) for m in cache._tag_maps],
        [stack.order() for stack in policy.stacks],
        lines,
        stats_of(cache.stats),
        getattr(policy, "protected_evictions_avoided", None),
    )


REQUEST_KINDS = [
    (RequestType.LOAD, False, None),
    (RequestType.STORE, False, None),
    (RequestType.IFETCH, False, None),
    (RequestType.PTW, True, _I),
    (RequestType.PTW, True, _D),
    (RequestType.PREFETCH, False, None),
    (RequestType.WRITEBACK, False, None),
    (RequestType.WRITEBACK, True, _D),
]

CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("access"),
            st.integers(0, 1),  # level
            st.sampled_from(REQUEST_KINDS),
            st.integers(0, 47),  # line address
        ),
        st.tuples(st.just("prefetch"), st.integers(0, 1), st.integers(0, 47)),
    ),
    min_size=1,
    max_size=150,
)


def run_cache_ops(levels, ops):
    results = []
    for op in ops:
        if op[0] == "access":
            _, level, (req_type, is_pte, ttype), line = op
            req = MemoryRequest(
                address=line << 6, req_type=req_type, pc=line,
                is_pte=is_pte, translation_type=ttype,
            )
            results.append(levels[level].access(req))
        else:
            _, level, line = op
            levels[level].prefetch(line, pc=line)
    return results


POLICY_PAIRS = [
    ((LRUPolicy, LRUPolicy), (HookedLRU, HookedLRU)),
    ((LRUPolicy, XPTPPolicy), (HookedLRU, HookedXPTP)),
]


@settings(max_examples=150, deadline=None)
@given(pair=st.sampled_from(POLICY_PAIRS), ops=CACHE_OPS, k=st.integers(1, 3))
def test_fused_cache_pair_matches_hook_path(pair, ops, k):
    fused_policies, hooked_policies = pair
    fused, fused_mem = build_pair(*fused_policies)
    hooked, hooked_mem = build_pair(*hooked_policies)
    for cache in fused + hooked:
        if isinstance(cache.policy, XPTPPolicy):
            cache.policy.k = k  # small K so step (c) and (d) both occur
    assert all(c._stacks is not None for c in fused)
    assert all(c._stacks is None for c in hooked)

    assert run_cache_ops(fused, ops) == run_cache_ops(hooked, ops)
    for f, h in zip(fused, hooked):
        assert cache_state(f) == cache_state(h)
    assert fused_mem.requests == hooked_mem.requests


def test_cache_stream_reaches_evictions_writebacks_and_protection():
    """The strategy's op mix exercises what the differential claims."""
    (l1, l2), memory = build_pair(LRUPolicy, XPTPPolicy)
    l2.policy.k = 1
    # L2 set 0: a data PTE at the LRU end, then a miss -> protected victim.
    ops = [("access", 1, (RequestType.PTW, True, _D), 0)]
    ops += [("access", 1, (RequestType.LOAD, False, None), n * 8) for n in range(1, 5)]
    # L1 set 0 and L2 set 1: dirty lines overflow and write back.
    ops += [("access", 0, (RequestType.STORE, False, None), n * 4) for n in range(6)]
    ops += [("access", 1, (RequestType.STORE, False, None), 1 + n * 8) for n in range(5)]
    run_cache_ops((l1, l2), ops)
    assert l1.stats.writebacks > 0 and l2.stats.evictions > 0
    assert l2.policy.protected_evictions_avoided > 0
    assert any(r[1] is RequestType.WRITEBACK for r in memory.requests)


def _tlb(policy):
    config = TLBConfig("T", entries=16, associativity=4, latency=1)
    return TLB(config, policy(config.num_sets, config.associativity), LevelStats("T"))


def tlb_state(tlb):
    entries = [
        [(e.valid, e.key, e.vpn, e.pfn, e.page_size, e.access_type) for e in s]
        for s in tlb.sets
    ]
    return (
        [dict(m) for m in tlb._key_maps],
        [stack.order() for stack in tlb.policy.stacks],
        entries,
        stats_of(tlb.stats),
    )


TLB_OPS = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "insert", "invalidate"]),
        st.integers(0, 31),  # 4 KB page number
        st.sampled_from([PageSize.SIZE_4K, PageSize.SIZE_2M]),
        st.sampled_from([_I, _D]),
    ),
    min_size=1,
    max_size=150,
)


def run_tlb_ops(tlb, ops):
    results = []
    for op, vpn, page_size, access_type in ops:
        vaddr = vpn << 12
        if op == "lookup":
            entry = tlb.lookup(vaddr, access_type)
            results.append(None if entry is None else (entry.pfn, entry.page_size))
            if entry is None:
                tlb.record_miss(access_type, 30)
        elif op == "insert":
            tlb.insert(vaddr, vpn + 1000, page_size, access_type)
        else:
            results.append(tlb.invalidate(vaddr))
    return results


@settings(max_examples=150, deadline=None)
@given(ops=TLB_OPS)
def test_fused_tlb_lookup_matches_hook_path(ops):
    fused, hooked = _tlb(TLBLRUPolicy), _tlb(HookedTLBLRU)
    assert fused._stacks is not None and hooked._stacks is None
    assert run_tlb_ops(fused, ops) == run_tlb_ops(hooked, ops)
    assert tlb_state(fused) == tlb_state(hooked)
