"""Hot-path manifest: what the simulator promises about its fast paths.

The optimisation contract lives here as data so ``repro.lint`` can enforce
it structurally and ``tests/test_manifest.py`` can check it against traced
runs.  Keys are *relkeys* — paths relative to the ``repro`` package with
``/`` separators (``cache/cache.py``) — which makes the manifest
independent of where the tree is checked out.

``HOT_FUNCTIONS`` is the one place to declare a function hot.  A
``# repro: allow[RPRnnn]`` comment on (or immediately above) a flagged
line suppresses that rule there — every suppression should carry a
rationale comment, and ``docs/static-analysis.md`` catalogues the
sanctioned ones.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

#: Functions (qualified as ``Class.method``, ``outer.inner`` or bare
#: function name) that run per memory reference / per miss.  RPR001 forbids
#: allocation inside them; ``tests/test_manifest.py`` requires every entry
#: to resolve and every hot-module function they are traced calling to be
#: listed here (or exempt, below).  Functions no simulated cell calls are
#: left out; docs/static-analysis.md lists them with the reason.
HOT_FUNCTIONS: Dict[str, FrozenSet[str]] = {
    "core/cpu.py": frozenset({"Core.execute", "Core._data_access"}),
    "core/simulator.py": frozenset({"tagged_size_policy.policy"}),
    "cache/cache.py": frozenset(
        {
            "SetAssociativeCache.access",
            "SetAssociativeCache._fill",
            "SetAssociativeCache._strengthen_type",
            "SetAssociativeCache._handle_writeback",
            "SetAssociativeCache.prefetch",
        }
    ),
    "cache/mshr.py": frozenset(
        {
            "MSHRFile.allocate",
            "MSHRFile.release",
            "MSHRFile.structural_penalty",
        }
    ),
    "tlb/tlb.py": frozenset(
        {
            "TLB.lookup",
            "TLB.insert",
            "TLB.record_miss",
            "TLB.probe",
            "TLB._evict",
            "TLB._find_invalid_way",
            "_key",
        }
    ),
    "tlb/entry.py": frozenset({"TLBEntry.invalidate"}),
    "tlb/hierarchy.py": frozenset(
        {
            "MMU.translate",
            "MMU.take_stlb_miss_events",
            "MMU._account_translation",
            "MMU._stlb_for",
            "MMU._stlb_prefetch",
        }
    ),
    "core/adaptive.py": frozenset({"AdaptiveXPTPController.on_instructions"}),
    "common/recency.py": frozenset(
        {
            "RecencyStack.touch",
            "RecencyStack.discard",
            "RecencyStack.lru_way",
            "RecencyStack.place_at_depth",
            "RecencyStack.place_above_lru",
            "RecencyStack.ways_from_lru",
        }
    ),
    "kernel/batched.py": frozenset({"BatchedEngine._run_block"}),
    "common/stats.py": frozenset({"SimStats.bump"}),
    "ptw/walker.py": frozenset({"PageTableWalker.walk"}),
    "ptw/page_table.py": frozenset(
        {
            "PageTable.walk_path",
            "PageTable._map_leaf",
            "PageTable._alloc_table",
            "PageTable._alloc_data_frames",
            "PageTable._entry_address",
            "level_index",
        }
    ),
    "ptw/psc.py": frozenset(
        {
            "SplitPSC.deepest_hit",
            "SplitPSC.fill",
            "SplitPSC.key_for",
            "PageStructureCache.lookup",
            "PageStructureCache.insert",
            "PageStructureCache._set_for",
        }
    ),
    "mem/dram.py": frozenset(
        {"DRAM.access", "DRAM._row_buffer_latency", "DRAM.note_instructions"}
    ),
}

#: Mutable classes instantiated, or rewritten in place, per
#: set/way/reference/miss; RPR002 requires each to be slotted (``__slots__``
#: or ``@dataclass(slots=True)``).
HOT_CLASSES: FrozenSet[str] = frozenset(
    {
        "CacheLine",
        "TLBEntry",
        "MemoryRequest",
        "AccessResult",
        "LevelStats",
        "RecencyStack",
        "NaiveRecencyStack",
        "MSHREntry",
        "TranslationResult",
        "WalkResult",
        "BatchedEngine",
    }
)

#: Enum classes whose members are singletons compared with ``is`` on hot
#: paths (they are IntEnums, so ``==`` would go through ``__eq__``).
ENUM_CLASSES: FrozenSet[str] = frozenset({"AccessType", "RequestType", "PageSize"})

#: Relkey prefixes of the modules the hot-path rules (RPR003/RPR004) scan,
#: and whose functions hot code may call only if they are listed above.
#: Analysis, experiments, workloads and the linter itself are cold code.
HOT_MODULE_PREFIXES = (
    "common/",
    "cache/",
    "tlb/",
    "ptw/",
    "core/",
    "mem/",
    "replacement/",
    "kernel/",
)

#: Classes owning statistics counters outside LevelStats/SimStats; RPR004
#: requires each to clear its counters in a ``reset``/``reset_stats`` method.
STATS_BEARING: FrozenSet[str] = frozenset(
    {
        "MSHRFile",
        "DRAM",
        "PageStructureCache",
        "SplitPSC",
        "XPTPPolicy",
        "AdaptiveXPTPController",
        "MMU",
        "BatchedEngine",
        "ScalarEngine",
    }
)

#: The one module allowed to construct/mutate Table 1 parameters (RPR005).
PARAMS_RELKEY = "common/params.py"

#: Hardware leaf-structure constructors that only the topology layer may
#: call directly (RPR006).  Everything else goes through a
#: :class:`TopologySpec` + ``build()`` (or the sanctioned helpers in
#: ``topology/structures.py``), so machine shape stays declarative.
TOPOLOGY_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"SetAssociativeCache", "TLB", "DRAM"}
)

#: Relkey prefixes exempt from RPR006 — the sanctioned construction layer.
TOPOLOGY_RELKEY_PREFIXES = ("topology/",)

#: Relkey of the stats schema module RPR004 validates counters against.
STATS_RELKEY = "common/stats.py"

#: Exemptions from the traced coverage check: relkey prefixes and qualname
#: prefixes whose functions need not be listed in HOT_FUNCTIONS even when
#: hot code calls them.  Replacement policies and the cache and STLB
#: prefetchers are a duck-typed dispatch surface, one implementation per
#: configured name, covered by the stateful and policy suites instead;
#: ``Naive*``/``Checked*`` classes are the REPRO_CHECK shadow oracles,
#: deliberately cold.
HOT_CALLEE_EXEMPT_PREFIXES: Tuple[str, ...] = (
    "replacement/",
    "cache/prefetch/",
    "tlb/prefetch.py",
    "tlb/policies/",
    "common/invariants.py",
)
HOT_CALLEE_EXEMPT_QUAL_PREFIXES: Tuple[str, ...] = ("Naive", "Checked")
