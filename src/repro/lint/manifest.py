"""Hot-path manifest: what the simulator promises about its fast paths.

PR 2's optimisation contract lives here as data so ``repro.lint`` can
enforce it structurally.  Keys are *relkeys* — paths relative to the
``repro`` package with ``/`` separators (``cache/cache.py``) — which makes
the manifest independent of where the tree is checked out.

Functions and classes can also opt in at the definition site:

* ``# repro: hot`` on (or immediately above) a ``def`` line marks the
  function hot for RPR001 without a manifest entry;
* ``# repro: allow[RPRnnn]`` on (or immediately above) a flagged line
  suppresses that rule there — every suppression should carry a rationale
  comment, and ``docs/static-analysis.md`` catalogues the sanctioned ones.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

#: Functions (qualified as ``Class.method`` or bare function name) that run
#: per memory reference / per miss.  RPR001 forbids allocation inside them.
HOT_FUNCTIONS: Dict[str, FrozenSet[str]] = {
    "core/cpu.py": frozenset({"Core.execute", "Core._data_access"}),
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
            "MSHRFile.lookup",
            "MSHRFile.allocate",
            "MSHRFile.release",
            "MSHRFile.structural_penalty",
            "_merge_type_bits",
        }
    ),
    "tlb/tlb.py": frozenset(
        {"TLB.lookup", "TLB.insert", "TLB.record_miss", "TLB._evict"}
    ),
    "tlb/entry.py": frozenset({"TLBEntry.invalidate"}),
    "tlb/hierarchy.py": frozenset({"MMU.translate", "MMU._account_translation"}),
    "core/adaptive.py": frozenset({"AdaptiveXPTPController.on_instructions"}),
    "common/recency.py": frozenset(
        {
            "RecencyStack.touch",
            "RecencyStack.remove",
            "RecencyStack.discard",
            "RecencyStack.place_at_depth",
            "RecencyStack.place_above_lru",
            "RecencyStack.ways_from_lru",
        }
    ),
    "kernel/batched.py": frozenset({"BatchedEngine._run_block"}),
    "common/stats.py": frozenset({"categorize", "SimStats.bump"}),
    "ptw/walker.py": frozenset({"PageTableWalker.walk"}),
    "mem/dram.py": frozenset(
        {"DRAM.access", "DRAM._row_buffer_latency", "DRAM.note_instructions"}
    ),
}

#: Mutable classes instantiated per set/way/reference; RPR002 requires each
#: to be slotted (``__slots__`` or ``@dataclass(slots=True)``).
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
        "BatchedEngine",
    }
)

#: Enum classes whose members are singletons compared with ``is`` on hot
#: paths (they are IntEnums, so ``==`` would go through ``__eq__``).
ENUM_CLASSES: FrozenSet[str] = frozenset({"AccessType", "RequestType", "PageSize"})

#: Relkey prefixes of the modules the hot-path rules (RPR003/RPR004) scan.
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

# --------------------------------------------------------------------------
# Whole-program effect analysis (RPR009).  See docs/static-analysis.md for
# the effect model it feeds.

#: Structure fields whose writes count as ``state:`` effects: cache-line
#: metadata, TLB-entry fields, the FDIP stream register, and the DRAM
#: bandwidth-window registers.
STATE_FIELDS: FrozenSet[str] = frozenset(
    {
        # CacheLine (and MemoryRequest type bits, shared by writebacks)
        "valid",
        "tag",
        "dirty",
        "prefetched",
        "is_pte",
        "translation_type",
        # TLBEntry
        "vpn",
        "pfn",
        "page_size",
        "access_type",
        # FDIP next-line stream register
        "_last_line",
        # DRAM contention window
        "_window_accesses",
        "_window_instructions",
        "_queue_delay",
    }
)

#: Chain segments that mark a write as mutating an indexed structure map
#: (``tm[tag] = way`` through a ``_tag_maps`` alias, TLB key maps, DRAM
#: open-row registry), mapped to the effect label they produce.
STATE_SEGMENTS: Dict[str, str] = {
    "_tag_maps": "tag_maps",
    "tag_maps": "tag_maps",
    "_key_maps": "key_maps",
    "key_maps": "key_maps",
    "_open_rows": "open_rows",
}

#: Recency-stack mutators: a *call* to one of these names is a
#: ``state:recency`` effect (the stacks are the replacement policies'
#: ground truth).
RECENCY_MUTATORS: FrozenSet[str] = frozenset(
    {
        "touch",
        "remove",
        "discard",
        "place_at_depth",
        "place_above_lru",
    }
)

#: RPR009(b) exemptions: relkey prefixes and qualname prefixes whose
#: functions need not be listed in HOT_FUNCTIONS even when hot code calls
#: them.  Policies and prefetchers are a duck-typed dispatch surface
#: (covered by the stateful suites); ``Naive*``/``Checked*`` classes are
#: the REPRO_CHECK shadow oracles, deliberately cold.
HOT_CALLEE_EXEMPT_PREFIXES: Tuple[str, ...] = (
    "replacement/",
    "cache/prefetch/",
    "tlb/policies/",
    "common/invariants.py",
)
HOT_CALLEE_EXEMPT_QUAL_PREFIXES: Tuple[str, ...] = ("Naive", "Checked")

#: Relkey of this manifest inside the linted tree.  RPR009 only runs its
#: liveness checks when the manifest itself is part of the linted file
#: set (whole-tree lints), so single-file fixtures don't false-fire.
MANIFEST_RELKEY = "lint/manifest.py"
