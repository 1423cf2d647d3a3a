"""Realize a :class:`TopologySpec` into live simulator structures.

``build()`` validates the graph, then instantiates every node through the
sanctioned constructors in :mod:`repro.topology.structures` — which means
through the same policy registries, ``make_prefetcher``,
``make_mshr_file`` and ``stack_factory`` hooks the legacy hand wiring
used, so ``REPRO_CHECK=1`` invariant checking works unchanged on
builder-made machines.

Sharing falls out of the graph: nodes are realized once (memoized by
name), so two cores whose chains reference the same LLC node get the same
:class:`SetAssociativeCache` instance.

This module deliberately imports nothing from :mod:`repro.core` at module
level — ``repro.core.__init__`` transitively imports :mod:`repro.tlb`,
which needs :mod:`repro.topology.structures`; a module-level import here
would close that cycle.  The one core-side class the builder needs
(:class:`AdaptiveXPTPController`) is imported inside :func:`build`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..common.params import SystemConfig
from ..common.stats import SimStats
from ..common.types import PageSize
from ..ptw.page_table import PageTable
from ..ptw.walker import PageTableWalker
from ..replacement.xptp import XPTPPolicy
from .spec import KIND_CACHE, KIND_DRAM, TopologySpec
from .structures import MMUStructures, build_cache, build_dram, build_tlb

SizePolicy = Callable[[int], PageSize]


class BuiltCore:
    """One core's slice of a built topology.

    ``path`` is the core's data-side cache chain from L1D down to (but
    excluding) DRAM; ``l2c``/``llc`` are positional views of it kept for
    the legacy ``System`` surface (``llc`` is ``None`` on a two-level
    hierarchy such as the ``no-llc`` preset).
    """

    __slots__ = (
        "index", "name", "l1i", "l1d", "path", "mmu", "walker", "adaptive", "xptp",
    )

    def __init__(self, index, name, l1i, l1d, path, mmu, walker, adaptive, xptp):
        self.index = index
        self.name = name
        self.l1i = l1i
        self.l1d = l1d
        self.path = path
        self.mmu = mmu
        self.walker = walker
        self.adaptive = adaptive
        self.xptp = xptp

    @property
    def l2c(self):
        return self.path[1] if len(self.path) > 1 else None

    @property
    def llc(self):
        return self.path[2] if len(self.path) > 2 else None


class BuiltTopology:
    """Everything :func:`build` produced, addressable by spec node name."""

    def __init__(self, spec, config, stats, dram, caches, tlbs, walkers, cores, page_table):
        self.spec: TopologySpec = spec
        self.config: SystemConfig = config
        self.stats: SimStats = stats
        self.dram = dram
        #: name → SetAssociativeCache, in realization order.
        self.caches: Dict[str, object] = caches
        #: name → TLB.
        self.tlbs: Dict[str, object] = tlbs
        #: name → PageTableWalker.
        self.walkers: Dict[str, PageTableWalker] = walkers
        self.cores: Tuple[BuiltCore, ...] = cores
        self.page_table: PageTable = page_table

    def reset_stats(self) -> None:
        """Reset every statistic at the warmup/measurement boundary.

        Same contract as the legacy ``System.reset_stats``: counters go to
        zero, microarchitectural state (cache contents, recency stacks,
        outstanding MSHR entries) is kept.  Shared structures are reset
        once even when several cores reference them.
        """
        self.stats.reset()
        seen = set()
        for core in self.cores:
            for obj in (core.adaptive, core.mmu, core.walker):
                if id(obj) not in seen:
                    seen.add(id(obj))
                    obj.reset_stats()
        self.dram.reset_stats()
        for cache in self.caches.values():
            cache.reset_stats()


def build(
    spec: TopologySpec,
    config: SystemConfig,
    stats: Optional[SimStats] = None,
    size_policy: Optional[SizePolicy] = None,
) -> BuiltTopology:
    """Validate ``spec`` and instantiate it against ``config``.

    ``config`` supplies everything that is not per-node: core timing,
    policy context (iTP parameters, xPTP's K, problru's P), the adaptive
    controller's window, STLB MSHR sizing.  Per-node geometry and policy
    names come from the spec.
    """
    # Imported here, not at module level: repro.core <-> repro.topology
    # would otherwise form an import cycle (see module docstring).
    from ..core.adaptive import AdaptiveXPTPController
    from ..tlb.hierarchy import MMU

    spec.validate()
    stats = stats if stats is not None else SimStats()

    # DRAM first (every cache chain ends there), then each cache in spec
    # order, after the levels below it: the order stats levels and metric
    # reports list them in.  A loop, not a recursive closure: a closure
    # that names itself is a reference cycle, which would keep the whole
    # machine alive after its cell returns, until a full garbage collection.
    (dram_node,) = spec.nodes_of_kind(KIND_DRAM)
    dram = build_dram(dram_node, stats)
    caches: Dict[str, object] = {}
    for node in spec.nodes_of_kind(KIND_CACHE):
        below = dram
        for level in reversed(spec.cache_path(node.name)):
            if level.name not in caches:
                caches[level.name] = build_cache(level, config, below, stats)
            below = caches[level.name]

    tlbs: Dict[str, object] = {}
    walkers: Dict[str, PageTableWalker] = {}
    page_table = PageTable(size_policy)

    def realize_walker(name: str) -> PageTableWalker:
        if name not in walkers:
            node = spec.node(name)
            walkers[name] = PageTableWalker(page_table, node.config, caches[node.next_level], stats)
        return walkers[name]

    def realize_tlb(name: str):
        if name not in tlbs:
            tlbs[name] = build_tlb(spec.node(name), config, stats)
        return tlbs[name]

    cores: List[BuiltCore] = []
    for index, core_node in enumerate(spec.cores()):
        walker = realize_walker(core_node.link("walker"))
        istlb_name = core_node.link("istlb")
        structures = MMUStructures(
            itlb=realize_tlb(core_node.link("itlb")),
            dtlb=realize_tlb(core_node.link("dtlb")),
            stlb=realize_tlb(core_node.link("stlb")),
            stlb_instr=realize_tlb(istlb_name) if istlb_name else None,
        )
        mmu = MMU(config, walker, stats, structures=structures)
        l1i = caches[core_node.link("l1i")]
        l1d = caches[core_node.link("l1d")]
        path = [caches[n.name] for n in spec.cache_path(core_node.link("l1d"))]
        xptp = next(
            (c.policy for c in path if isinstance(c.policy, XPTPPolicy)), None
        )
        adaptive = AdaptiveXPTPController(config.adaptive, mmu, xptp)
        cores.append(
            BuiltCore(index, core_node.name, l1i, l1d, path, mmu, walker, adaptive, xptp)
        )

    return BuiltTopology(
        spec, config, stats, dram, caches, tlbs, walkers, tuple(cores), page_table
    )
