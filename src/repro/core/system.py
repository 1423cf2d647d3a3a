"""The simulated machine, realized from a topology spec.

:class:`System` resolves a :class:`~repro.topology.spec.TopologySpec` — the
``table1`` preset derived from the :class:`SystemConfig` by default, any
preset name or custom graph via ``topology`` — and instantiates every node
through the sanctioned constructors in :mod:`repro.topology.structures`
(policy registries, ``make_prefetcher``, ``make_mshr_file`` and
``stack_factory``), so ``REPRO_CHECK=1`` invariant checking covers every
machine.

One class serves every core count.  Sharing falls out of the graph: nodes
are realized once (memoized by name), so two cores whose chains reference
the same LLC node get the same :class:`SetAssociativeCache` instance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from ..common import invariants
from ..common.params import SystemConfig
from ..common.stats import SimStats
from ..common.types import PageSize
from ..ptw.page_table import PageTable
from ..ptw.walker import PageTableWalker
from ..replacement.xptp import XPTPPolicy
from ..tlb.hierarchy import MMU
from ..topology.presets import resolve_topology
from ..topology.spec import KIND_CACHE, KIND_DRAM, TopologySpec
from ..topology.structures import MMUStructures, build_cache, build_dram, build_tlb
from .adaptive import AdaptiveXPTPController

SizePolicy = Callable[[int], PageSize]


class BuiltCore:
    """One core's slice of a built machine.

    ``path`` is the core's data-side cache chain from L1D down to (but
    excluding) DRAM; ``l2c``/``llc`` are positional views of it (``llc`` is
    ``None`` on a two-level hierarchy such as the ``no-llc`` preset).
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


class System:
    """A built machine: one core (which may run two SMT threads) or several.

    ``cores`` holds each core's :class:`BuiltCore` slice, and ``l1i``/
    ``l1d``/``l2c``/``llc``/``mmu``/``walker``/``adaptive``/``xptp_policy``
    name core 0's structures.  ``config``, ``stats`` and ``dram`` are shared
    by every core; ``caches`` and ``tlbs`` map spec node names to
    structures in realization order.
    """

    def __init__(
        self,
        config: SystemConfig,
        size_policy: Optional[SizePolicy] = None,
        topology: Union[None, str, TopologySpec] = None,
    ) -> None:
        spec = resolve_topology(topology, config)
        spec.validate()
        self.config = config
        self.stats = stats = SimStats()

        # DRAM first (every cache chain ends there), then each cache in spec
        # order, after the levels below it: the order stats levels and metric
        # reports list them in.  A loop, not a recursive closure: a closure
        # that names itself is a reference cycle, which would keep the whole
        # machine alive after its cell returns, until a full garbage collection.
        (dram_node,) = spec.nodes_of_kind(KIND_DRAM)
        self.dram = dram = build_dram(dram_node, stats)
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
            path = [caches[n.name] for n in spec.cache_path(core_node.link("l1d"))]
            xptp = next(
                (c.policy for c in path if isinstance(c.policy, XPTPPolicy)), None
            )
            cores.append(BuiltCore(
                index, core_node.name, caches[core_node.link("l1i")], path[0], path,
                mmu, walker, AdaptiveXPTPController(config.adaptive, mmu, xptp), xptp,
            ))

        #: Every cache and TLB of the machine by spec node name, in build
        #: order (exports and invariants iterate these).
        self.caches = caches
        self.tlbs = tlbs
        self.cores: Tuple[BuiltCore, ...] = tuple(cores)
        core = cores[0]
        self.l1i = core.l1i
        self.l1d = core.l1d
        self.l2c = core.l2c
        self.llc = core.llc
        self.mmu = core.mmu
        self.walker = core.walker
        self.adaptive = core.adaptive
        self.xptp_policy: Optional[XPTPPolicy] = core.xptp

    def reset_stats(self) -> None:
        """Reset every statistic at the warmup/measurement boundary.

        Covers :class:`SimStats` plus the counters that live on hardware
        structures themselves (MSHR files, xPTP's protected-eviction count,
        the adaptive controllers' window counters, PSC diagnostics) so
        warmup activity never leaks into measurement-window numbers.
        Microarchitectural *state* (cache contents, recency stacks,
        outstanding MSHR entries) is kept — warming that state is the point
        of the warmup window.  Structures several cores share are reset once.
        """
        self.stats.reset()
        for core in self.cores:
            core.adaptive.reset_stats()
            core.mmu.reset_stats()
        for walker in {id(c.walker): c.walker for c in self.cores}.values():
            walker.reset_stats()
        self.dram.reset_stats()
        for cache in self.caches.values():
            cache.reset_stats()
        if invariants.enabled():
            invariants.check_no_leaked_mshr_entries(self)
