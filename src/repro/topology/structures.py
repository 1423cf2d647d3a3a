"""Sanctioned constructors for the hardware leaf structures.

This module is the *only* place in ``src/repro`` that instantiates
:class:`SetAssociativeCache`, :class:`TLB` or :class:`DRAM` directly (lint
rule RPR006 enforces this).  Everything goes through the same registry
factories and the same ``make_mshr_file``/``stack_factory`` hooks, so
``REPRO_CHECK=1`` validates every built machine.

The policy *context* convention lives here: every policy factory receives
the full set of :class:`SystemConfig`-derived keywords (``xptp_k``,
``itp_config``, ``p_evict_data``) and takes what it needs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..cache.cache import SetAssociativeCache
from ..cache.prefetch import make_prefetcher
from ..common.params import SystemConfig
from ..common.stats import SimStats
from ..mem.dram import DRAM
from ..replacement.registry import make_cache_policy
from ..tlb.tlb import TLB
from ..tlb.policies.registry import make_tlb_policy
from .spec import NodeSpec


def build_dram(node: NodeSpec, stats: SimStats) -> DRAM:
    return DRAM(node.config, stats.level(node.stats_name or "DRAM"))


def build_cache(
    node: NodeSpec,
    config: SystemConfig,
    next_level: object,
    stats: SimStats,
) -> SetAssociativeCache:
    """Realize a cache node on top of its already-built ``next_level``."""
    cache_config = node.config
    policy = make_cache_policy(
        node.policy or "lru",
        cache_config.num_sets,
        cache_config.associativity,
        xptp_k=config.xptp.k,
    )
    prefetcher_name = (
        node.prefetcher if node.prefetcher is not None else cache_config.prefetcher
    )
    return SetAssociativeCache(
        cache_config,
        policy,
        next_level,
        stats.level(node.stats_name or cache_config.name),
        make_prefetcher(prefetcher_name),
    )


def build_tlb(node: NodeSpec, config: SystemConfig, stats: SimStats) -> TLB:
    """Realize a TLB node; policy context comes from the system config."""
    tlb_config = node.config
    policy = make_tlb_policy(
        node.policy or "lru",
        tlb_config.num_sets,
        tlb_config.associativity,
        itp_config=config.itp,
        p_evict_data=config.problru_p,
    )
    return TLB(
        tlb_config, policy, stats.level(node.stats_name or tlb_config.name)
    )


class MMUStructures(NamedTuple):
    """The TLB set handed to :class:`repro.tlb.hierarchy.MMU`.

    ``stlb_instr`` is ``None`` for a unified STLB; when set, ``stlb`` is the
    data half of a split design (Section 6.6).
    """

    itlb: TLB
    dtlb: TLB
    stlb: TLB
    stlb_instr: Optional[TLB] = None


def mmu_structures(config: SystemConfig, stats: SimStats) -> MMUStructures:
    """The Table 1 TLB set for a directly constructed
    ``MMU(config, walker, stats)``; :class:`repro.core.system.System`
    injects per-node structures instead.
    """
    itlb = TLB(
        config.itlb,
        make_tlb_policy("lru", config.itlb.num_sets, config.itlb.associativity),
        stats.level("ITLB"),
    )
    dtlb = TLB(
        config.dtlb,
        make_tlb_policy("lru", config.dtlb.num_sets, config.dtlb.associativity),
        stats.level("DTLB"),
    )

    def stlb_half(tlb_config) -> TLB:
        return TLB(
            tlb_config,
            make_tlb_policy(
                config.stlb_policy,
                tlb_config.num_sets,
                tlb_config.associativity,
                itp_config=config.itp,
                p_evict_data=config.problru_p,
            ),
            stats.level("STLB"),
        )

    stlb = stlb_half(config.stlb)
    stlb_instr = stlb_half(config.istlb) if config.istlb is not None else None
    return MMUStructures(itlb, dtlb, stlb, stlb_instr)
