"""Named topology presets.

The named machines every ``--topology`` flag accepts:

* ``table1``       — the paper's Table 1 single-core hierarchy (the
                     default);
* ``split-stlb``   — Section 6.6's split instruction/data STLB, each half
                     with half the unified entry count;
* ``multicore-N``  — N cores with private L1/L2/TLBs sharing LLC + DRAM;
* ``no-llc``       — two-level hierarchy, L2C drains straight to DRAM;
* ``shared-l2``    — cores share one L2C (and the walker PTE stream hits
                     the shared L2C), the Victima/Garibaldi-style shared
                     translation-capacity scenario; ``shared-l2-N`` for
                     N > 2 cores.

Preset functions take the :class:`SystemConfig` whose per-level configs
and policy names should populate the nodes, so ``--topology`` composes
with ``--techniques``: the technique picks the policies, the preset picks
the graph.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Union

from ..common.params import SystemConfig
from .spec import NodeSpec, TopologySpec, TopologyError, node

#: Names accepted by :func:`make_topology` (``multicore-N`` and
#: ``shared-l2-N`` generalize the listed forms).
PRESET_NAMES = ("table1", "split-stlb", "multicore-N", "no-llc", "shared-l2")


def _memory_nodes(config: SystemConfig, llc: bool = True) -> List[NodeSpec]:
    """DRAM + shared cache tail common to every preset."""
    nodes = [node("dram", "dram", config=config.dram, stats_name="DRAM")]
    if llc:
        nodes.append(
            node("llc", "cache", config=config.llc, policy=config.llc_policy,
                 next_level="dram")
        )
    return nodes


def _core_nodes(
    config: SystemConfig,
    suffix: str = "",
    l2_target: Optional[str] = None,
    stats_suffix: str = "",
    istlb: bool = False,
) -> List[NodeSpec]:
    """One core's private structures plus its core node.

    ``suffix`` disambiguates node names between cores; ``stats_suffix``
    suffixes the *cache* stats buckets (``L2C_0``) while TLB/walker
    buckets stay shared (``STLB``).
    """
    l2_name = f"l2c{suffix}"
    nodes = [
        node(l2_name, "cache", config=config.l2c, policy=config.l2c_policy,
             next_level=l2_target or "llc",
             stats_name=f"L2C{stats_suffix}" if stats_suffix else None),
        node(f"l1i{suffix}", "cache", config=config.l1i, policy="lru",
             next_level=l2_name,
             stats_name=f"L1I{stats_suffix}" if stats_suffix else None),
        node(f"l1d{suffix}", "cache", config=config.l1d, policy="lru",
             next_level=l2_name,
             stats_name=f"L1D{stats_suffix}" if stats_suffix else None),
        node(f"walker{suffix}", "walker", config=config.psc, next_level=l2_name),
        node(f"itlb{suffix}", "tlb", config=config.itlb, policy="lru",
             stats_name="ITLB"),
        node(f"dtlb{suffix}", "tlb", config=config.dtlb, policy="lru",
             stats_name="DTLB"),
        node(f"stlb{suffix}", "tlb", config=config.stlb,
             policy=config.stlb_policy, stats_name="STLB"),
    ]
    links = {
        "l1i": f"l1i{suffix}",
        "l1d": f"l1d{suffix}",
        "itlb": f"itlb{suffix}",
        "dtlb": f"dtlb{suffix}",
        "stlb": f"stlb{suffix}",
        "walker": f"walker{suffix}",
    }
    if istlb:
        nodes.append(
            node(f"istlb{suffix}", "tlb", config=config.istlb,
                 policy=config.stlb_policy, stats_name="STLB")
        )
        links["istlb"] = f"istlb{suffix}"
    nodes.append(node(f"core{suffix or '0'}", "core", links=links))
    return nodes


def from_system_config(config: SystemConfig, name: str = "table1") -> TopologySpec:
    """The paper's Table 1 single-core hierarchy, honouring
    ``config.istlb`` for split-STLB configs (the default machine)."""
    nodes = _memory_nodes(config) + _core_nodes(
        config, istlb=config.istlb is not None
    )
    return TopologySpec(name=name, nodes=tuple(nodes))


def table1(config: SystemConfig) -> TopologySpec:
    return from_system_config(config, name="table1")


def split_stlb(config: SystemConfig) -> TopologySpec:
    """Split STLB (Section 6.6): half the entries per half, same assoc.

    When ``config.istlb`` is already set the split is taken as-is;
    otherwise each half gets ``entries // 2`` of the unified STLB.
    """
    if config.istlb is None:
        half = replace(config.stlb, name="DSTLB", entries=config.stlb.entries // 2)
        config = replace(
            config,
            stlb=half,
            istlb=replace(half, name="ISTLB"),
        )
    return from_system_config(config, name="split-stlb")


def no_llc(config: SystemConfig) -> TopologySpec:
    """Two-level hierarchy: L2C drains straight to DRAM."""
    nodes = _memory_nodes(config, llc=False) + _core_nodes(config, l2_target="dram")
    return TopologySpec(name="no-llc", nodes=tuple(nodes))


def multicore(config: SystemConfig, num_cores: int) -> TopologySpec:
    """N cores, private L1/L2/TLB/walker, shared LLC + DRAM (cache stats
    buckets suffixed per core)."""
    if num_cores < 1:
        raise TopologyError("multicore topology needs at least one core")
    nodes = _memory_nodes(config)
    for index in range(num_cores):
        nodes += _core_nodes(config, suffix=f"_{index}", stats_suffix=f"_{index}")
    return TopologySpec(name=f"multicore-{num_cores}", nodes=tuple(nodes))


def shared_l2(config: SystemConfig, num_cores: int = 2) -> TopologySpec:
    """N cores sharing one L2C (and its walker PTE stream) under the LLC."""
    if num_cores < 1:
        raise TopologyError("shared-l2 topology needs at least one core")
    nodes = _memory_nodes(config)
    nodes.append(
        node("l2c", "cache", config=config.l2c, policy=config.l2c_policy,
             next_level="llc")
    )
    for index in range(num_cores):
        suffix = f"_{index}"
        nodes += [
            node(f"l1i{suffix}", "cache", config=config.l1i, policy="lru",
                 next_level="l2c", stats_name=f"L1I{suffix}"),
            node(f"l1d{suffix}", "cache", config=config.l1d, policy="lru",
                 next_level="l2c", stats_name=f"L1D{suffix}"),
            node(f"walker{suffix}", "walker", config=config.psc, next_level="l2c"),
            node(f"itlb{suffix}", "tlb", config=config.itlb, policy="lru",
                 stats_name="ITLB"),
            node(f"dtlb{suffix}", "tlb", config=config.dtlb, policy="lru",
                 stats_name="DTLB"),
            node(f"stlb{suffix}", "tlb", config=config.stlb,
                 policy=config.stlb_policy, stats_name="STLB"),
            node(f"core{index}", "core", links={
                "l1i": f"l1i{suffix}", "l1d": f"l1d{suffix}",
                "itlb": f"itlb{suffix}", "dtlb": f"dtlb{suffix}",
                "stlb": f"stlb{suffix}", "walker": f"walker{suffix}",
            }),
        ]
    return TopologySpec(name=f"shared-l2-{num_cores}", nodes=tuple(nodes))


def make_topology(name: str, config: SystemConfig) -> TopologySpec:
    """Resolve a preset name (``table1``, ``split-stlb``, ``no-llc``,
    ``multicore-N``, ``shared-l2[-N]``) into a spec for ``config``."""
    if name == "table1":
        return table1(config)
    if name == "split-stlb":
        return split_stlb(config)
    if name == "no-llc":
        return no_llc(config)
    if name == "shared-l2":
        return shared_l2(config)
    for prefix, factory in (("multicore-", multicore), ("shared-l2-", shared_l2)):
        if name.startswith(prefix):
            count = name[len(prefix):]
            if not count.isdigit() or int(count) < 1:
                raise TopologyError(
                    f"bad core count in topology name {name!r} "
                    f"(expected e.g. {prefix}2)"
                )
            return factory(config, int(count))
    raise TopologyError(
        f"unknown topology {name!r}; available presets: {', '.join(PRESET_NAMES)}"
    )


def resolve_topology(
    topology: Union[None, str, TopologySpec], config: SystemConfig
) -> TopologySpec:
    """Normalize the ``--topology`` surface: ``None`` means the default
    Table 1 graph for ``config``, strings name presets, specs pass through."""
    if topology is None:
        return from_system_config(config)
    if isinstance(topology, str):
        return make_topology(topology, config)
    return topology
