"""Declarative machine topologies.

The one place the simulated machine's shape is defined: specs
(:mod:`.spec`, realized by :class:`repro.core.system.System`), the
named presets every CLI ``--topology`` flag accepts (:mod:`.presets`), the
sanctioned leaf-structure constructors (:mod:`.structures`) and the
Table 2 policy suites (:mod:`.suites`).  See ``docs/architecture.md``.
"""

from .presets import (
    PRESET_NAMES,
    from_system_config,
    make_topology,
    multicore,
    no_llc,
    resolve_topology,
    shared_l2,
    split_stlb,
    table1,
)
from .spec import NodeSpec, TopologyError, TopologySpec, node
from .structures import MMUStructures, mmu_structures
from .suites import SUITES, PolicySuite, suite_for

__all__ = [
    "PRESET_NAMES",
    "from_system_config",
    "make_topology",
    "multicore",
    "no_llc",
    "resolve_topology",
    "shared_l2",
    "split_stlb",
    "table1",
    "NodeSpec",
    "TopologyError",
    "TopologySpec",
    "node",
    "MMUStructures",
    "mmu_structures",
    "SUITES",
    "PolicySuite",
    "suite_for",
]
