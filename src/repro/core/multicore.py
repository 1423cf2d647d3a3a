"""Multi-programmed multicore simulation (extension).

The paper evaluates single-core and SMT co-location; the other standard
server-consolidation configuration is multi-programmed cores with private
L1/L2/TLB hierarchies sharing the LLC and DRAM.  This module provides that
mode as a facade over the topology layer: the default graph is the
``multicore-N`` preset (per-core front ends, MMUs, walkers and L2Cs, a
shared LLC whose replacement policy is the configured ``llc_policy``, and
a shared DRAM channel whose bandwidth pressure all cores feel), and any
other multi-core :class:`~repro.topology.spec.TopologySpec` — e.g. the
``shared-l2`` preset — drops in via the ``topology`` argument.

Each core runs its own workload in its own address space (the same
high-bit tagging the SMT mode uses), so shared-structure contention is
capacity/bandwidth contention, never aliasing.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from ..common.params import SystemConfig
from ..common.stats import SimStats
from ..core.cpu import Core
from ..core.simulator import Session, SimulationResult, tagged_size_policy
from ..topology.builder import BuiltCore, build
from ..topology.presets import multicore, resolve_topology
from ..topology.spec import TopologySpec
from ..workloads.base import SyntheticWorkload


class MulticoreSystem:
    """N cores with private L1/L2/TLBs, shared LLC and DRAM (by default)."""

    def __init__(
        self,
        config: SystemConfig,
        workloads: Sequence[SyntheticWorkload],
        topology: Union[None, str, TopologySpec] = None,
    ) -> None:
        if not workloads:
            raise ValueError("at least one workload/core required")
        self.config = config
        self.workloads = list(workloads)

        spec = (
            multicore(config, len(self.workloads))
            if topology is None
            else resolve_topology(topology, config)
        )
        if spec.num_cores != len(self.workloads):
            raise ValueError(
                f"topology {spec.name!r} has {spec.num_cores} cores but "
                f"{len(self.workloads)} workloads were given"
            )
        built = build(spec, config, size_policy=tagged_size_policy(self.workloads))
        self.topology = built
        self.stats: SimStats = built.stats
        self.dram = built.dram
        self.llc = built.cores[0].llc
        self.caches = tuple(built.caches.values())
        self.page_table = built.page_table

        #: Per-core private hierarchies (the builder's BuiltCore objects
        #: expose the legacy ``.l1i``/``.l1d``/``.l2c`` slice surface).
        self.slices: List[BuiltCore] = list(built.cores)
        self.cores: List[Core] = []
        self.adaptives = [core.adaptive for core in built.cores]
        for index, built_core in enumerate(built.cores):
            view = _SliceView(self, built_core)
            self.cores.append(Core(view, thread_id=index))

    def reset_stats(self) -> None:
        """Reset all statistics at the warmup/measurement boundary.

        Mirrors :meth:`repro.core.system.System.reset_stats`: SimStats plus
        the structure-owned counters of every core slice and shared level.
        """
        self.topology.reset_stats()


class _SliceView:
    """What a :class:`Core` sees as its 'system': the private slice plus shared state."""

    def __init__(self, parent: MulticoreSystem, built_core: BuiltCore) -> None:
        self.config = parent.config
        self.stats = parent.stats
        self.l1i = built_core.l1i
        self.l1d = built_core.l1d
        self.l2c = built_core.l2c
        self.llc = built_core.llc
        self.dram = parent.dram
        self.mmu = built_core.mmu
        self.adaptive = built_core.adaptive


def simulate_multicore(
    config: SystemConfig,
    workloads: Sequence[SyntheticWorkload],
    warmup_instructions: int = 50_000,
    measure_instructions: int = 200_000,
    config_label: str = "",
    topology: Union[None, str, TopologySpec] = None,
    engine: Union[None, str] = None,
) -> SimulationResult:
    """Run one workload per core; throughput = total instructions / slowest core.

    Cores advance in lock-step rounds of one fetch group each; per-core
    cycles accumulate independently while all shared-state contention
    (LLC capacity, DRAM bandwidth) plays out through the shared objects.
    Two or more cores run only on ``spec`` (:func:`repro.kernel.engine_for`).
    """
    session = Session(config, workloads, topology, engine, multicore=True)
    session.warmup(warmup_instructions)
    session.measure(measure_instructions)
    return session.result(config_label)
