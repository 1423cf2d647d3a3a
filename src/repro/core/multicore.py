"""Multi-programmed multicore simulation (extension).

The paper evaluates single-core and SMT co-location; the other standard
server-consolidation configuration is multi-programmed cores with private
L1/L2/TLB hierarchies sharing the LLC and DRAM.  The default machine is the
``multicore-N`` preset (per-core front ends, MMUs, walkers and L2Cs, a
shared LLC whose replacement policy is the configured ``llc_policy``, and
a shared DRAM channel whose bandwidth pressure all cores feel); any other
:class:`~repro.topology.spec.TopologySpec` with one core per workload —
e.g. the ``shared-l2`` preset — drops in via the ``topology`` argument.

Each core runs its own workload in its own address space (the same
high-bit tagging the SMT mode uses), so shared-structure contention is
capacity/bandwidth contention, never aliasing.
"""

from __future__ import annotations

from typing import Sequence, Union

from ..common.params import SystemConfig
from ..core.simulator import Session, SimulationResult
from ..topology.presets import multicore
from ..topology.spec import TopologySpec
from ..workloads.base import SyntheticWorkload


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
    ``topology=None`` picks the ``multicore-N`` preset for N workloads.
    Two or more cores run only on ``spec`` (:func:`repro.kernel.engine_for`).
    """
    if topology is None:
        topology = multicore(config, len(workloads))
    session = Session(config, workloads, topology, engine)
    session.warmup(warmup_instructions)
    session.measure(measure_instructions)
    return session.result(config_label)
