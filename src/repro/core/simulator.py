"""Top-level simulation drivers.

``simulate`` runs a single-thread workload; ``simulate_smt`` co-locates two
workloads on an SMT core (Section 5.1): records are fetched round-robin,
one fetch group per thread per turn, with all caches, TLBs, the walker and
DRAM shared.  Cycle accounting overlaps the two threads' record costs —
the longer record hides most of the shorter one, modelling latency hiding
across hardware threads while shared-structure contention emerges naturally
from the shared state.

``simulate_multicore`` (extension) runs the other standard
server-consolidation configuration: multi-programmed cores with private
L1/L2/TLB hierarchies sharing the LLC and DRAM.  Each core runs its own
workload in its own address space (the same high-bit tagging the SMT mode
uses), so shared-structure contention is capacity/bandwidth contention,
never aliasing.

Every driver runs the paper's methodology through one :class:`Session`: a
warmup window that touches state but not statistics, then a measurement
window (Section 5.2 uses 50 M warmup + 100 M measured; defaults here are
scaled down for Python speed — DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Union

from ..common.params import SystemConfig
from ..common.stats import SimStats
from ..common.types import PageSize
from ..kernel import BatchedEngine, ScalarEngine, engine_for
from ..topology.presets import multicore, resolve_topology
from ..topology.spec import TopologySpec
from ..workloads.base import SyntheticWorkload
from .cpu import Core, THREAD_TAG_SHIFT
from .system import System

DEFAULT_WARMUP = 50_000
DEFAULT_MEASURE = 200_000


@dataclass
class SimulationResult:
    """Measurement-window statistics plus convenience accessors."""

    workload: str
    config_label: str
    stats: SimStats
    metrics: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.metrics:
            self.metrics = self.stats.report()

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]

    def get(self, key: str, default: float = 0.0) -> float:
        return self.metrics.get(key, default)


def _export_adaptive(system: System, stats: SimStats) -> None:
    """Surface adaptive-controller counters in the metric report."""
    if not system.adaptive.active:
        return
    stats.counters["adaptive.windows_total"] = system.adaptive.windows_total
    stats.counters["adaptive.windows_enabled"] = system.adaptive.windows_enabled
    stats.counters["adaptive.switches"] = system.adaptive.switches


def _export_structures(system: System, stats: SimStats) -> None:
    """Surface structure-owned counters (xPTP, MSHRs) in the metric report.

    These live on the hardware objects rather than in :class:`SimStats`, so
    they are cleared by :meth:`System.reset_stats` at the warmup boundary and
    exported here at the end of the measurement window.
    """
    xptp = system.xptp_policy
    if xptp is not None:
        stats.counters["xptp.protected_evictions_avoided"] = (
            xptp.protected_evictions_avoided
        )
    for cache in system.caches.values():
        key = cache.config.name.lower()
        stats.counters[f"{key}.mshr_allocations"] = cache.mshrs.allocations
        stats.counters[f"{key}.mshr_merges"] = cache.mshrs.merges
        stats.counters[f"{key}.mshr_full_events"] = cache.mshrs.full_events
        stats.counters[f"{key}.mshr_retirements"] = cache.mshrs.retirements
    stats.counters["stlb.mshr_allocations"] = system.mmu.stlb_mshrs.allocations
    if system.config.dram.row_buffer:
        stats.counters["dram.row_hits"] = system.dram.row_hits
        stats.counters["dram.row_misses"] = system.dram.row_misses


def tagged_size_policy(workloads: Sequence[SyntheticWorkload]):
    """Dispatch page-size decisions by the thread/core tag in high bits."""
    mask = (1 << THREAD_TAG_SHIFT) - 1

    def policy(vaddr: int) -> PageSize:
        thread = vaddr >> THREAD_TAG_SHIFT
        if thread >= len(workloads):
            thread = 0
        return workloads[thread].size_policy(vaddr & mask)

    return policy


def is_smt_run(spec: TopologySpec, num_workloads: int) -> bool:
    """Check the run-mode rule; True when the workloads run as SMT threads.

    N > 1 cores need N workloads, one each; one core takes one workload, or
    two as SMT threads.  Any other count raises :class:`ValueError`.
    """
    num_cores = spec.num_cores
    if num_cores > 1:
        if num_workloads != num_cores:
            raise ValueError(
                f"topology {spec.name!r} has {num_cores} cores but "
                f"{num_workloads} workloads were given"
            )
        return False
    if num_workloads not in (1, 2):
        raise ValueError("a core runs one workload, or two as SMT threads")
    return num_workloads == 2


class Session:
    """One run of the paper's method (Sections 5.1-5.2), phase by phase.

    Building a session builds the machine, its cores and record streams,
    and the engine that drives them (:func:`repro.kernel.engine_for`).  The
    phases are plain methods, called in order; each window is bounded by
    instructions or by trace records.  The topology's core count sets the
    run mode: N > 1 cores run one workload each; one core runs one
    workload, or two as SMT threads given ``overlap_residual``.
    """

    def __init__(
        self,
        config: SystemConfig,
        workloads: Sequence[SyntheticWorkload],
        topology: Union[None, str, TopologySpec] = None,
        engine: Optional[str] = None,
        overlap_residual: Optional[float] = None,
    ) -> None:
        if overlap_residual is not None and not 0.0 <= overlap_residual <= 1.0:
            raise ValueError(f"overlap_residual must be in [0, 1], got {overlap_residual}")
        spec = resolve_topology(topology, config)
        num_cores = spec.num_cores
        if is_smt_run(spec, len(workloads)) != (overlap_residual is not None):
            raise ValueError(
                "SMT threads share one core and only they take an "
                f"overlap_residual (topology {spec.name!r}: {num_cores} core(s), "
                f"{len(workloads)} workload(s))"
            )
        self.name = "+".join(w.name for w in workloads)
        self.engine_name = engine_for(engine, len(workloads))
        self.system = System(config, tagged_size_policy(workloads), spec)
        cores = [
            Core(self.system, i, i if num_cores > 1 else 0)
            for i in range(len(workloads))
        ]
        streams = [w.record_stream() for w in workloads]
        if self.engine_name == "batched":
            self.engine = BatchedEngine(self.system, cores[0], streams[0])
        else:
            self.engine = ScalarEngine(self.system.stats, cores, streams, overlap_residual)

    def _run(self, instructions: int, records: Optional[int]) -> float:
        engine = self.engine
        return engine.run_until(instructions) if records is None else engine.run_records(records)

    def warmup(self, instructions: int = 0, records: Optional[int] = None) -> None:
        """Touch state, not statistics: run the window, then reset the
        machine's and the engine's counters at the boundary."""
        self._run(instructions, records)
        self.system.reset_stats()
        self.engine.reset_stats()

    def measure(self, instructions: int = 0, records: Optional[int] = None) -> float:
        """Run the measured window; returns (and records) its cycles."""
        cycles = self.system.stats.cycles = self._run(instructions, records)
        return cycles

    def result(self, config_label: str = "") -> SimulationResult:
        stats = self.system.stats
        # Structure counters are exported for single-core machines only;
        # multi-core reports carry SimStats alone.
        if len(self.system.cores) == 1:
            _export_adaptive(self.system, stats)
            _export_structures(self.system, stats)
        return SimulationResult(self.name, config_label, stats)


def simulate(
    config: SystemConfig,
    workload: SyntheticWorkload,
    warmup_instructions: int = DEFAULT_WARMUP,
    measure_instructions: int = DEFAULT_MEASURE,
    config_label: str = "",
    topology: Union[None, str, TopologySpec] = None,
    engine: Union[None, str] = None,
) -> SimulationResult:
    """Run one workload on one hardware thread.

    ``engine`` selects the execution engine (``spec`` or ``batched``; see
    :mod:`repro.kernel`); ``None`` is ``spec``.  Both engines produce
    bit-identical statistics.
    """
    session = Session(config, [workload], topology, engine)
    session.warmup(warmup_instructions)
    session.measure(measure_instructions)
    return session.result(config_label)


def simulate_smt(
    config: SystemConfig,
    workloads: Sequence[SyntheticWorkload],
    warmup_instructions: int = DEFAULT_WARMUP,
    measure_instructions: int = DEFAULT_MEASURE,
    config_label: str = "",
    overlap_residual: float = 0.25,
    topology: Union[None, str, TopologySpec] = None,
    engine: Union[None, str] = None,
) -> SimulationResult:
    """Co-locate two workloads on an SMT core with shared structures.

    ``overlap_residual`` is the fraction of the shorter thread's record
    cost that still contributes to elapsed cycles (shared issue bandwidth).
    Two streams run only on ``spec`` (:func:`repro.kernel.engine_for`).
    """
    session = Session(config, workloads, topology, engine, overlap_residual)
    session.warmup(warmup_instructions)
    session.measure(measure_instructions)
    return session.result(config_label)


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
    ``topology=None`` picks the ``multicore-N`` preset for N workloads:
    per-core front ends, MMUs, walkers and L2Cs, a shared LLC whose
    replacement policy is the configured ``llc_policy``, and a shared DRAM
    channel; any other topology with one core per workload (e.g. the
    ``shared-l2`` preset) drops in.  Two or more cores run only on
    ``spec`` (:func:`repro.kernel.engine_for`).
    """
    if topology is None:
        topology = multicore(config, len(workloads))
    session = Session(config, workloads, topology, engine)
    session.warmup(warmup_instructions)
    session.measure(measure_instructions)
    return session.result(config_label)
