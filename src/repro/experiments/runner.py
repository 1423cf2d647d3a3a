"""Shared experiment machinery.

Encodes Table 2 (the policy matrix) and the figure registry's building
blocks: a :class:`Plan` names a figure's simulations as sweeps of
variants x cells, :func:`run_plan` submits a whole plan in one runner
call and returns its result grid (one :class:`Comparison` per sweep), and
a :class:`Figure` pairs a plan with the reducers that turn the grid into
:class:`~repro.experiments.reporting.FigureResult` rows and the claims
checked on those rows.  All experiments run on the 1/4-scale system of
:func:`repro.common.params.scaled_config` against the scaled workload
suites (DESIGN.md §3).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from ..common.params import SystemConfig, scaled_config
from ..core.simulator import SimulationResult
from ..fabric import ParallelRunner, SimJob, run_iter
from ..topology.spec import TopologySpec
from ..topology.suites import SUITES, suite_for
from ..workloads.base import SyntheticWorkload
from ..workloads.mixes import SMTMix
from .reporting import FigureResult

#: Default simulation windows (instructions).  The paper uses 50 M + 100 M;
#: these are scaled for Python speed (DESIGN.md §3).
WARMUP = 60_000
MEASURE = 200_000

#: Table 2 of the paper: technique -> replacement policy per structure
#: (structures not listed use LRU).  Derived from the policy-suite registry
#: (:data:`repro.topology.suites.SUITES`) — the single source of truth for
#: technique names, ordering and per-structure assignments.
POLICY_MATRIX: "OrderedDict[str, Dict[str, str]]" = OrderedDict(
    (name, suite.policies()) for name, suite in SUITES.items()
)


def config_for(technique: str, base: Optional[SystemConfig] = None) -> SystemConfig:
    """System configuration for a Table 2 technique name.

    Unknown techniques raise a ``ValueError`` whose candidate list comes
    from the suite registry itself.
    """
    suite = suite_for(technique)
    base = base or scaled_config()
    return suite.apply(base)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; empty input returns 0."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: One simulated column of a sweep: a job label and its configuration.
Variant = Tuple[str, SystemConfig]
#: One row of a sweep: a single-thread workload or a two-thread SMT mix.
Cell = Union[SyntheticWorkload, SMTMix]


def variants_for(names: Sequence[str], base: Optional[SystemConfig] = None) -> List[Variant]:
    """Table 2 techniques as variants, labelled by technique name."""
    return [(name, config_for(name, base)) for name in names]


@dataclass
class Comparison:
    """One sweep's results: variant label -> cell name -> result.

    Every variant ran on every cell; ``baseline`` is the variant the
    speedups divide by.
    """

    baseline: str
    results: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)
    cells: Dict[str, Cell] = field(default_factory=dict)

    def speedups(self, technique: str) -> List[float]:
        """Per-workload IPC ratios vs the baseline technique."""
        base = self.results[self.baseline]
        return [
            self.results[technique][w].ipc / base[w].ipc
            for w in self.results[technique]
            if base[w].ipc > 0
        ]

    def geomean_speedup(self, technique: str) -> float:
        return geomean(self.speedups(technique))

    def geomean_improvement_percent(self, technique: str) -> float:
        return 100.0 * (self.geomean_speedup(technique) - 1.0)

    def mean_metric(self, technique: str, metric: str) -> float:
        rows = self.results[technique]
        if not rows:
            return 0.0
        return sum(r.get(metric) for r in rows.values()) / len(rows)


@dataclass(frozen=True)
class Sweep:
    """Every variant on every cell; the first variant is the baseline."""

    variants: Sequence[Variant]
    cells: Sequence[Cell]


#: A plan's result grid: sweep key -> that sweep's comparison.
Grid = Dict[Hashable, Comparison]


@dataclass(frozen=True)
class Plan:
    """A figure's simulations: named sweeps over one pair of windows."""

    sweeps: Mapping[Hashable, Sweep]
    warmup: int = WARMUP
    measure: int = MEASURE

    def jobs(self, topology: Union[None, str, TopologySpec] = None) -> List[SimJob]:
        """The plan's cells in sweep, variant, cell order."""
        return [
            SimJob(config, cell.workloads if isinstance(cell, SMTMix) else (cell,),
                   self.warmup, self.measure, label=label, topology=topology)
            for sweep in self.sweeps.values()
            for label, config in sweep.variants
            for cell in sweep.cells
        ]


def run_plan(
    plan: Plan,
    runner: Optional[ParallelRunner] = None,
    topology: Union[None, str, TopologySpec] = None,
) -> Grid:
    """Submit the whole plan as one matrix and place results by index.

    ``run_iter`` yields cells as they settle (cached cells immediately,
    simulated cells in completion order), so progress is visible while the
    matrix is still running; placement by index keeps the grid independent
    of completion order.
    """
    jobs = plan.jobs(topology)
    settled: List[Optional[SimulationResult]] = [None] * len(jobs)
    for index, _report, result in run_iter(jobs, runner):
        settled[index] = result
    results = iter(settled)
    grid: Grid = {}
    for key, sweep in plan.sweeps.items():
        comparison = Comparison(
            baseline=sweep.variants[0][0],
            cells={cell.name: cell for cell in sweep.cells},
        )
        for label, _config in sweep.variants:
            comparison.results[label] = {name: next(results) for name in comparison.cells}
        grid[key] = comparison
    return grid


@dataclass(frozen=True)
class Figure:
    """One registry entry: a figure's plan, reducers and claims.

    ``plan`` maps scale keywords (suite sizes, windows) to the
    :class:`Plan`; each reducer turns the grid into one
    :class:`FigureResult`; ``claims`` maps the reduced results to named
    verdicts (the paper's orderings), and ``bench`` is the scale the
    benchmark suite checks them at.
    """

    name: str
    plan: Callable[..., Plan]
    reducers: Sequence[Callable[[Grid], FigureResult]]
    claims: Callable[[Sequence[FigureResult]], Dict[str, bool]]
    bench: Mapping[str, object] = field(default_factory=dict)

    def run(
        self,
        runner: Optional[ParallelRunner] = None,
        topology: Union[None, str, TopologySpec] = None,
        **scale: object,
    ) -> List[FigureResult]:
        """Run the plan at ``scale`` (default: the plan's defaults) and reduce it."""
        grid = run_plan(self.plan(**scale), runner, topology)
        return [reduce(grid) for reduce in self.reducers]
