"""Figure 12: sensitivity of iTP and iTP+xPTP to the ITLB size.

For each ITLB size the baseline is an all-LRU system with the *same*
ITLB.  Expected shape: gains are stable for realistic sizes and shrink
once the ITLB is large enough to absorb the instruction footprint
(paper: noticeable drop at 1024 entries for single-thread).
"""

from __future__ import annotations

from dataclasses import replace

from ..common.params import TLBConfig, scaled_config
from ..workloads.mixes import smt_mixes
from ..workloads.server import server_suite
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, Figure, Grid, Plan, Sweep, variants_for

#: (scaled entries, full-scale equivalent), matching Figure 12's 64..1024.
ITLB_SIZES = ((16, 64), (32, 128), (128, 512), (256, 1024))
TECHNIQUES = ("lru", "itp", "itp+xptp")


def plan(
    server_count: int = 4, per_category: int = 1, warmup: int = WARMUP, measure: int = MEASURE
) -> Plan:
    sweeps = {}
    for entries, full_equiv in ITLB_SIZES:
        itlb = TLBConfig("ITLB", entries=entries, associativity=4, latency=1)
        variants = variants_for(TECHNIQUES, replace(scaled_config(), itlb=itlb))
        sweeps["1T", entries, full_equiv] = Sweep(variants, server_suite(server_count))
        sweeps["2T", entries, full_equiv] = Sweep(variants, smt_mixes(per_category))
    return Plan(sweeps, warmup, measure)


def reduce(grid: Grid) -> FigureResult:
    result = FigureResult(
        figure="Figure 12",
        description="iTP / iTP+xPTP geomean IPC improvement across ITLB sizes",
        headers=[
            "scenario", "itlb_entries", "full_scale_equiv", "technique",
            "geomean_ipc_improvement_pct",
        ],
        notes=["paper: consistent gains at 64-512 entries, reduced at 1024 (1T)"],
    )
    for (scenario, entries, full_equiv), comparison in grid.items():
        for technique in TECHNIQUES[1:]:
            result.add_row(
                scenario, entries, full_equiv, technique,
                comparison.geomean_improvement_percent(technique),
            )
    return result


def claims(results):
    one_t = {(r["itlb_entries"], r["technique"]): r["geomean_ipc_improvement_pct"]
             for r in results[0].as_dicts() if r["scenario"] == "1T"}
    # Paper shape: solid gains at realistic sizes; reduced gains once the
    # ITLB is large enough to absorb the instruction footprint.
    return {
        "1T: iTP+xPTP gains > 2% at 16 entries": one_t[(16, "itp+xptp")] > 2.0,
        "1T: iTP+xPTP gains shrink from 16 to 256 entries":
            one_t[(256, "itp+xptp")] < one_t[(16, "itp+xptp")],
    }


FIGURE = Figure(
    "fig12", plan, (reduce,), claims,
    bench=dict(server_count=3, per_category=1, warmup=50_000, measure=150_000),
)
