"""Figure 11: sensitivity to the LLC replacement policy.

iTP and iTP+xPTP are evaluated with LRU, SHiP and Mockingjay driving LLC
replacement.  Each scenario's baseline uses LRU at STLB and L2C but the
*same* LLC policy, per Section 6.3.  Expected shape: iTP's gains are
stable across LLC policies; iTP+xPTP gains are large with LRU/SHiP and
smaller with Mockingjay.
"""

from __future__ import annotations

from ..common.params import scaled_config
from ..workloads.mixes import smt_mixes
from ..workloads.server import server_suite
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, Figure, Grid, Plan, Sweep, variants_for

LLC_POLICIES = ("lru", "ship", "mockingjay")
TECHNIQUES = ("lru", "itp", "itp+xptp")


def plan(
    server_count: int = 4, per_category: int = 1, warmup: int = WARMUP, measure: int = MEASURE
) -> Plan:
    sweeps = {}
    for llc in LLC_POLICIES:
        variants = variants_for(TECHNIQUES, scaled_config().with_policies(llc=llc))
        sweeps["1T", llc] = Sweep(variants, server_suite(server_count))
        sweeps["2T", llc] = Sweep(variants, smt_mixes(per_category))
    return Plan(sweeps, warmup, measure)


def reduce(grid: Grid) -> FigureResult:
    result = FigureResult(
        figure="Figure 11",
        description="iTP / iTP+xPTP geomean IPC improvement under different LLC policies",
        headers=["scenario", "llc_policy", "technique", "geomean_ipc_improvement_pct"],
        notes=[
            "paper (1T): iTP 2.2/2.3/1.4 and iTP+xPTP 18.9/15.8/1.6 for LRU/SHiP/Mockingjay",
        ],
    )
    for (scenario, llc), comparison in grid.items():
        for technique in TECHNIQUES[1:]:
            result.add_row(
                scenario, llc, technique, comparison.geomean_improvement_percent(technique)
            )
    return result


def claims(results):
    one_t = {(r["llc_policy"], r["technique"]): r["geomean_ipc_improvement_pct"]
             for r in results[0].as_dicts() if r["scenario"] == "1T"}
    # Paper shape: iTP gains are consistent across LLC policies, and
    # iTP+xPTP adds on top of iTP for every LLC policy.
    llcs = ("lru", "ship", "mockingjay")
    return {
        "1T: iTP > -1% under every LLC policy": all(
            one_t[(llc, "itp")] > -1.0 for llc in llcs
        ),
        "1T: iTP+xPTP >= iTP - 0.5 under every LLC policy": all(
            one_t[(llc, "itp+xptp")] >= one_t[(llc, "itp")] - 0.5 for llc in llcs
        ),
    }


FIGURE = Figure(
    "fig11", plan, (reduce,), claims,
    bench=dict(server_count=3, per_category=1, warmup=50_000, measure=150_000),
)
