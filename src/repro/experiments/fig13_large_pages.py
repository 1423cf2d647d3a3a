"""Figure 13: allocating code and data on 2 MB pages.

Sweeps the fraction of the code+data footprint backed by 2 MB pages
(0/10/50/100 %).  Expected shape: all techniques' gains shrink as 2 MB
coverage grows (fewer STLB misses to optimise), with iTP+xPTP best at
every point and still positive at 100 %.
"""

from __future__ import annotations

from ..workloads.mixes import smt_mixes
from ..workloads.server import server_suite
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, Figure, Grid, Plan, Sweep, variants_for

PERCENTS = (0, 10, 50, 100)
TECHNIQUES = ("lru", "tdrrip", "ptp", "chirp", "itp+xptp")


def plan(
    server_count: int = 3, per_category: int = 1, warmup: int = WARMUP, measure: int = MEASURE
) -> Plan:
    variants = variants_for(TECHNIQUES)
    sweeps = {}
    for pct in PERCENTS:
        sweeps["1T", pct] = Sweep(variants, server_suite(server_count, large_page_percent=pct))
        sweeps["2T", pct] = Sweep(variants, smt_mixes(per_category, large_page_percent=pct))
    return Plan(sweeps, warmup, measure)


def reduce(grid: Grid) -> FigureResult:
    result = FigureResult(
        figure="Figure 13",
        description="IPC improvement vs LRU as 2MB-page coverage of the footprint grows",
        headers=["scenario", "pct_2mb", "technique", "geomean_ipc_improvement_pct"],
        notes=[
            "paper (1T): iTP+xPTP 18.9/10.1/~0/~0 at 0/10/50/100%; "
            "(2T): 11.4/8.4/5.9/4.2 — gains shrink with 2MB coverage",
        ],
    )
    for (scenario, pct), comparison in grid.items():
        for technique in TECHNIQUES[1:]:
            result.add_row(
                scenario, pct, technique, comparison.geomean_improvement_percent(technique)
            )
    return result


def claims(results):
    rows = results[0].as_dicts()
    xptp_1t = {r["pct_2mb"]: r["geomean_ipc_improvement_pct"]
               for r in rows if r["scenario"] == "1T" and r["technique"] == "itp+xptp"}
    zero = {r["technique"]: r["geomean_ipc_improvement_pct"]
            for r in rows if r["scenario"] == "1T" and r["pct_2mb"] == 0}
    # Paper shape: all techniques' benefits shrink as 2 MB coverage grows,
    # and at 0% iTP+xPTP is the best technique.
    return {
        "1T: iTP+xPTP at 0% > at 50% - 0.5": xptp_1t[0] > xptp_1t[50] - 0.5,
        "1T: iTP+xPTP at 0% > at 100%": xptp_1t[0] > xptp_1t[100],
        "1T: iTP+xPTP is the best technique at 0%": zero["itp+xptp"] == max(zero.values()),
    }


FIGURE = Figure(
    "fig13", plan, (reduce,), claims,
    bench=dict(server_count=2, per_category=1, warmup=50_000, measure=150_000),
)
