"""Figure 10: STLB MPKI breakdown (iMPKI vs dMPKI), LRU vs iTP.

The signature result of iTP: instruction STLB MPKI drops substantially
while data STLB MPKI rises — the deliberate trade Section 4.1 makes.
"""

from __future__ import annotations

from ..workloads.mixes import smt_mixes
from ..workloads.server import server_suite
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, Figure, Grid, Plan, Sweep, variants_for

TECHNIQUES = ("lru", "itp")


def plan(
    server_count: int = 4, per_category: int = 1, warmup: int = WARMUP, measure: int = MEASURE
) -> Plan:
    variants = variants_for(TECHNIQUES)
    return Plan({
        "1T": Sweep(variants, server_suite(server_count)),
        "2T": Sweep(variants, smt_mixes(per_category)),
    }, warmup, measure)


def reduce(grid: Grid) -> FigureResult:
    result = FigureResult(
        figure="Figure 10",
        description="STLB MPKI breakdown: instruction (iMPKI) vs data (dMPKI), LRU vs iTP",
        headers=["scenario", "technique", "impki", "dmpki"],
        notes=["paper: iTP reduces iMPKI and increases dMPKI in both scenarios"],
    )
    for scenario, comparison in grid.items():
        for technique in TECHNIQUES:
            result.add_row(
                scenario,
                technique,
                comparison.mean_metric(technique, "stlb.impki"),
                comparison.mean_metric(technique, "stlb.dmpki"),
            )
    return result


def claims(results):
    by_key = {(r["scenario"], r["technique"]): r for r in results[0].as_dicts()}
    # iTP trades data misses for instruction hits in both scenarios.
    return {
        "iTP cuts STLB iMPKI (1T and 2T)": all(
            by_key[(scenario, "itp")]["impki"] < by_key[(scenario, "lru")]["impki"]
            for scenario in ("1T", "2T")
        ),
        "iTP raises STLB dMPKI (1T and 2T)": all(
            by_key[(scenario, "itp")]["dmpki"] > by_key[(scenario, "lru")]["dmpki"]
            for scenario in ("1T", "2T")
        ),
    }


FIGURE = Figure(
    "fig10", plan, (reduce,), claims,
    bench=dict(server_count=3, per_category=1, warmup=50_000, measure=150_000),
)
