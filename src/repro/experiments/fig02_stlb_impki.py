"""Figure 2: STLB MPKI due to instruction references, server vs SPEC.

The paper measures up to ~0.9 instruction STLB MPKI for Qualcomm Server
workloads and near-zero for SPEC (whose code fits the ITLB).  We report
the per-workload instruction STLB MPKI and the class means on the scaled
system.
"""

from __future__ import annotations

from ..common.params import scaled_config
from ..workloads.server import server_suite
from ..workloads.speclike import spec_suite
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, Figure, Grid, Plan, Sweep


def plan(
    server_count: int = 4, spec_count: int = 3, warmup: int = WARMUP, measure: int = MEASURE
) -> Plan:
    cfg = scaled_config()
    return Plan({
        "server": Sweep([("server", cfg)], server_suite(server_count)),
        "spec": Sweep([("spec", cfg)], spec_suite(spec_count)),
    }, warmup, measure)


def reduce(grid: Grid) -> FigureResult:
    result = FigureResult(
        figure="Figure 2",
        description="STLB MPKI for instruction references (server vs SPEC)",
        headers=["class", "workload", "stlb_impki"],
        notes=["paper: server up to 0.9 iMPKI, SPEC negligible"],
    )
    for label, comparison in grid.items():
        values = []
        for name, r in comparison.results[label].items():
            values.append(r.get("stlb.impki"))
            result.add_row(label, name, values[-1])
        result.add_row(label, "MEAN", sum(values) / len(values))
    return result


def claims(results):
    rows = results[0].as_dicts()
    server_mean = next(r for r in rows if r["class"] == "server" and r["workload"] == "MEAN")
    spec_mean = next(r for r in rows if r["class"] == "spec" and r["workload"] == "MEAN")
    # Paper shape: server iMPKI substantial, SPEC negligible.
    return {
        "server mean iMPKI > 0.5": server_mean["stlb_impki"] > 0.5,
        "SPEC mean iMPKI < 0.05": spec_mean["stlb_impki"] < 0.05,
    }


FIGURE = Figure(
    "fig02", plan, (reduce,), claims,
    bench=dict(server_count=4, spec_count=3, warmup=40_000, measure=120_000),
)
