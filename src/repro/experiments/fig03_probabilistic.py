"""Figure 3: IPC improvement of probabilistic instruction-priority LRU.

The motivation study: a modified STLB LRU evicts a *data* translation
with probability P (an *instruction* translation otherwise).  High P
(favouring instruction retention) should win, low P should lose —
exactly the asymmetry iTP exploits.
"""

from __future__ import annotations

from dataclasses import replace

from ..common.params import scaled_config
from ..workloads.server import server_suite
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, Figure, Grid, Plan, Sweep, geomean

P_VALUES = (0.2, 0.4, 0.6, 0.8)


def plan(server_count: int = 4, warmup: int = WARMUP, measure: int = MEASURE) -> Plan:
    base = scaled_config()
    variants = [("lru", base)] + [
        (f"problru_p{p}", replace(base.with_policies(stlb="problru"), problru_p=p))
        for p in P_VALUES
    ]
    return Plan({"server": Sweep(variants, server_suite(server_count))}, warmup, measure)


def reduce(grid: Grid) -> FigureResult:
    result = FigureResult(
        figure="Figure 3",
        description="IPC improvement of probabilistic LRU (evict data with prob P) vs LRU",
        headers=["P", "workload", "ipc_improvement_pct"],
        notes=["paper: P=0.8 gains a few %, P=0.2 loses; monotonic in P"],
    )
    comparison = grid["server"]
    for p in P_VALUES:
        ratios = comparison.speedups(f"problru_p{p}")
        for name, ratio in zip(comparison.cells, ratios):
            result.add_row(p, name, 100.0 * (ratio - 1.0))
        result.add_row(p, "GEOMEAN", 100.0 * (geomean(ratios) - 1.0))
    return result


def claims(results):
    rows = results[0].as_dicts()
    geomean = {r["P"]: r["ipc_improvement_pct"]
               for r in rows if r["workload"] == "GEOMEAN"}
    # Paper shape: protecting instructions (high P) wins; evicting them
    # (low P) is worse than keeping them.
    return {
        "P=0.8 gains": geomean[0.8] > 0,
        "P=0.8 beats P=0.2": geomean[0.8] > geomean[0.2],
    }


FIGURE = Figure(
    "fig03", plan, (reduce,), claims,
    bench=dict(server_count=3, warmup=50_000, measure=150_000),
)
