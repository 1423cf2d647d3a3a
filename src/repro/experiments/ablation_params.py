"""Ablation: iTP's N/M and xPTP's K (Section 5.1 parameter exploration).

The paper reports that N and M cause little variation while K matters
most, with mid-stack values (K=6, K=8) best.  This entry regenerates the
sweep on the scaled system; both sweeps share one LRU baseline.
"""

from __future__ import annotations

from dataclasses import replace

from ..common.params import ITPConfig, XPTPConfig, scaled_config
from ..workloads.server import server_suite
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, Figure, Grid, Plan, Sweep, geomean

NM_VALUES = ((1, 2), (2, 4), (2, 8), (4, 8), (6, 8))
K_VALUES = (1, 2, 4, 6, 8)


def plan(server_count: int = 2, warmup: int = WARMUP, measure: int = MEASURE) -> Plan:
    base = scaled_config()
    variants = [("lru", base)]
    variants += [
        (f"itp N={n} M={m}", replace(
            base.with_policies(stlb="itp"), itp=ITPConfig(insert_depth_n=n, data_promote_m=m)
        ))
        for n, m in NM_VALUES
    ]
    variants += [
        (f"itp+xptp K={k}", replace(base.with_policies(stlb="itp", l2c="xptp"), xptp=XPTPConfig(k=k)))
        for k in K_VALUES
    ]
    return Plan({"server": Sweep(variants, server_suite(server_count))}, warmup, measure)


def reduce_nm(grid: Grid) -> FigureResult:
    result = FigureResult(
        figure="Ablation N/M",
        description="iTP insertion depth N and data-promotion height M sweep (iTP alone)",
        headers=["N", "M", "geomean_ipc_improvement_pct", "mean_impki", "mean_dmpki"],
        notes=["paper: N/M cause no significant performance variation"],
    )
    comparison = grid["server"]
    for n, m in NM_VALUES:
        label = f"itp N={n} M={m}"
        result.add_row(
            n, m, 100.0 * (geomean(comparison.speedups(label)) - 1.0),
            comparison.mean_metric(label, "stlb.impki"),
            comparison.mean_metric(label, "stlb.dmpki"),
        )
    return result


def reduce_k(grid: Grid) -> FigureResult:
    result = FigureResult(
        figure="Ablation K",
        description="xPTP eviction threshold K sweep (iTP+xPTP)",
        headers=["K", "geomean_ipc_improvement_pct", "mean_l2c_dtmpki"],
        notes=["paper: K has the highest impact; mid-stack values (6, 8) best"],
    )
    comparison = grid["server"]
    for k in K_VALUES:
        label = f"itp+xptp K={k}"
        result.add_row(
            k, 100.0 * (geomean(comparison.speedups(label)) - 1.0),
            comparison.mean_metric(label, "l2c.dtmpki"),
        )
    return result


def claims(results):
    nm_rows = results[0].as_dicts()
    k_rows = {r["K"]: r for r in results[1].as_dicts()}
    # Every (N, M) point of the sweep keeps the iTP trade: iMPKI below and
    # dMPKI above the workload's LRU levels seen at the widest setting.
    impki = [r["mean_impki"] for r in nm_rows]
    improvements = [r["geomean_ipc_improvement_pct"] for r in nm_rows]
    return {
        "N/M: every point keeps mean iMPKI < 4": max(impki) < 4.0,
        # "no significant variation"
        "N/M: gains vary by < 6 points": max(improvements) - min(improvements) < 6.0,
        # Larger K protects data PTEs more aggressively: dtMPKI decreases
        # monotonically-ish and K=8 clearly beats K=1 on PTE retention.
        "K: L2C dtMPKI at K=8 < at K=1":
            k_rows[8]["mean_l2c_dtmpki"] < k_rows[1]["mean_l2c_dtmpki"],
    }


FIGURE = Figure(
    "ablation_params", plan, (reduce_nm, reduce_k), claims,
    bench=dict(server_count=2, warmup=40_000, measure=120_000),
)
