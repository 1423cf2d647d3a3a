"""Figure 9: MPKI and average miss latency at the STLB, L2C and LLC.

Explains Figure 8: iTP+xPTP slightly cuts STLB MPKI, halves STLB miss
latency (data walks become L2C hits), raises L2C MPKI while cutting L2C
miss latency, and lowers LLC MPKI.

Deviation note (see EXPERIMENTS.md): the paper reports a 46% STLB
miss-latency cut for iTP+xPTP because unprotected data walks are
DRAM-bound at full scale; at this reproduction's horizons the LLC retains
PTE lines, so the cut is present but smaller (~10-20%).  The directional
claims capture the paper's shape.
"""

from __future__ import annotations

from typing import Sequence

from ..workloads.mixes import smt_mixes
from ..workloads.server import server_suite
from .reporting import FigureResult
from .runner import (
    MEASURE,
    POLICY_MATRIX,
    WARMUP,
    Comparison,
    Figure,
    Plan,
    Sweep,
    variants_for,
)

LEVELS = ("stlb", "l2c", "llc")


def plan(
    techniques: Sequence[str] = tuple(POLICY_MATRIX),
    server_count: int = 4,
    per_category: int = 1,
    warmup: int = WARMUP,
    measure: int = MEASURE,
) -> Plan:
    variants = variants_for(techniques)
    return Plan({
        "1T": Sweep(variants, server_suite(server_count)),
        "2T": Sweep(variants, smt_mixes(per_category)),
    }, warmup, measure)


def as_figure(comparison: Comparison, figure: str, description: str) -> FigureResult:
    result = FigureResult(
        figure=figure,
        description=description,
        headers=[
            "technique",
            "stlb_mpki", "stlb_avg_miss_lat",
            "l2c_mpki", "l2c_dtmpki", "l2c_avg_miss_lat",
            "llc_mpki", "llc_avg_miss_lat",
        ],
        notes=[
            "paper (1T): iTP+xPTP cuts STLB miss latency 170.9->92.3, raises L2C MPKI "
            "30.6->46.5, cuts LLC MPKI 13.8->8.4 and L2C miss latency by 47.5%",
        ],
    )
    for technique in comparison.results:
        row = [technique]
        for level in LEVELS:
            row.append(comparison.mean_metric(technique, f"{level}.mpki"))
            if level == "l2c":
                # Section 6.2: the data-PTE component of L2C misses is the
                # quantity xPTP exists to reduce.
                row.append(comparison.mean_metric(technique, "l2c.dtmpki"))
            row.append(comparison.mean_metric(technique, f"{level}.avg_miss_latency"))
        result.add_row(*row)
    return result


def claims(results):
    single = {r["technique"]: r for r in results[0].as_dicts()}
    return {
        # iTP+xPTP lowers the average STLB miss latency vs both LRU and iTP
        # alone (data walks become L2C hits)...
        "iTP+xPTP STLB miss latency < 0.95x LRU":
            single["itp+xptp"]["stlb_avg_miss_lat"] < 0.95 * single["lru"]["stlb_avg_miss_lat"],
        "iTP+xPTP STLB miss latency < iTP":
            single["itp+xptp"]["stlb_avg_miss_lat"] < single["itp"]["stlb_avg_miss_lat"],
        # ...raises L2C MPKI slightly (PTE blocks displace demand blocks)
        # while *cutting* the L2C miss latency, and lowers LLC MPKI — the
        # Figure 9 shape.
        "iTP+xPTP L2C MPKI >= LRU - 0.5":
            single["itp+xptp"]["l2c_mpki"] >= single["lru"]["l2c_mpki"] - 0.5,
        "iTP+xPTP L2C miss latency < LRU":
            single["itp+xptp"]["l2c_avg_miss_lat"] < single["lru"]["l2c_avg_miss_lat"],
        "iTP+xPTP LLC MPKI <= LRU":
            single["itp+xptp"]["llc_mpki"] <= single["lru"]["llc_mpki"],
    }


FIGURE = Figure(
    "fig09",
    plan,
    (
        lambda grid: as_figure(
            grid["1T"], "Figure 9 (1T)", "MPKI / avg miss latency per level, single thread"),
        lambda grid: as_figure(
            grid["2T"], "Figure 9 (2T)", "MPKI / avg miss latency per level, SMT"),
    ),
    claims,
    bench=dict(
        techniques=("lru", "tdrrip", "ptp", "itp", "itp+xptp"),
        server_count=3, per_category=1, warmup=50_000, measure=150_000,
    ),
)
