"""Figure 14: unified STLB with iTP+xPTP vs split STLB designs.

Compares, against a baseline unified STLB with LRU (scaled: 384 entries):

* unified STLB + iTP+xPTP (same capacity);
* split STLB (half capacity each for instruction/data) with LRU;
* 2x-capacity variants of both.

Expected shape (Section 6.6): an equal-capacity split STLB is slightly
behind unified iTP+xPTP; doubling the split STLB's capacity roughly
matches the 1x unified iTP+xPTP; the 2x unified STLB with iTP+xPTP beats
the 2x split design.
"""

from __future__ import annotations

from dataclasses import replace

from ..common.params import TLBConfig, scaled_config
from ..workloads.server import server_suite
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, Figure, Grid, Plan, Sweep

#: Scaled entries of the baseline unified STLB.
BASE_ENTRIES = 384


def _stlb(entries: int, name: str = "STLB") -> TLBConfig:
    return TLBConfig(name, entries=entries, associativity=12, latency=8, mshr_entries=16)


def plan(server_count: int = 4, warmup: int = WARMUP, measure: int = MEASURE) -> Plan:
    base = scaled_config()
    designs = [
        ("unified-1x LRU (baseline)", replace(base, stlb=_stlb(BASE_ENTRIES))),
        (
            "unified-1x iTP+xPTP",
            replace(base, stlb=_stlb(BASE_ENTRIES)).with_policies(stlb="itp", l2c="xptp"),
        ),
        (
            "split-1x LRU",
            replace(
                base,
                stlb=_stlb(BASE_ENTRIES // 2, "DSTLB"),
                istlb=_stlb(BASE_ENTRIES // 2, "ISTLB"),
            ),
        ),
        (
            "unified-2x iTP+xPTP",
            replace(base, stlb=_stlb(BASE_ENTRIES * 2)).with_policies(stlb="itp", l2c="xptp"),
        ),
        (
            "split-2x LRU",
            replace(base, stlb=_stlb(BASE_ENTRIES, "DSTLB"), istlb=_stlb(BASE_ENTRIES, "ISTLB")),
        ),
    ]
    return Plan({"server": Sweep(designs, server_suite(server_count))}, warmup, measure)


def reduce(grid: Grid) -> FigureResult:
    result = FigureResult(
        figure="Figure 14",
        description="Unified STLB with iTP+xPTP vs split STLB (scaled entries)",
        headers=["design", "geomean_ipc_improvement_pct"],
        notes=[
            "paper: split-1x slightly behind unified-1x iTP+xPTP; unified-2x iTP+xPTP "
            "beats split-2x",
        ],
    )
    comparison = grid["server"]
    for design in comparison.results:
        result.add_row(design, comparison.geomean_improvement_percent(design))
    return result


def claims(results):
    rows = {r["design"]: r["geomean_ipc_improvement_pct"] for r in results[0].as_dicts()}
    # Paper shape: equal-capacity split STLB is behind unified iTP+xPTP;
    # the 2x unified iTP+xPTP beats the 2x split design.
    return {
        "unified-1x iTP+xPTP > split-1x LRU":
            rows["unified-1x iTP+xPTP"] > rows["split-1x LRU"],
        "unified-2x iTP+xPTP > split-2x LRU":
            rows["unified-2x iTP+xPTP"] > rows["split-2x LRU"],
    }


FIGURE = Figure(
    "fig14", plan, (reduce,), claims,
    bench=dict(server_count=3, warmup=50_000, measure=150_000),
)
