"""Figure 1: cycles spent on instruction address translation vs ITLB size.

The paper sweeps the ITLB from 8 to 1024 entries and shows that Qualcomm
Server workloads spend ~12.5 % of cycles on instruction address
translation at realistic sizes while SPEC spends ~0.03 %.  We sweep the
scaled equivalents (×1/4) and report the fraction of total cycles spent
in instruction translation per workload class.
"""

from __future__ import annotations

from dataclasses import replace

from ..common.params import TLBConfig, scaled_config
from ..workloads.server import server_suite
from ..workloads.speclike import spec_suite
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, Figure, Grid, Plan, Sweep

#: scaled ITLB entry counts and the full-scale sizes they stand for.
ITLB_SIZES = ((8, 32), (16, 64), (32, 128), (128, 512), (256, 1024))


def plan(
    server_count: int = 3, spec_count: int = 2, warmup: int = WARMUP, measure: int = MEASURE
) -> Plan:
    variants = []
    for entries, _full_equiv in ITLB_SIZES:
        itlb = TLBConfig("ITLB", entries=entries, associativity=4, latency=1)
        variants.append((f"itlb{entries}", replace(scaled_config(), itlb=itlb)))
    return Plan({
        "server": Sweep(variants, server_suite(server_count)),
        "spec": Sweep(variants, spec_suite(spec_count)),
    }, warmup, measure)


def reduce(grid: Grid) -> FigureResult:
    result = FigureResult(
        figure="Figure 1",
        description="% of cycles in instruction address translation vs ITLB size",
        headers=["class", "itlb_entries", "full_scale_equiv", "pct_cycles_instr_translation"],
        notes=["paper: server ~12.5% at 64-128 entries, SPEC ~0.03%; shrinks as ITLB grows"],
    )
    for entries, full_equiv in ITLB_SIZES:
        for label, comparison in grid.items():
            fractions = [
                100.0 * r.get("translation.instr_cycles") / max(1.0, r.get("cycles"))
                for r in comparison.results[f"itlb{entries}"].values()
            ]
            result.add_row(label, entries, full_equiv, sum(fractions) / len(fractions))
    return result


def claims(results):
    rows = results[0].as_dicts()
    server = {r["itlb_entries"]: r["pct_cycles_instr_translation"]
              for r in rows if r["class"] == "server"}
    spec = {r["itlb_entries"]: r["pct_cycles_instr_translation"]
            for r in rows if r["class"] == "spec"}
    # Paper shape: server pays far more than SPEC at realistic sizes, and
    # the cost falls as the ITLB grows.
    return {
        "server pays >10x SPEC at 16 entries": server[16] > 10 * max(spec[16], 1e-6),
        "server cost falls from 8 to 256 entries": server[256] < server[8],
    }


FIGURE = Figure(
    "fig01", plan, (reduce,), claims,
    bench=dict(server_count=2, spec_count=2, warmup=40_000, measure=120_000),
)
