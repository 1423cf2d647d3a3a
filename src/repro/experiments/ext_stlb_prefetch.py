"""Extension study: STLB prefetching with and without iTP+xPTP (Section 7).

The paper states iTP is orthogonal to STLB prefetching.  This entry
measures a sequential and a distance translation prefetcher on the LRU
baseline and on top of iTP+xPTP; the first scheme is the baseline.
"""

from __future__ import annotations

from dataclasses import replace

from ..common.params import scaled_config
from ..workloads.server import server_suite
from .reporting import FigureResult
from .runner import MEASURE, WARMUP, Figure, Grid, Plan, Sweep

SCHEMES = (
    ("lru", {}, None),
    ("lru+seq-pf", {}, "sequential"),
    ("lru+dist-pf", {}, "distance"),
    ("itp+xptp", {"stlb": "itp", "l2c": "xptp"}, None),
    ("itp+xptp+seq-pf", {"stlb": "itp", "l2c": "xptp"}, "sequential"),
)


def plan(server_count: int = 3, warmup: int = WARMUP, measure: int = MEASURE) -> Plan:
    base = scaled_config()
    variants = [
        (name, replace(base.with_policies(**policies), stlb_prefetcher=prefetcher))
        for name, policies, prefetcher in SCHEMES
    ]
    return Plan({"server": Sweep(variants, server_suite(server_count))}, warmup, measure)


def reduce(grid: Grid) -> FigureResult:
    result = FigureResult(
        figure="Extension: STLB prefetching",
        description="Translation prefetchers on LRU and on iTP+xPTP (Section 7)",
        headers=[
            "scheme", "geomean_ipc_improvement_pct", "mean_stlb_mpki",
            "mean_pf_fills_pki",
        ],
        notes=["paper: iTP is orthogonal to STLB prefetching (no numbers given)"],
    )
    comparison = grid["server"]
    for name, rows in comparison.results.items():
        fills = [
            1000.0 * r.get("stlb.prefetch_fills") / r.get("instructions") for r in rows.values()
        ]
        result.add_row(
            name,
            comparison.geomean_improvement_percent(name),
            comparison.mean_metric(name, "stlb.mpki"),
            sum(fills) / len(fills),
        )
    return result


def claims(results):
    rows = {r["scheme"]: r for r in results[0].as_dicts()}
    return {
        # Sequential prefetching exploits the code stream's page sequentiality.
        "sequential prefetching gains > 0.5% on LRU":
            rows["lru+seq-pf"]["geomean_ipc_improvement_pct"] > 0.5,
        # And it composes with iTP+xPTP (orthogonality).
        "sequential prefetching adds to iTP+xPTP": (
            rows["itp+xptp+seq-pf"]["geomean_ipc_improvement_pct"]
            > rows["itp+xptp"]["geomean_ipc_improvement_pct"]
        ),
        # The prefetchers actually prefetch.
        "sequential prefetcher fills > 1 per kI": rows["lru+seq-pf"]["mean_pf_fills_pki"] > 1.0,
    }


FIGURE = Figure(
    "ext_stlb_prefetch", plan, (reduce,), claims,
    bench=dict(server_count=3, warmup=50_000, measure=150_000),
)
