"""Hot-path throughput benchmark harness.

Measures simulator throughput — trace records, committed instructions and
simulated cycles per wall-clock second — for each Table 2 technique on the
Figure 8 single-thread workload set.  The measurement loop is *record
bounded* (not instruction bounded) so every run executes exactly the same
deterministic record sequence regardless of how fast it goes, which makes
the records/sec figures comparable across code versions.

Results are written as JSON (``BENCH_hotpath.json`` by default) so the PR
that introduced this harness — and every PR after it — can regress against
a committed baseline:

    PYTHONPATH=src python -m repro.bench --output BENCH_hotpath.json
    PYTHONPATH=src python -m repro.bench --baseline benchmarks/hotpath_baseline.json

The ``--baseline`` check compares the aggregate records/sec geomean and
exits non-zero if throughput dropped below ``--min-ratio`` (default 0.7,
i.e. a 30 % regression budget for CI runner noise).

``--engines`` adds the execution engine (:mod:`repro.kernel`) as a matrix
dimension: each (technique, workload) cell is timed once per engine over
the identical record window, the report carries per-engine geomeans
(schema 2), and ``--min-speedup`` gates the batched/spec throughput ratio
so the batched kernel cannot silently rot back to scalar speed.  The
top-level ``aggregate`` block always reflects the *first* engine listed
(``spec`` in the committed baseline), keeping ``--baseline`` comparisons
meaningful across schema versions.

See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence

from ..common.params import SystemConfig
from ..core.simulator import Session
from ..experiments.runner import POLICY_MATRIX, config_for
from ..kernel import DEFAULT_ENGINE, ENGINES
from ..workloads.base import SyntheticWorkload
from ..workloads.server import server_suite

#: Default benchmark windows, in trace records (a record averages ~3
#: instructions on the server workloads).
DEFAULT_WARMUP_RECORDS = 4_000
DEFAULT_MEASURE_RECORDS = 20_000

#: Techniques benchmarked by default: the paper's headline configurations,
#: covering every hot replacement path (plain LRU stacks, iTP depth
#: placement, xPTP victim scans, RRIP counters).
DEFAULT_TECHNIQUES = ("lru", "itp", "itp+xptp", "tdrrip")


def bench_cell(
    technique: str,
    workload: SyntheticWorkload,
    warmup_records: int = DEFAULT_WARMUP_RECORDS,
    measure_records: int = DEFAULT_MEASURE_RECORDS,
    base_config: Optional[SystemConfig] = None,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, float]:
    """Time one (technique, workload, engine) cell; returns its metrics.

    Both engines execute the identical record window and produce identical
    statistics (the differential suite enforces this); only wall time and —
    for the batched engine — the fast-path coverage differ.
    """
    session = Session(config_for(technique, base_config), [workload], engine=engine)
    session.warmup(records=warmup_records)
    start = time.perf_counter()
    cycles = session.measure(records=measure_records)
    wall = max(time.perf_counter() - start, 1e-9)
    stats = session.system.stats
    cell = {
        "technique": technique,
        "workload": workload.name,
        "engine": session.engine_name,
        "records": float(measure_records),
        "instructions": float(stats.instructions),
        "cycles": cycles,
        "wall_seconds": wall,
        "records_per_sec": measure_records / wall,
        "instructions_per_sec": stats.instructions / wall,
        "cycles_per_sec": cycles / wall,
        "ipc": stats.ipc,
    }
    if session.engine_name == "batched":
        cell["fast_path_coverage"] = session.engine.fast_path_coverage
    return cell


def _geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _engine_geomeans(cells: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {
        "records_per_sec_geomean": _geomean([c["records_per_sec"] for c in cells]),
        "instructions_per_sec_geomean": _geomean(
            [c["instructions_per_sec"] for c in cells]
        ),
        "cycles_per_sec_geomean": _geomean([c["cycles_per_sec"] for c in cells]),
    }


def run_bench(
    techniques: Optional[Sequence[str]] = None,
    workload_count: int = 2,
    warmup_records: int = DEFAULT_WARMUP_RECORDS,
    measure_records: int = DEFAULT_MEASURE_RECORDS,
    repeats: int = 1,
    verbose: bool = True,
    engines: Optional[Sequence[str]] = None,
) -> Dict:
    """Benchmark every (technique, workload, engine) cell and aggregate.

    With ``repeats > 1`` each cell is timed that many times and the fastest
    repeat is kept (standard practice: the minimum is the least noisy
    estimator of the true cost).

    ``engines`` defaults to ``("spec",)``.  The top-level ``aggregate``
    block reflects the first engine listed (so spec-only baselines stay
    comparable); ``aggregate["per_engine"]`` carries one geomean block per
    engine for speedup gating via :func:`compare_engines`.
    """
    techniques = list(techniques or DEFAULT_TECHNIQUES)
    unknown = [t for t in techniques if t not in POLICY_MATRIX]
    if unknown:
        raise ValueError(f"unknown technique(s): {', '.join(unknown)}")
    engines = list(engines or (DEFAULT_ENGINE,))
    bad = [e for e in engines if e not in ENGINES]
    if bad:
        raise ValueError(f"unknown engine(s): {', '.join(bad)}")
    workloads = server_suite(workload_count)

    cells: List[Dict[str, float]] = []
    for engine in engines:
        for technique in techniques:
            for workload in workloads:
                best: Optional[Dict[str, float]] = None
                for _ in range(max(1, repeats)):
                    cell = bench_cell(
                        technique, workload, warmup_records, measure_records,
                        engine=engine,
                    )
                    if best is None or cell["wall_seconds"] < best["wall_seconds"]:
                        best = cell
                cells.append(best)
                if verbose:
                    cov = best.get("fast_path_coverage")
                    cov_txt = f"  cov={cov:.1%}" if cov is not None else ""
                    print(
                        f"  {engine:>7s} {technique:>12s} / {best['workload']:<12s} "
                        f"{best['records_per_sec']:>10.0f} rec/s  "
                        f"{best['instructions_per_sec']:>10.0f} instr/s  "
                        f"{best['cycles_per_sec']:>12.0f} cyc/s{cov_txt}",
                        file=sys.stderr,
                    )

    per_engine = {
        engine: _engine_geomeans([c for c in cells if c["engine"] == engine])
        for engine in engines
    }
    aggregate = dict(per_engine[engines[0]])
    aggregate["per_engine"] = per_engine
    return {
        "schema": 2,
        "kind": "repro.bench.hotpath",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "params": {
            "techniques": techniques,
            "engines": engines,
            "workload_count": workload_count,
            "warmup_records": warmup_records,
            "measure_records": measure_records,
            "repeats": repeats,
        },
        "cells": cells,
        "aggregate": aggregate,
    }


def compare_to_baseline(current: Dict, baseline: Dict, min_ratio: float) -> Dict:
    """Compare two bench reports on the aggregate records/sec geomean.

    Returns a summary dict with ``ratio`` (current / baseline) and ``ok``
    (True iff the ratio is at least ``min_ratio``).
    """
    cur = current["aggregate"]["records_per_sec_geomean"]
    base = baseline["aggregate"]["records_per_sec_geomean"]
    ratio = cur / base if base > 0 else float("inf")
    return {
        "current_records_per_sec": cur,
        "baseline_records_per_sec": base,
        "ratio": ratio,
        "min_ratio": min_ratio,
        "ok": ratio >= min_ratio,
    }


def compare_engines(report: Dict, min_speedup: float) -> Dict:
    """Gate the batched/spec throughput ratio within one schema-2 report.

    Returns a summary dict with ``speedup`` (batched geomean / spec geomean
    on records/sec) and ``ok`` (True iff speedup >= ``min_speedup``).
    Raises :class:`ValueError` when the report lacks either engine.
    """
    per_engine = report.get("aggregate", {}).get("per_engine", {})
    missing = [e for e in ("spec", "batched") if e not in per_engine]
    if missing:
        raise ValueError(
            f"report lacks per-engine aggregates for: {', '.join(missing)}; "
            "run with engines=('spec', 'batched')"
        )
    spec = per_engine["spec"]["records_per_sec_geomean"]
    batched = per_engine["batched"]["records_per_sec_geomean"]
    speedup = batched / spec if spec > 0 else float("inf")
    return {
        "spec_records_per_sec": spec,
        "batched_records_per_sec": batched,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "ok": speedup >= min_speedup,
    }


def load_report(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_report(report: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
