#!/usr/bin/env python3
"""Repository benchmark: figure-style sweeps through the execution fabric.

Run from the repository root::

    python3 perfbench/run.py --workload server_fig08 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all    # every workload, both modes

The simulator is driven only through its public entry points: the suite
constructors, ``SimJob`` and ``ParallelRunner.run`` from ``repro.fabric``
(which call ``simulate`` / ``simulate_smt``).  Every cell uses the figure
experiments' windows (``repro.experiments.runner.WARMUP`` and ``MEASURE``), so
caches start warmed.  The model has no hardware reference: simulated
numbers are deterministic outputs of an unvalidated model and carry no
error figure.

Workloads (``--seed n`` maps onto the suites' ``base_seed`` as
``default + 1000 * n``; seed 0 is the figure experiments' own suites, and seed
7919 is held out for re-checking claims):

* ``server_fig08`` — ``server_suite`` x lru / itp / itp+xptp, batched
  engine, the process backend with one worker process and a fresh result
  cache, then submitted once more against the warm cache.  One worker, not
  one per core: on a host of two shared vCPUs, two busy workers made the
  sweep time follow whatever else ran on the host.
* ``speclike_hits`` — ``spec_suite`` x lru / itp+xptp, batched engine,
  serial in-process, no cache.
* ``smt_mix`` — ``smt_mixes`` (intense, medium, relaxed) x lru /
  itp+xptp, serial in-process, ``engine="spec"`` pinned because
  ``simulate_smt`` ignores the batched engine.

``--trace 0`` repeats the sweep until ``--seconds`` have passed and
reports the end-to-end metrics.  ``--trace 1`` runs one serial in-process
pass untraced, then the same pass traced (``perfbench/spans.py``), and
reports the per-layer metrics; it ignores ``--seconds``.  Both modes check
outputs: every cell's metric report is hashed, and a cell fails when its
warm-cache, repeated, traced or spec-engine result differs from the cold
untraced one.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("server_fig08", "speclike_hits", "smt_mix")
SEED_STRIDE = 1000
SETUP_SAMPLES = 5
# Sweep sizes: each sweep takes roughly 5-8 s on a 2-core host, so a run
# repeats it a few times and reports the median sweep.
SERVER_WORKLOADS = 4
SPEC_WORKLOADS = 3
SMT_PER_CATEGORY = 1

END_TO_END = (
    ("sim_ips", "instr/s"),
    ("cell_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ipc_speedup", "x"),
)
CACHE_LEVELS = ("l1i", "l1d", "l2c", "llc")
PER_LAYER = (
    ("workloads.gen_us_per_record", "us/record"),
    ("topology.build_ms", "ms"),
    ("core.execute_calls", "count"),
    ("core.execute_self_us", "us"),
    ("kernel.fast_frac", "frac"),
    ("kernel.issue_frac", "frac"),
    ("kernel.scalar_frac", "frac"),
    ("kernel.self_us_per_record", "us/record"),
    ("kernel.speedup_vs_spec", "x"),
    ("tlb.translate_calls", "count"),
    ("tlb.translate_self_us", "us"),
    ("tlb.stlb_impki", "mpki"),
    ("tlb.stlb_dmpki", "mpki"),
    ("ptw.walk_calls", "count"),
    ("ptw.walk_self_us", "us"),
    ("ptw.walks", "count"),
    ("ptw.refs_per_walk", "refs/walk"),
    ("ptw.psc_hit_frac", "frac"),
    *(
        (f"cache.{level}.{kind}", unit)
        for level in CACHE_LEVELS
        for kind, unit in (("access_calls", "count"), ("access_self_us", "us"))
    ),
    ("cache.l2c.mpki", "mpki"),
    ("cache.llc.mpki", "mpki"),
    ("cache.l2c.mshr_retirements", "count"),
    ("replacement.xptp_protected_evictions", "count"),
    ("core.adaptive_enabled_frac", "frac"),
    ("mem.dram.access_calls", "count"),
    ("mem.dram.access_self_us", "us"),
    ("fabric.simulations", "count"),
    ("fabric.cache_hits", "count"),
    ("fabric.store_ms", "ms"),
    ("fabric.warm_pass_ms", "ms"),
    ("fabric.overhead_s", "s"),
    ("trace.overhead_ratio", "x"),
)


# --------------------------------------------------------------------- #
# Plan: the seed-generated jobs of one workload
# --------------------------------------------------------------------- #


@dataclass
class Plan:
    workload: str
    jobs: List[Any]
    #: Content addresses of ``jobs``, built here so that ``setup_s`` covers
    #: keying the cells.
    keys: List[str]
    #: Fabric backend forced for the timed sweeps (``None``: serial).
    backend: Optional[str]
    cached: bool
    #: Simulated instructions per cell (warmup plus measure).
    instructions: int


def build_plan(workload: str, seed: int) -> Plan:
    from repro.experiments.runner import MEASURE, WARMUP, config_for
    from repro.fabric import SimJob, job_key
    from repro.workloads.mixes import smt_mixes
    from repro.workloads.server import server_suite
    from repro.workloads.speclike import spec_suite

    offset = SEED_STRIDE * seed
    if workload == "server_fig08":
        groups = [(w,) for w in server_suite(SERVER_WORKLOADS, base_seed=100 + offset)]
        techniques, engine = ("lru", "itp", "itp+xptp"), "batched"
        backend, cached = "process", True
    elif workload == "speclike_hits":
        groups = [(w,) for w in spec_suite(SPEC_WORKLOADS, base_seed=500 + offset)]
        techniques, engine, backend, cached = ("lru", "itp+xptp"), "batched", None, False
    else:
        mixes = smt_mixes(SMT_PER_CATEGORY, base_seed=900 + offset)
        groups = [m.workloads for m in mixes]
        techniques, engine, backend, cached = ("lru", "itp+xptp"), "spec", None, False
    jobs = [
        SimJob(config_for(t), g, WARMUP, MEASURE, label=t, engine=engine)
        for t in techniques
        for g in groups
    ]
    return Plan(workload, jobs, [job_key(j) for j in jobs], backend, cached,
                WARMUP + MEASURE)


def make_runner(backend: Optional[str], cache_dir: Optional[Path]) -> Any:
    from repro.fabric import CONTINUE, ParallelRunner

    return ParallelRunner(workers=1, cache_dir=cache_dir, progress=False,
                          policy=CONTINUE, backend=backend)


class Workdir:
    """Scratch directories for result caches, inside the checkout."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._count = 0

    def fresh(self) -> Path:
        self._count += 1
        path = self.path / f"d{self._count}"
        path.mkdir(parents=True)
        return path

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# --------------------------------------------------------------------- #
# Passes and output checks
# --------------------------------------------------------------------- #


@dataclass
class Pass:
    """One submission of a plan (plus the warm-cache resubmission)."""

    results: List[Any]
    report: Any
    cold_s: float
    warm: Optional[List[Any]]
    warm_s: float
    runner: Any

    @property
    def wall_s(self) -> float:
        return self.cold_s + self.warm_s


def _submit(runner: Any, jobs: Sequence[Any]) -> Tuple[List[Any], float]:
    from repro.fabric import MatrixError

    start = time.perf_counter()
    try:
        results = runner.run(jobs)
    except MatrixError as err:
        results = err.results
    return results, time.perf_counter() - start


def run_pass(plan: Plan, work: Workdir, backend: Optional[str]) -> Pass:
    runner = make_runner(backend, work.fresh() if plan.cached else None)
    results, cold_s = _submit(runner, plan.jobs)
    report = runner.last_report
    warm, warm_s = _submit(runner, plan.jobs) if plan.cached else (None, 0.0)
    return Pass(results, report, cold_s, warm, warm_s, runner)


def cell_digest(result: Any) -> str:
    if result is None:
        return "missing"
    lines = "".join(f"{k}={result.metrics[k]!r}\n" for k in sorted(result.metrics))
    return hashlib.sha256(lines.encode()).hexdigest()


class Checks:
    """Counts attempted and failed cells; records what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"CHECK FAILED: {text}", file=sys.stderr)

    def cells(
        self,
        what: str,
        jobs: Sequence[Any],
        results: Sequence[Any],
        reference: Optional[Sequence[str]] = None,
    ) -> List[str]:
        """Check one submission's cells; returns their digests."""
        digests = []
        for i, (job, result) in enumerate(zip(jobs, results)):
            self.attempted += 1
            digest = cell_digest(result)
            digests.append(digest)
            if result is None:
                issue = "cell failed"
            elif not (result.stats.instructions >= job.measure
                      and result.stats.cycles > 0
                      and math.isfinite(result.ipc) and result.ipc > 0):
                issue = "implausible statistics"
            elif reference is not None and digest != reference[i]:
                issue = "metric report differs from the cold untraced one"
            else:
                continue
            self.failed += 1
            self.problem(f"{what} {job.cell}: {issue}")
        return digests


def workload_digest(plan: Plan, digests: Sequence[str]) -> str:
    text = "".join(f"{j.cell}:{d}\n" for j, d in zip(plan.jobs, digests))
    return hashlib.sha256(text.encode()).hexdigest()


def engine_cross_check(
    plan: Plan, reference: Sequence[str], checks: Checks
) -> Optional[Tuple[int, float]]:
    """Re-run the first ``lru`` cell on the spec engine; its report must be
    bit-identical to the batched one.  Returns (cell index, seconds)."""
    if plan.jobs[0].engine != "batched":
        return None
    index = next(i for i, j in enumerate(plan.jobs) if j.label == "lru")
    job = replace(plan.jobs[index], engine="spec")
    runner = make_runner(None, None)
    results, _ = _submit(runner, [job])
    checks.cells("spec-engine", [job], results, [reference[index]])
    return index, runner.last_report.cells[0].elapsed


def ipc_speedup(plan: Plan, results: Sequence[Any]) -> float:
    """Geomean IPC of itp+xptp over lru across the plan's workloads."""
    from repro.experiments.runner import geomean

    ipc = {(j.label, j.workload_name): r.ipc
           for j, r in zip(plan.jobs, results) if r is not None}
    return geomean([ipc[("itp+xptp", w)] / ipc[("lru", w)]
                    for (label, w) in ipc
                    if label == "lru" and ("itp+xptp", w) in ipc])


# --------------------------------------------------------------------- #
# End-to-end run (--trace 0)
# --------------------------------------------------------------------- #


def probe_setup(args: argparse.Namespace, work: Workdir) -> float:
    """Seconds from launching a fresh benchmark process to the point where
    it would submit its first job (imports, suites, jobs, keys, runner)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(work.fresh())]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def peak_rss_mb(plan: Plan) -> float:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if plan.backend == "process":
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def end_to_end(args: argparse.Namespace, plan: Plan, work: Workdir,
               checks: Checks) -> Tuple[Dict[str, float], Dict[str, Any]]:
    setup = [probe_setup(args, work) for _ in range(SETUP_SAMPLES)]
    passes: List[Pass] = []
    reference: Optional[List[str]] = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        sweep = run_pass(plan, work, plan.backend)
        what = f"sweep {len(passes) + 1}"
        digests = checks.cells(what, plan.jobs, sweep.results, reference)
        reference = reference or digests
        if sweep.warm is not None:
            checks.cells(f"{what} warm-cache", plan.jobs, sweep.warm, reference)
        passes.append(sweep)
    engine_cross_check(plan, reference, checks)

    cells = [c.elapsed for p in passes for c in p.report.cells if c.status == "ok"]
    speedup = ipc_speedup(plan, passes[0].results)
    metrics = {
        "sim_ips": statistics.median(
            len(plan.jobs) * plan.instructions / p.wall_s for p in passes),
        "cell_s_p50": statistics.median(cells),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(plan),
        "ipc_speedup": speedup,
    }
    notes = {
        "sweeps": len(passes),
        "cells timed": len(cells),
        "ipc_gain_pct": 100.0 * (speedup - 1.0),
        "failed_frac": checks.failed / max(1, checks.attempted),
        "stats digest": workload_digest(plan, reference),
    }
    return metrics, notes


# --------------------------------------------------------------------- #
# Traced run (--trace 1)
# --------------------------------------------------------------------- #


def _tier_counts(engine: Any) -> Tuple[int, int, int]:
    return engine.fast_records, engine.issue_records, engine.total_records


def install_spans(tracer: Any, plan: Plan) -> None:
    from repro.cache.cache import SetAssociativeCache
    from repro.core.cpu import Core
    from repro.core.system import System
    from repro.fabric import ResultCache
    from repro.kernel import BatchedEngine
    from repro.mem.dram import DRAM
    from repro.ptw.walker import PageTableWalker
    from repro.tlb.hierarchy import MMU

    tracer.wrap_method(System, "__init__", "topology.build")
    tracer.wrap_method(Core, "execute", "core.execute")
    tracer.wrap_method(BatchedEngine, "run_until", "kernel.run_until")
    tracer.wrap_method(MMU, "translate", "tlb.translate")
    tracer.wrap_method(PageTableWalker, "walk", "ptw.walk")
    tracer.wrap_keyed_method(
        SetAssociativeCache, "access", lambda cache: cache.config.name,
        lambda name: f"cache.{name.lower()}.access")
    tracer.wrap_method(DRAM, "access", "mem.dram.access")
    tracer.wrap_method(ResultCache, "store", "fabric.store")
    tracer.wrap_method(ResultCache, "load", "fabric.load")
    for cls in {type(w) for job in plan.jobs for w in job.workloads}:
        tracer.wrap_record_stream(cls)


def gen_us_per_record(streams: Sequence[Tuple[Any, int]]) -> float:
    """Drain fresh streams outside the simulator for as many records as the
    traced cells pulled; microseconds per record."""
    records, seconds = 0, 0.0
    for workload, count in streams:
        start = time.perf_counter()
        deque(islice(workload.record_stream(), count), maxlen=0)
        seconds += time.perf_counter() - start
        records += count
    return 1e6 * seconds / max(1, records)


def simulated_layers(results: Sequence[Any]) -> Dict[str, float]:
    """Simulated per-layer statistics: means over the cells reporting them."""
    rows = [r.metrics for r in results if r is not None]

    def mean(key: str) -> float:
        values = [m[key] for m in rows if key in m]
        return statistics.fmean(values) if values else 0.0

    def total(*keys: str) -> float:
        return sum(m.get(k, 0.0) for m in rows for k in keys)

    walk_kinds = ("data", "instr", "pf_data", "pf_instr")
    walks = total(*(f"ptw.{k}_walks" for k in walk_kinds))
    refs = total(*(f"ptw.{k}_walk_refs" for k in walk_kinds))
    psc_hits = total(*(f"ptw.pscl{n}_hits" for n in (2, 3, 4, 5)))
    psc_lookups = psc_hits + total("ptw.psc_misses")
    windows = total("adaptive.windows_total")
    return {
        "tlb.stlb_impki": mean("stlb.impki"),
        "tlb.stlb_dmpki": mean("stlb.dmpki"),
        "ptw.walks": walks / max(1, len(rows)),
        "ptw.refs_per_walk": refs / walks if walks else 0.0,
        "ptw.psc_hit_frac": psc_hits / psc_lookups if psc_lookups else 0.0,
        "cache.l2c.mpki": mean("l2c.mpki"),
        "cache.llc.mpki": mean("llc.mpki"),
        "cache.l2c.mshr_retirements": mean("l2c.mshr_retirements"),
        "replacement.xptp_protected_evictions": mean("xptp.protected_evictions_avoided"),
        "core.adaptive_enabled_frac": (
            total("adaptive.windows_enabled") / windows if windows else 0.0),
    }


def per_layer(
    plan: Plan, work: Workdir, checks: Checks
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    from repro.kernel import BatchedEngine
    from spans import Tracer

    untraced_tiers: List[Tuple[int, ...]] = []
    capture = Tracer()
    with capture.installed():
        capture.wrap_delta(BatchedEngine, "run_until", _tier_counts, untraced_tiers)
        ref = run_pass(plan, work, None)
    reference = checks.cells("untraced", plan.jobs, ref.results)
    if ref.warm is not None:
        checks.cells("untraced warm-cache", plan.jobs, ref.warm, reference)

    traced_tiers: List[Tuple[int, ...]] = []
    tracer = Tracer()
    with tracer.installed():
        tracer.wrap_delta(BatchedEngine, "run_until", _tier_counts, traced_tiers)
        install_spans(tracer, plan)
        traced = run_pass(plan, work, None)
    checks.cells("traced", plan.jobs, traced.results, reference)
    if traced.warm is not None:
        checks.cells("traced warm-cache", plan.jobs, traced.warm, reference)
    if traced_tiers != untraced_tiers:
        checks.problem("kernel tier counts differ between traced and untraced runs")

    spans = tracer.summary()
    self_s = sum(row["self_ns"] for row in spans.values()) / 1e9
    if self_s > traced.wall_s:
        checks.problem(f"layer self time {self_s:.3f}s exceeds traced wall time")

    def layer(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def self_us(name: str) -> float:
        return layer(name, "self_ns") / 1e3

    fast, issue, records = (sum(t[i] for t in traced_tiers) for i in range(3))
    cross = engine_cross_check(plan, reference, checks)
    builds = layer("topology.build", "calls")
    metrics = {
        "workloads.gen_us_per_record": gen_us_per_record(tracer.stream_records()),
        "topology.build_ms": layer("topology.build", "incl_ns") / 1e6 / max(1, builds),
        "core.execute_calls": layer("core.execute", "calls"),
        "core.execute_self_us": self_us("core.execute"),
        "kernel.fast_frac": fast / records if records else 0.0,
        "kernel.issue_frac": issue / records if records else 0.0,
        "kernel.scalar_frac": (records - fast - issue) / records if records else 0.0,
        "kernel.self_us_per_record": (
            self_us("kernel.run_until") / records if records else 0.0),
        "kernel.speedup_vs_spec": (
            cross[1] / ref.report.cells[cross[0]].elapsed if cross else 0.0),
        "tlb.translate_calls": layer("tlb.translate", "calls"),
        "tlb.translate_self_us": self_us("tlb.translate"),
        "ptw.walk_calls": layer("ptw.walk", "calls"),
        "ptw.walk_self_us": self_us("ptw.walk"),
        "mem.dram.access_calls": layer("mem.dram.access", "calls"),
        "mem.dram.access_self_us": self_us("mem.dram.access"),
        "fabric.simulations": traced.runner.simulations,
        "fabric.cache_hits": traced.runner.cache_hits,
        "fabric.store_ms": layer("fabric.store", "incl_ns") / 1e6,
        "fabric.warm_pass_ms": ref.warm_s * 1e3,
        "fabric.overhead_s": ref.cold_s - sum(c.elapsed for c in ref.report.cells),
        "trace.overhead_ratio": traced.wall_s / ref.wall_s,
    }
    for level in CACHE_LEVELS:
        metrics[f"cache.{level}.access_calls"] = layer(f"cache.{level}.access", "calls")
        metrics[f"cache.{level}.access_self_us"] = self_us(f"cache.{level}.access")
    metrics.update(simulated_layers(traced.results))
    notes = {
        "traced wall s": traced.wall_s,
        "untraced wall s": ref.wall_s,
        "layer self s": self_s,
        "spans": tracer.span_count,
        "stats digest": workload_digest(plan, reference),
    }
    return metrics, notes


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Every workload in both modes, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            status = status or subprocess.run(cmd).returncode
    return status


def _print_block(workload: str, rows: Sequence[Tuple[str, str]],
                 metrics: Dict[str, float], notes: Dict[str, Any]) -> None:
    for name, unit in rows:
        print(f"{workload:14s} {name:38s} {metrics[name]:>16.6g} {unit}")
    for name, value in notes.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{workload:14s} {name:38s} {shown:>16}")


def main(argv: Sequence[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        plan = build_plan(args.workload, args.seed)
        make_runner(plan.backend, args.work if plan.cached else None)
        print("ready", flush=True)
        return 0

    work = Workdir(WORK / f"run-{os.getpid()}")
    checks = Checks()
    try:
        plan = build_plan(args.workload, args.seed)
        if args.trace:
            metrics, notes = per_layer(plan, work, checks)
            rows = PER_LAYER
        else:
            metrics, notes = end_to_end(args, plan, work, checks)
            rows = END_TO_END
    finally:
        work.remove()
        try:
            WORK.rmdir()
        except OSError:
            pass
    _print_block(args.workload, rows, metrics, notes)
    print(json.dumps({
        "correct": checks.failed == 0 and not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
