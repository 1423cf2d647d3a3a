#!/usr/bin/env python3
"""Paired A/B comparison of two revisions on the repository benchmark.

Checks out both revisions as ``git worktree``s in a temporary directory
(removed on exit), then runs ``perfbench/run.py --trace 0`` in each, in
ABBA order (pair 1 runs A then B, pair 2 B then A, ...) so a slow drift
in host load cannot flatter one side.  Usage::

    python3 tools/ab.py BASE HEAD --workload smt_mix --pairs 10 --seconds 30
    python3 tools/ab.py HEAD~1 HEAD --pairs 3 --output results/perf/x.json
    python3 tools/ab.py HEAD HEAD --workload smt_mix --pairs 1 --seconds 1  # A/A

For every end-to-end metric in ``BENCHMARK.json`` it reports each side's
median and quartiles, the median of the per-pair ratios ``B / A``, a 95%
percentile bootstrap interval of that median (2,000 resamples, fixed
seed) and how many pairs each side won ("better" comes from
``BENCHMARK.json``; ties count for neither side).

Next to the wall times it reports Python calls per record: for each
compared workload, fixed seed-0 cells (figure windows; ``lru`` on each
engine, and ``itp+xptp`` on the spec engine for the SMT mix) run once a
side, in a fresh interpreter on that side's ``src``,
under cProfile for the measure window only; the count is every call the
profiler recorded divided by ``engine.total_records`` (lock-step rounds
for the SMT mix).  When ``server_fig08`` is compared it also times the
head's ``srv_00`` ``lru`` measure window, unprofiled, on each engine.

The exit status is 1 when any of these problems is found:

* a run fails, reports ``"correct": false`` or prints no digest;
* the two revisions print different ``stats digest`` lines: a speed
  comparison of two programs that compute different results means
  nothing, so a change that moves results on purpose fails here too;
* a profiled cell fails, or (both sides one commit) its deterministic
  calls per record differ;
* **wall rule:** an end-to-end metric's whole 95% interval of ``B / A``
  lies on the worse side of ``1 ± bound``, the metric's bound in
  ``BENCHMARK.json`` (with 3 pairs the interval is the pairs' [min,
  max], so every pair must show the regression);
* **calls rule:** a profiled cell's calls per record at head exceed base
  by more than the ``sim_ips`` bound;
* **engine floor:** the best of 3 spec walls over the best of 3 batched
  walls (alternating runs) is below ``ENGINE_FLOOR``.

The tool only calls perfbench and the simulator's public ``Session``; it
changes nothing in either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
METRICS = tuple(BENCHMARK["end_to_end"])
RESAMPLES = 2_000
BOOTSTRAP_SEED = 20_250_301
DIGEST_LINE = re.compile(r"^\S+\s+stats digest\s+(\S+)\s*$")
BOUNDS = {m["name"]: m["bound"] for m in METRICS}

#: The batched engine must run the ``srv_00`` measure window at least this
#: many times faster than the spec engine, best run against best run.
ENGINE_FLOOR = 1.05
#: Timed runs per engine for the engine floor.
FLOOR_RUNS = 3

#: The cells profiled for calls per record: ``(cell, engine, technique)``
#: per benchmark workload.  ``smt_mix`` sweeps ``itp+xptp`` as well as
#: ``lru``, so it profiles both (the xPTP victim and the iTP STLB hooks).
PROFILE_CELLS = {
    "server_fig08": (("srv_00", "spec", "lru"), ("srv_00", "batched", "lru")),
    "speclike_hits": (("spec_00", "spec", "lru"), ("spec_00", "batched", "lru")),
    "smt_mix": (("intense_0", "spec", "lru"), ("intense_0", "spec", "itp+xptp")),
}

#: Run with ``python -c`` on one side's ``src``; argv[1] is a cell name
#: from ``PROFILE_CELLS``, argv[2] an engine, argv[3] a technique and
#: argv[4] a mode.  Mode
#: ``calls`` prints ``[calls, total_records]`` for the cell's measure
#: window under cProfile; ``calls`` sums the profiler's raw entries:
#: ``pstats.Stats.total_calls`` keys functions by ``(file, line, name)``
#: and keeps one of any that share it (every dataclass-generated
#: ``__init__`` is ``<string>:2``), so it drops counts, and which ones it
#: drops can change with an unrelated edit.  Mode ``wall`` prints the
#: measure window's unprofiled wall seconds.
PROFILE_SCRIPT = """
import cProfile, json, sys, time
from repro.core.simulator import Session
from repro.experiments.runner import MEASURE, WARMUP, config_for
from repro.workloads.mixes import smt_mixes
from repro.workloads.server import server_suite
from repro.workloads.speclike import spec_suite

name, engine, technique, mode = sys.argv[1:5]
workloads = {"srv_00": server_suite(1), "spec_00": spec_suite(1),
             "intense_0": list(smt_mixes(1)[0].workloads)}[name]
residual = 0.25 if len(workloads) == 2 else None
session = Session(config_for(technique), workloads, engine=engine,
                  overlap_residual=residual)
session.warmup(WARMUP)
if mode == "wall":
    start = time.perf_counter()
    session.measure(MEASURE)
    print(json.dumps(time.perf_counter() - start))
else:
    profiler = cProfile.Profile()
    profiler.enable()
    session.measure(MEASURE)
    profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    print(json.dumps([calls, session.engine.total_records]))
"""


# --------------------------------------------------------------------- #
# Statistics (pure functions)
# --------------------------------------------------------------------- #


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method; one value is its own spread."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def paired_ratios(base: Sequence[float], head: Sequence[float]) -> List[float]:
    """``head / base`` per pair: below 1 means head reads lower."""
    return [h / b for b, h in zip(base, head)]


def wins(base: Sequence[float], head: Sequence[float], better: str) -> Tuple[int, int]:
    """``(head wins, base wins)`` over the pairs; ties count for neither."""
    if better not in ("higher", "lower"):
        raise ValueError(f"'better' must be 'higher' or 'lower', got {better!r}")
    sign = 1 if better == "higher" else -1
    head_wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    base_wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    return head_wins, base_wins


def bootstrap_interval(ratios: Sequence[float], resamples: int = RESAMPLES,
                       seed: int = BOOTSTRAP_SEED, level: float = 0.95
                       ) -> Tuple[float, float]:
    """Percentile bootstrap interval of the median of ``ratios``."""
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(resamples)
    )
    tail = (1.0 - level) / 2.0
    return medians[int(tail * resamples)], medians[int((1.0 - tail) * resamples) - 1]


def calls_per_record(total_calls: int, records: int) -> float:
    """cProfile calls over a measure window per record (or lock-step round)."""
    return total_calls / records


def call_count_problems(calls: Dict[str, Dict[str, Optional[float]]],
                        same_commit: bool) -> List[str]:
    """Problems in ``{cell: {"base": x, "head": y}}`` calls per record: a
    failed profile, counts that differ when both sides are one commit, or
    (the calls rule) head above base by more than the ``sim_ips`` bound."""
    budget = BOUNDS["sim_ips"]
    problems = []
    for cell, sides in calls.items():
        base, head = sides["base"], sides["head"]
        if base is None or head is None:
            problems.append(f"{cell}: profiling failed")
        elif same_commit and base != head:
            problems.append(f"{cell}: calls per record differ on one commit: {sides}")
        elif head > base * (1 + budget):
            problems.append(f"{cell}: calls per record rose {head / base:.4f}x "
                            f"({base:.2f} -> {head:.2f}), over the {budget:g} budget")
    return problems


def wall_problems(workload: str, metrics: Dict[str, Dict]) -> List[str]:
    """The wall rule: metrics whose whole ratio interval lies beyond their
    ``BENCHMARK.json`` bound on the worse side of 1."""
    problems = []
    for name, s in metrics.items():
        lo, hi = s["ratio_ci95"]
        bound = BOUNDS[name]
        if hi < 1 - bound if s["better"] == "higher" else lo > 1 + bound:
            problems.append(f"{workload} {name}: B/A interval [{lo:.4f}, {hi:.4f}] "
                            f"is past its {bound:g} bound")
    return problems


def engine_speedup(walls: Dict[str, List[Optional[float]]]) -> Optional[float]:
    """Best spec wall over best batched wall; ``None`` if a run failed."""
    if None in walls["spec"] + walls["batched"]:
        return None
    return min(walls["spec"]) / min(walls["batched"])


def engine_floor_problems(speedup: Optional[float]) -> List[str]:
    """The engine floor: the batched engine must beat spec by ``ENGINE_FLOOR``."""
    if speedup is None:
        return ["srv_00 engine floor: a timed run failed"]
    if speedup < ENGINE_FLOOR:
        return [f"srv_00 engine floor: batched runs {speedup:.3f}x spec, "
                f"below {ENGINE_FLOOR:g}x"]
    return []


def summarize(base: Sequence[float], head: Sequence[float], better: str) -> Dict:
    """One metric's paired comparison, as written to the JSON summary."""
    ratios = paired_ratios(base, head)
    head_wins, base_wins = wins(base, head, better)
    sides = {}
    for side, values in (("base", base), ("head", head)):
        q1, median, q3 = quartiles(values)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "runs": list(values)}
    return {
        "better": better,
        **sides,
        "ratio_median": statistics.median(ratios),
        "ratio_ci95": list(bootstrap_interval(ratios)),
        "head_wins": head_wins,
        "base_wins": base_wins,
        "pairs": len(ratios),
    }


# --------------------------------------------------------------------- #
# Running perfbench
# --------------------------------------------------------------------- #


def parse_run(stdout: str) -> Tuple[Dict, Optional[str]]:
    """perfbench's closing JSON object and its ``stats digest`` (if any)."""
    lines = stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    digest = next((m.group(1) for m in map(DIGEST_LINE.match, lines) if m), None)
    return report, digest


def run_perfbench(tree: Path, workload: str, seed: int,
                  seconds: float) -> Tuple[Dict, Optional[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "exit": proc.returncode}, None
    try:
        return parse_run(proc.stdout)
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout[-2000:])
        return {"correct": False}, None


def run_cell(tree: Path, cell: str, engine: str, technique: str, mode: str):
    """``PROFILE_SCRIPT``'s output for one cell, in a fresh interpreter;
    ``None`` if it failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", PROFILE_SCRIPT, cell, engine,
                           technique, mode],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def profile_cell(tree: Path, cell: str, engine: str, technique: str) -> Optional[float]:
    """Calls per record of one cell, profiled in a fresh interpreter."""
    out = run_cell(tree, cell, engine, technique, "calls")
    return None if out is None else calls_per_record(*out)


def profile(trees: Dict[str, Path], workloads: Sequence[str]) -> Dict[str, Dict]:
    """``{workload: {"cell/engine/technique": {side: calls per record}}}``."""
    calls: Dict[str, Dict] = {}
    for workload in workloads:
        calls[workload] = {}
        for cell, engine, technique in PROFILE_CELLS[workload]:
            label = f"{cell}/{engine}/{technique}"
            sides = {side: profile_cell(trees[side], cell, engine, technique)
                     for side in trees}
            calls[workload][label] = sides
            print(f"[ab] calls/record {label}: {sides}", file=sys.stderr, flush=True)
    return calls


def time_engines(tree: Path) -> Dict[str, List[Optional[float]]]:
    """``srv_00`` measure-window walls per engine, runs alternating."""
    walls: Dict[str, List[Optional[float]]] = {"spec": [], "batched": []}
    for _ in range(FLOOR_RUNS):
        for engine, runs in walls.items():
            runs.append(run_cell(tree, "srv_00", engine, "lru", "wall"))
    print(f"[ab] srv_00 head walls: {walls}", file=sys.stderr, flush=True)
    return walls


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def host() -> str:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def compare(trees: Dict[str, Path], workloads: Sequence[str], pairs: int,
            seed: int, seconds: float) -> Tuple[Dict, List[str]]:
    """Run the ABBA schedule; returns the summary and any problems found."""
    values = {w: {s: {m["name"]: [] for m in METRICS} for s in trees} for w in workloads}
    digests = {w: {s: set() for s in trees} for w in workloads}
    problems: List[str] = []
    for pair in range(pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                report, digest = run_perfbench(trees[side], workload, seed, seconds)
                metrics = report.get("metrics", {})
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items())
                print(f"[ab] pair {pair + 1}/{pairs} {side} {workload}: {shown}",
                      file=sys.stderr, flush=True)
                if report.get("correct") is not True or digest is None:
                    problems.append(f"{side} {workload} pair {pair + 1}: run failed, "
                                    "reported incorrect output or printed no digest")
                    continue
                digests[workload][side].add(digest)
                for m in METRICS:
                    values[workload][side][m["name"]].append(metrics[m["name"]]["value"])

    summary = {}
    for workload in workloads:
        seen = digests[workload]
        if len(seen["base"] | seen["head"]) > 1:
            problems.append(f"{workload}: stats digests differ: {seen}")
        complete = all(len(values[workload][s][METRICS[0]["name"]]) == pairs for s in trees)
        summary[workload] = {
            "stats_digest": sorted(seen["base"] | seen["head"]),
            "metrics": {
                m["name"]: summarize(values[workload]["base"][m["name"]],
                                     values[workload]["head"][m["name"]], m["better"])
                for m in METRICS
            } if complete else {},
        }
        problems.extend(wall_problems(workload, summary[workload]["metrics"]))
    return summary, problems


def print_table(summary: Dict) -> None:
    def side(s: Dict) -> str:
        return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

    for workload, entry in summary.items():
        for name, s in entry["metrics"].items():
            lo, hi = s["ratio_ci95"]
            print(f"{workload:14s} {name:12s} A {side(s['base']):30s} "
                  f"B {side(s['head']):30s} B/A {s['ratio_median']:.4f} "
                  f"[{lo:.4f}, {hi:.4f}]  wins B {s['head_wins']} A {s['base_wins']}")
        for cell, sides in entry.get("calls_per_record", {}).items():
            base, head = sides["base"], sides["head"]
            if base is None or head is None:
                print(f"{workload:14s} {'calls/rec':12s} {cell}: profiling failed")
                continue
            print(f"{workload:14s} {'calls/rec':12s} A {base:<30.2f} B {head:<30.2f} "
                  f"B/A {head / base:.4f}  {cell}")
        floor = entry.get("engine_floor")
        if floor and floor["speedup"] is not None:
            print(f"{workload:14s} {'engines':12s} srv_00 batched/spec "
                  f"{floor['speedup']:.3f}x at head (floor {ENGINE_FLOOR:g}x)")


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="revision A (e.g. HEAD~1)")
    parser.add_argument("head", help="revision B (e.g. HEAD)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="benchmark workload (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--output", type=Path, help="write the JSON summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    revisions = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
                 for side, rev in (("base", args.base), ("head", args.head))}
    workloads = args.workload or list(WORKLOADS)
    scratch = Path(tempfile.mkdtemp(prefix="repro-ab-"))
    trees = {side: scratch / side for side in revisions}
    try:
        for side, sha in revisions.items():
            git("worktree", "add", "--detach", str(trees[side]), sha)
        summary, problems = compare(trees, workloads, args.pairs, args.seed, args.seconds)
        calls = profile(trees, workloads)
        walls = time_engines(trees["head"]) if "server_fig08" in workloads else None
    finally:
        for tree in trees.values():
            if tree.exists():
                git("worktree", "remove", "--force", str(tree))
        git("worktree", "prune")
        shutil.rmtree(scratch, ignore_errors=True)

    same_commit = revisions["base"] == revisions["head"]
    for workload, cells in calls.items():
        summary[workload]["calls_per_record"] = cells
        problems.extend(call_count_problems(cells, same_commit))
    if walls is not None:
        speedup = engine_speedup(walls)
        summary["server_fig08"]["engine_floor"] = {**walls, "speedup": speedup}
        problems.extend(engine_floor_problems(speedup))
    print_table(summary)
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps({
            "base": {"rev": args.base, "commit": revisions["base"]},
            "head": {"rev": args.head, "commit": revisions["head"]},
            "order": "ABBA", "pairs": args.pairs, "seed": args.seed,
            "seconds": args.seconds, "host": host(),
            "bootstrap": {"resamples": RESAMPLES, "seed": BOOTSTRAP_SEED, "level": 0.95},
            "workloads": summary, "problems": problems,
        }, indent=2) + "\n")
    for problem in problems:
        print(f"ab: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
