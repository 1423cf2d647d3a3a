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
``BENCHMARK.json``; ties count for neither side).  The exit status is 1
if any run fails or reports ``"correct": false``, or if the two
revisions print different ``stats digest`` lines: a speed comparison of
two programs that compute different results means nothing.

Next to the wall times it reports Python calls per record: for each
compared workload, one fixed seed-0 ``lru`` cell per engine (figure
windows) runs once a side, in a fresh interpreter on that side's ``src``,
under cProfile for the measure window only; the count is every call the
profiler recorded divided by ``engine.total_records`` (lock-step rounds
for the SMT mix).  The count is deterministic, so when both revisions are
the same commit a mismatch is a problem too (exit status 1).

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

#: The cells profiled for calls per record: ``(cell, engine)`` pairs per
#: benchmark workload.
PROFILE_CELLS = {
    "server_fig08": (("srv_00", "spec"), ("srv_00", "batched")),
    "speclike_hits": (("spec_00", "spec"), ("spec_00", "batched")),
    "smt_mix": (("intense_0", "spec"),),
}

#: Run with ``python -c`` on one side's ``src``; argv[1] is a cell name
#: from ``PROFILE_CELLS`` and argv[2] an engine.  Prints ``[calls,
#: total_records]`` for the cell's measure window.  ``calls`` sums the
#: profiler's raw entries: ``pstats.Stats.total_calls`` keys functions by
#: ``(file, line, name)`` and keeps one of any that share it (every
#: dataclass-generated ``__init__`` is ``<string>:2``), so it drops counts,
#: and which ones it drops can change with an unrelated edit.
PROFILE_SCRIPT = """
import cProfile, json, sys
from repro.core.simulator import Session
from repro.experiments.runner import MEASURE, WARMUP, config_for
from repro.workloads.mixes import smt_mixes
from repro.workloads.server import server_suite
from repro.workloads.speclike import spec_suite

name, engine = sys.argv[1:3]
workloads = {"srv_00": server_suite(1), "spec_00": spec_suite(1),
             "intense_0": list(smt_mixes(1)[0].workloads)}[name]
residual = 0.25 if len(workloads) == 2 else None
session = Session(config_for("lru"), workloads, engine=engine,
                  overlap_residual=residual)
session.warmup(WARMUP)
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
    failed profile, or (both sides one commit) counts that differ."""
    problems = []
    for cell, sides in calls.items():
        if None in sides.values():
            problems.append(f"{cell}: profiling failed")
        elif same_commit and sides["base"] != sides["head"]:
            problems.append(f"{cell}: calls per record differ on one commit: {sides}")
    return problems


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


def profile_cell(tree: Path, workload: str, engine: str) -> Optional[float]:
    """Calls per record of one cell, profiled in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", PROFILE_SCRIPT, workload, engine],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return calls_per_record(*json.loads(proc.stdout.strip().splitlines()[-1]))


def profile(trees: Dict[str, Path], workloads: Sequence[str]) -> Dict[str, Dict]:
    """``{workload: {"cell/engine": {side: calls per record}}}``."""
    calls: Dict[str, Dict] = {}
    for workload in workloads:
        calls[workload] = {}
        for cell, engine in PROFILE_CELLS[workload]:
            sides = {side: profile_cell(trees[side], cell, engine) for side in trees}
            calls[workload][f"{cell}/{engine}"] = sides
            print(f"[ab] calls/record {cell}/{engine}: {sides}", file=sys.stderr, flush=True)
    return calls


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
