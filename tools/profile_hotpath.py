#!/usr/bin/env python
"""Profile the simulator's per-access hot path with cProfile.

Runs one (technique, workload) cell — the same record-bounded loop the
throughput benchmark (``python -m repro.bench``) times — under cProfile and
prints the top functions, so regressions found by the benchmark can be
attributed to specific call sites.

Usage::

    python tools/profile_hotpath.py                        # defaults
    python tools/profile_hotpath.py --technique itp+xptp --records 30000
    python tools/profile_hotpath.py --sort tottime --limit 40
    python tools/profile_hotpath.py --output hotpath.pstats  # for snakeviz etc.
    python tools/profile_hotpath.py --engine batched       # profile the kernel

With ``--engine batched`` the run also reports the kernel's fast-path
coverage (the fraction of records retired without falling back to the
scalar spec path) — the first thing to check when the batched engine's
speedup drops.

No PYTHONPATH needed: the script adds the repo's ``src/`` itself.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import DEFAULT_WARMUP_RECORDS  # noqa: E402
from repro.core.simulator import Session  # noqa: E402
from repro.experiments.runner import POLICY_MATRIX, config_for  # noqa: E402
from repro.kernel import DEFAULT_ENGINE, ENGINES  # noqa: E402
from repro.workloads.server import server_suite  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--technique", default="itp+xptp", choices=sorted(POLICY_MATRIX),
        help="Table 2 technique to profile (default itp+xptp)",
    )
    parser.add_argument(
        "--engine", default=DEFAULT_ENGINE, choices=ENGINES,
        help="execution engine to profile (default spec)",
    )
    parser.add_argument(
        "--records", type=int, default=20_000,
        help="trace records in the profiled window (default 20000)",
    )
    parser.add_argument(
        "--warmup-records", type=int, default=DEFAULT_WARMUP_RECORDS,
        help="records executed before profiling starts",
    )
    parser.add_argument(
        "--sort", default="cumulative",
        choices=["cumulative", "tottime", "ncalls", "pcalls", "filename"],
        help="pstats sort key (default cumulative)",
    )
    parser.add_argument(
        "--limit", type=int, default=30, help="rows to print (default 30)"
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="also dump raw pstats data to FILE",
    )
    args = parser.parse_args(argv)

    session = Session(config_for(args.technique), server_suite(1), engine=args.engine)
    session.warmup(records=args.warmup_records)
    profiler = cProfile.Profile()
    profiler.enable()
    session.measure(records=args.records)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.limit)
    if args.engine == "batched":
        kernel = session.engine
        print(
            f"fast-path coverage: {kernel.fast_path_coverage:.1%} "
            f"({kernel.fast_records} fast / {kernel.issue_records} issuing / "
            f"{kernel.total_records - kernel.fast_records - kernel.issue_records}"
            f" scalar of {kernel.total_records} records)"
        )
    if args.output:
        stats.dump_stats(args.output)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
