"""Quick policy-comparison command line.

``python -m repro`` (or the ``repro-compare`` console script) runs a set of
techniques on a workload and prints IPC, speedups and the key TLB/cache
metrics — the fastest way to poke at the system without writing code.

Examples::

    python -m repro --techniques lru itp itp+xptp --workload server --seed 3
    python -m repro --workload spec --measure 100000
    python -m repro --techniques lru itp --workers 4 --cache-dir .repro-cache
    python -m repro --topology split-stlb --techniques lru itp
    python -m repro --topology multicore-2 --techniques lru itp+xptp
    python -m repro --list
    python -m repro --describe
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Sequence

from .common.energy import energy_report
from .common.params import SystemConfig, scaled_config
from .fabric import (
    FAILURE_POLICIES,
    ConfigurationError,
    MatrixError,
    ParallelRunner,
    SimJob,
)
from .experiments.reporting import format_table
from .experiments.runner import MEASURE, POLICY_MATRIX, WARMUP, config_for
from .kernel import ENGINES, engine_for
from .topology.presets import PRESET_NAMES, resolve_topology
from .topology.spec import TopologyError
from .workloads.phased import PhasedWorkload
from .workloads.server import ServerWorkload
from .workloads.speclike import SpecLikeWorkload

WORKLOAD_KINDS = ("server", "spec", "phased")

#: Metric columns as (header, metric key).  A metric the topology has no
#: bucket for (``l2c`` on ``multicore-N``, whose buckets are ``L2C_0``…;
#: ``llc`` on ``no-llc``) prints as ``n/a``, not as zero.
METRIC_COLUMNS = (
    ("stlb_impki", "stlb.impki"),
    ("stlb_dmpki", "stlb.dmpki"),
    ("stlb_miss_lat", "stlb.avg_miss_latency"),
    ("l2c_dtmpki", "l2c.dtmpki"),
    ("llc_mpki", "llc.mpki"),
)


def describe(config: SystemConfig) -> str:
    """Render a configuration as a Table 1-style listing."""
    rows = [
        ["ITLB", f"{config.itlb.entries}e", f"{config.itlb.associativity}-way",
         f"{config.itlb.latency}c", "lru"],
        ["DTLB", f"{config.dtlb.entries}e", f"{config.dtlb.associativity}-way",
         f"{config.dtlb.latency}c", "lru"],
        ["STLB", f"{config.stlb.entries}e", f"{config.stlb.associativity}-way",
         f"{config.stlb.latency}c", config.stlb_policy],
        ["L1I", f"{config.l1i.size_bytes // 1024}KB", f"{config.l1i.associativity}-way",
         f"{config.l1i.latency}c", f"lru + {config.l1i.prefetcher or '-'}"],
        ["L1D", f"{config.l1d.size_bytes // 1024}KB", f"{config.l1d.associativity}-way",
         f"{config.l1d.latency}c", f"lru + {config.l1d.prefetcher or '-'}"],
        ["L2C", f"{config.l2c.size_bytes // 1024}KB", f"{config.l2c.associativity}-way",
         f"{config.l2c.latency}c", f"{config.l2c_policy} + {config.l2c.prefetcher or '-'}"],
        ["LLC", f"{config.llc.size_bytes // 1024}KB", f"{config.llc.associativity}-way",
         f"{config.llc.latency}c", config.llc_policy],
        ["DRAM", "-", "-", f"{config.dram.latency}c", "-"],
    ]
    header = format_table(["structure", "capacity", "assoc", "latency", "policy"], rows)
    extras = (
        f"iTP: N={config.itp.insert_depth_n} M={config.itp.data_promote_m} "
        f"Freq={config.itp.freq_bits}b | xPTP: K={config.xptp.k} | "
        f"adaptive: T1={config.adaptive.t1_misses}/"
        f"{config.adaptive.window_instructions} instr"
        f" ({'on' if config.adaptive.enabled else 'off'})"
    )
    return f"{header}\n{extras}"


def make_workload(kind: str, seed: int):
    if kind == "server":
        return ServerWorkload(f"server_{seed}", seed)
    if kind == "spec":
        return SpecLikeWorkload(f"spec_{seed}", seed)
    if kind == "phased":
        return PhasedWorkload(f"phased_{seed}", seed)
    raise ValueError(f"unknown workload kind {kind!r}; choose from {WORKLOAD_KINDS}")


def _worker_count(value: str):
    if value == "auto":
        return value
    if not value.isdigit():
        raise argparse.ArgumentTypeError(f"takes a count or 'auto', got {value!r}")
    return int(value)


def _count(value: str) -> int:
    if not value.isdigit():
        raise argparse.ArgumentTypeError(f"takes a count, got {value!r}")
    return int(value)


def add_runner_arguments(
    parser: argparse.ArgumentParser, presets: Sequence[str]
) -> None:
    """Add the flags :func:`runner_from_args` reads: where and how cells run.

    ``presets`` are the ``--topology`` names the help lists: the ones this
    command can run on.
    """
    parser.add_argument(
        "--workers", type=_worker_count, default="auto", metavar="N",
        help="worker processes: a count or 'auto' for every core (default: auto)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="reuse simulation results cached under DIR (created if missing)",
    )
    parser.add_argument(
        "--failure-policy", choices=FAILURE_POLICIES, default=None,
        help="fail-fast (default) aborts on the first failed cell; "
             "continue finishes the matrix and reports the failures",
    )
    parser.add_argument(
        "--max-retries", type=_count, default=None, metavar="N",
        help="re-run a failed or timed-out cell up to N times (default 0)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock limit; over-budget cells are cancelled "
             "and retried (default: none)",
    )
    parser.add_argument(
        "--topology", default=None, metavar="NAME",
        help="machine graph preset (default: the Table 1 hierarchy); "
             f"one of: {', '.join(presets)}",
    )


def runner_from_args(args: argparse.Namespace) -> ParallelRunner:
    """The progress-reporting runner the :func:`add_runner_arguments` flags ask for.

    Raises :class:`TopologyError` for an unknown ``--topology`` (before
    any simulation runs) and :class:`ConfigurationError` for a bad knob.
    """
    resolve_topology(args.topology, scaled_config())
    return ParallelRunner(
        workers=args.workers,
        cache_dir=args.cache_dir,
        progress=True,
        policy=args.failure_policy,
        max_retries=args.max_retries,
        timeout=args.cell_timeout,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-compare",
        description="Compare TLB/cache replacement techniques on a synthetic workload.",
    )
    parser.add_argument(
        "--techniques", nargs="+", default=["lru", "itp", "itp+xptp"],
        metavar="TECH", help=f"techniques from Table 2: {', '.join(POLICY_MATRIX)}",
    )
    parser.add_argument("--workload", choices=WORKLOAD_KINDS, default="server")
    parser.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="execution engine (default: spec); both engines produce "
             "bit-identical statistics",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warmup", type=int, default=WARMUP)
    parser.add_argument("--measure", type=int, default=MEASURE)
    parser.add_argument(
        "--large-pages", type=int, default=0, metavar="PCT",
        help="percent of the footprint on 2MB pages (Section 6.5)",
    )
    parser.add_argument("--energy", action="store_true", help="include pJ/instruction")
    add_runner_arguments(parser, PRESET_NAMES)
    parser.add_argument("--list", action="store_true", help="list techniques and exit")
    parser.add_argument("--describe", action="store_true",
                        help="print the simulated system configuration and exit")
    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.warmup < 0:
        parser.error(f"--warmup must be non-negative, got {args.warmup}")
    if args.measure <= 0:
        parser.error(f"--measure must be positive, got {args.measure}")
    if args.list:
        for name, policies in POLICY_MATRIX.items():
            spec = ", ".join(f"{k}={v}" for k, v in policies.items()) or "all-LRU baseline"
            print(f"{name:<14} {spec}")
        return 0
    if args.describe:
        print(describe(scaled_config()))
        return 0

    unknown = [t for t in args.techniques if t not in POLICY_MATRIX]
    if unknown:
        print(f"unknown technique(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    try:
        runner = runner_from_args(args)
    except (ConfigurationError, TopologyError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    spec = resolve_topology(args.topology, scaled_config())

    try:
        # Argparse restricts --engine; this catches a batched engine asked
        # to drive one stream per core.
        engine_for(args.engine, spec.num_cores)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    # One workload per core (a single-core topology gets exactly one);
    # extra cores run the same workload kind at distinct seeds.
    workloads = tuple(
        make_workload(args.workload, args.seed + index)
        for index in range(spec.num_cores)
    )
    for workload in workloads:
        if args.large_pages:
            workload.large_page_percent = args.large_pages

    headers = ["technique", "ipc", "speedup_%"] + [h for h, _ in METRIC_COLUMNS]
    if args.energy:
        headers.append("pj_per_instr")
    try:
        results = runner.run(
            SimJob(config_for(t), workloads, args.warmup, args.measure,
                   label=t, topology=args.topology, engine=args.engine)
            for t in args.techniques
        )
    except MatrixError as exc:
        print(exc.report.summary(), file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 1
    rows = []
    baseline_ipc = results[0].ipc
    for technique, result in zip(args.techniques, results):
        row = [technique, result.ipc, 100.0 * (result.ipc / baseline_ipc - 1.0)]
        row += [result.metrics.get(key, "n/a") for _, key in METRIC_COLUMNS]
        if args.energy:
            row.append(energy_report(result.stats).pj_per_instruction)
        rows.append(row)
    print(format_table(headers, rows))
    names = "+".join(w.name for w in workloads)
    print(f"(speedup vs first technique: {args.techniques[0]}; "
          f"topology={spec.name}, workload={names}, "
          f"{args.measure} measured instructions)")
    return 0


def cli() -> None:
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
