"""CLI entry point: ``python -m repro.experiments [options] [figure ...]``.

Figure names are the keys of :data:`repro.experiments.FIGURES` (fig01,
fig02, fig03, fig04, fig08, fig09, fig10, fig11, fig12, fig13, fig14,
ablation_params, ablation_adaptive, ext_stlb_prefetch), or ``all``.  Each
figure's whole plan is one runner submission; its tables print, then one
line per claim with its verdict.  With ``--csv-dir DIR`` each table is
also written to ``DIR/<table>.csv``.  ``--workers N`` fans the
simulations over N processes (a count or ``auto``, the default: all
cores); ``--cache-dir DIR`` reuses previously computed simulation
results; ``--topology NAME`` runs every figure on a non-default
single-core machine graph (a preset such as ``split-stlb`` or ``no-llc``
— see ``repro.topology.presets``); a multi-core preset is a usage error.

Fault tolerance (see ``docs/robustness.md``): ``--failure-policy
fail-fast|continue`` (continue finishes the whole matrix and reports the
failed cells instead of aborting on the first), ``--max-retries N``
re-runs failed or timed-out cells, and ``--cell-timeout SECONDS`` bounds
each cell's wall clock.  A run with failed cells prints the per-cell
``MatrixReport`` and exits 1; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..cli import add_runner_arguments, runner_from_args
from ..common.params import scaled_config
from ..fabric import MatrixError
from ..kernel import resolve_engine
from ..topology.presets import PRESET_NAMES, resolve_topology
from . import FIGURES
from .export import write_csv
from .reporting import format_figure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the paper's figures and check their claims.",
    )
    parser.add_argument(
        "figures", nargs="*", metavar="FIGURE",
        help=f"figures to run: {', '.join(FIGURES)} or 'all' (default: all)",
    )
    parser.add_argument(
        "--csv-dir", default=None, metavar="DIR", help="also write each table to DIR/<table>.csv"
    )
    add_runner_arguments(parser)
    return parser


def main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        names = args.figures or ["all"]
        if names == ["all"]:
            names = list(FIGURES)
        unknown = [n for n in names if n not in FIGURES]
        if unknown:
            parser.error(
                f"unknown figure(s): {', '.join(unknown)}; "
                f"available: {', '.join(FIGURES)} or 'all'"
            )
        try:
            # Jobs resolve their engine lazily; a bad REPRO_ENGINE value
            # should fail here with a usage error, not mid-matrix.
            resolve_engine(None)
            runner = runner_from_args(args)
        except ValueError as exc:  # includes ConfigurationError, TopologyError
            parser.error(str(exc))
        cores = resolve_topology(args.topology, scaled_config()).num_cores
        if cores > 1:
            # Every figure cell runs one workload (or two as SMT threads)
            # on one core, so no figure can fill a multi-core graph.
            single_core = [
                name for name in PRESET_NAMES
                if not name.endswith("-N")
                and resolve_topology(name, scaled_config()).num_cores == 1
            ]
            parser.error(
                f"topology {args.topology!r} has {cores} cores, but figures run "
                f"on one core; single-core presets: {', '.join(single_core)}"
            )
    except SystemExit as exc:
        return exc.code or 0
    failed_figures = []
    for name in names:
        start = time.time()
        figure = FIGURES[name]
        try:
            results = figure.run(runner, topology=args.topology)
        except MatrixError as exc:
            # Collect-and-continue: the matrix finished, some cells
            # failed.  Report them and move on to the next figure.
            failed_figures.append(name)
            print(exc.report.summary(), file=sys.stderr)
            print(f"[{name}: FAILED — {exc}]\n", file=sys.stderr)
            continue
        for result in results:
            print(format_figure(result))
            print()
            if args.csv_dir is not None:
                path = write_csv(result, args.csv_dir)
                print(f"[wrote {path}]")
        for claim, holds in figure.claims(results).items():
            print(f"[claim {'holds' if holds else 'FAILS'}: {name}: {claim}]")
        print(f"[{name}: {time.time() - start:.0f}s]\n")
    if failed_figures:
        print(f"failed figures: {', '.join(failed_figures)}", file=sys.stderr)
        return 1
    return 0


def cli() -> None:
    """Console-script entry point (``repro-experiments``)."""
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
