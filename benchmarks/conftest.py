"""Shared benchmark plumbing.

Each benchmark regenerates one of the paper's figures.  A simulation sweep
is expensive, so every bench runs exactly one round (``pedantic``), prints
the reproduced rows/series, and attaches the headline numbers to the
pytest-benchmark record via ``extra_info``.

The sweeps fan out over the parallel runner: ``--repro-workers N`` (or
``auto`` for every core; default 1, keeping the timed region serial and
reproducible) and ``--repro-cache-dir DIR`` (reuse simulation results
across runs — only for iterating on reporting code, as cache hits make the
timings meaningless).
"""

from __future__ import annotations

import pytest

from repro.experiments.reporting import FigureResult, format_figure
from repro.fabric import ParallelRunner, set_default_runner


def pytest_addoption(parser):
    group = parser.getgroup("repro", "paper-reproduction benchmarks")
    group.addoption(
        "--repro-workers", default="1", metavar="N",
        help="worker processes per figure sweep: a count or 'auto' (default: 1)",
    )
    group.addoption(
        "--repro-cache-dir", default=None, metavar="DIR",
        help="on-disk simulation result cache (skips previously run cells)",
    )


@pytest.fixture(autouse=True)
def _repro_default_runner(request):
    """Install the benchmark-selected runner as the process default."""
    workers = request.config.getoption("--repro-workers")
    runner = ParallelRunner(
        workers=workers if workers == "auto" else int(workers),
        cache_dir=request.config.getoption("--repro-cache-dir"),
        progress=True,
    )
    previous = set_default_runner(runner)
    yield runner
    set_default_runner(previous)


def run_figure(benchmark, runner, label=None, **kwargs):
    """Run a figure driver once under pytest-benchmark and print its table."""
    results = benchmark.pedantic(lambda: runner(**kwargs), rounds=1, iterations=1)
    if isinstance(results, FigureResult):
        results = [results]
    for figure in results:
        print()
        print(format_figure(figure))
        benchmark.extra_info[figure.figure] = figure.as_dicts()
    if label:
        benchmark.extra_info["label"] = label
    return results
