"""Shared benchmark plumbing.

Each benchmark regenerates one of the paper's figures.  A simulation sweep
is expensive, so every bench runs exactly one round (``pedantic``).

The sweeps fan out over the parallel runner: ``--repro-workers N`` (or
``auto`` for every core; default 1, keeping the timed region serial and
reproducible) and ``--repro-cache-dir DIR`` (reuse simulation results
across runs — only for iterating on reporting code, as cache hits make the
timings meaningless).
"""

from __future__ import annotations

import pytest

from repro.fabric import ParallelRunner


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


@pytest.fixture
def repro_runner(request):
    """The benchmark-selected runner."""
    workers = request.config.getoption("--repro-workers")
    return ParallelRunner(
        workers=workers if workers == "auto" else int(workers),
        cache_dir=request.config.getoption("--repro-cache-dir"),
        progress=True,
    )
