"""The runner API: ``ParallelRunner`` and the process-wide default runner.

``ParallelRunner`` resolves its knobs once and holds lifetime counters;
each ``run()``/``run_iter()`` call submits to a fresh
:class:`~repro.fabric.scheduler.Scheduler` (so every run re-probes the
shared cache and carries its own fault plan) with the runner as the
scheduler's counter sink.  :meth:`ParallelRunner.run_iter` (and the
module-level :func:`run_iter`) streams ``(index, CellReport, result)``
tuples as cells finish.  For long-lived multi-submission scheduling —
many concurrent matrices deduplicated against each other — construct a
:class:`Scheduler` directly.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from ..core.simulator import SimulationResult
from ..faults import plan as fault_plans
from .jobs import SimJob, _env_workers
from .scheduler import CellReport, MatrixReport, Scheduler, SchedulerConfig, Submission
from .store import ResultCache

__all__ = [
    "ParallelRunner",
    "configure_default_runner",
    "get_default_runner",
    "run_iter",
    "run_jobs",
    "set_default_runner",
]


class ParallelRunner:
    """Fans a :class:`SimJob` list out over worker processes.

    * ``workers`` — process count; ``1`` (default) runs serially in-process,
      ``None``/``"auto"`` uses every core.
    * ``cache_dir`` — enable the on-disk result cache at this directory.
    * ``progress`` — per-cell completion/timing lines on stderr.
    * ``policy`` — ``FAIL_FAST`` (default; unchanged historical behaviour)
      or ``CONTINUE`` (finish every cell, raise
      :class:`~repro.fabric.scheduler.MatrixError` at the end if any
      failed).
    * ``max_retries`` — extra attempts per failed/timed-out cell (default
      0), with exponential backoff ``backoff_base * 2**(attempt-1)`` times
      a deterministic jitter.
    * ``timeout`` — per-cell wall-clock seconds; a cell over budget raises
      :class:`~repro.fabric.jobs.CellTimeout` in its process and is retried
      like any failure.
    * ``max_pool_restarts`` — how many times a ``BrokenProcessPool`` (a
      worker killed by the OS) may be rebuilt, requeuing the in-flight
      cells (default 2; a separate budget from per-cell retries).
    * ``faults`` — a programmatic :class:`repro.faults.FaultPlan` (or spec
      string) for this runner's runs only; default: the ambient
      ``REPRO_FAULTS`` plan.
    * ``backend`` — force an execution backend by registry name
      (``serial`` / ``process``); default: auto-selection (serial for one
      worker or one pending cell, process pool otherwise).

    Unset knobs fall back to ``REPRO_FAILURE_POLICY``, ``REPRO_MAX_RETRIES``,
    ``REPRO_CELL_TIMEOUT`` and ``REPRO_POOL_RESTARTS``.  ``run`` preserves
    job order in its result list, independent of worker scheduling, so
    callers can zip results back onto their matrix; each run also fills in
    a :class:`~repro.fabric.scheduler.MatrixReport` at
    ``runner.last_report``.
    """

    def __init__(
        self,
        workers: Union[int, str, None] = 1,
        cache_dir: Union[str, Path, None] = None,
        progress: Optional[bool] = None,
        *,
        policy: Optional[str] = None,
        max_retries: Optional[int] = None,
        timeout: Optional[float] = None,
        backoff_base: float = 0.25,
        max_pool_restarts: Optional[int] = None,
        faults: Union["fault_plans.FaultPlan", str, None] = None,
        backend: Optional[str] = None,
    ) -> None:
        config = SchedulerConfig.from_knobs(
            workers, progress, policy=policy, max_retries=max_retries,
            timeout=timeout, backoff_base=backoff_base,
            max_pool_restarts=max_pool_restarts, faults=faults,
            backend=backend,
        )
        self._config = config
        self.cache = ResultCache(cache_dir) if cache_dir else None
        # Resolved knobs, readable as attributes.
        self.workers = config.workers
        self.progress = config.progress
        self.policy = config.policy
        self.max_retries = config.max_retries
        self.timeout = config.timeout
        self.backoff_base = config.backoff_base
        self.max_pool_restarts = config.max_pool_restarts
        self.fault_plan = config.fault_plan
        self.backend = config.backend
        # Lifetime counters, filled in by each run's scheduler (its sink).
        self.cache_hits = 0
        self.cache_misses = 0
        self.simulations = 0
        self.failed_cells = 0
        self.last_report: Optional[MatrixReport] = None

    def _submit(self, jobs: Iterable[SimJob]) -> Submission:
        """Fresh scheduler per call: every run re-probes the shared cache,
        so hit/miss counts are per run."""
        submission = Scheduler(self._config, cache=self.cache, sink=self).submit(jobs)
        self.last_report = submission.report
        return submission

    def run(self, jobs: Iterable[SimJob]) -> List[SimulationResult]:
        """Execute all jobs; results come back in job order.

        Under ``FAIL_FAST`` (default) the first permanently failed cell
        raises :class:`~repro.fabric.jobs.SimulationError`; under
        ``CONTINUE`` every cell runs and a
        :class:`~repro.fabric.scheduler.MatrixError` carrying the report
        and partial results is raised at the end if any cell failed.
        """
        return self._submit(jobs).collect()

    def run_iter(
        self, jobs: Iterable[SimJob]
    ) -> Iterator[Tuple[int, CellReport, Optional[SimulationResult]]]:
        """Stream ``(index, CellReport, result)`` as cells finish.

        Cached cells yield immediately in job order; simulated cells in
        completion order.  Same terminal error contract as :meth:`run`.
        """
        return self._submit(jobs).iter_results()


# --------------------------------------------------------------------- #
# Process-wide default runner
# --------------------------------------------------------------------- #

_default_runner: Optional[ParallelRunner] = None

#: Sentinel: distinguishes "caller did not choose a worker count" (fall
#: back to ``REPRO_WORKERS``) from an explicit ``workers=1``.
_UNSET_WORKERS = object()


def get_default_runner() -> ParallelRunner:
    """The runner used when an experiment API is called without one.

    First use builds it from the environment: ``REPRO_WORKERS`` (a count or
    ``auto``; default 1, keeping library calls serial and deterministic),
    ``REPRO_CACHE_DIR`` (default: no cache), ``REPRO_PROGRESS=1``, plus the
    resilience knobs ``REPRO_FAILURE_POLICY``, ``REPRO_MAX_RETRIES``,
    ``REPRO_CELL_TIMEOUT`` and ``REPRO_POOL_RESTARTS``.
    """
    global _default_runner
    if _default_runner is None:
        _default_runner = ParallelRunner(
            workers=_env_workers(),
            cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
        )
    return _default_runner


def set_default_runner(runner: Optional[ParallelRunner]) -> Optional[ParallelRunner]:
    """Install (or, with ``None``, reset) the process-wide default runner.

    Returns the previously installed runner so callers can restore it.
    """
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    return previous


def configure_default_runner(
    workers: Union[int, str, None, object] = _UNSET_WORKERS,
    cache_dir: Union[str, Path, None] = None,
    progress: Optional[bool] = None,
    *,
    policy: Optional[str] = None,
    max_retries: Optional[int] = None,
    timeout: Optional[float] = None,
    backoff_base: float = 0.25,
    max_pool_restarts: Optional[int] = None,
    faults: Union["fault_plans.FaultPlan", str, None] = None,
    backend: Optional[str] = None,
) -> ParallelRunner:
    """Build and install the default runner; returns it.

    An unset ``workers`` falls back to ``REPRO_WORKERS`` exactly like the
    lazy :func:`get_default_runner` path — historically it silently
    defaulted to 1, so ``configure_default_runner(cache_dir=...)`` dropped
    the ambient worker count.  Pass ``workers=1`` explicitly to force a
    serial runner.
    """
    if workers is _UNSET_WORKERS:
        workers = _env_workers()
    runner = ParallelRunner(
        workers=workers, cache_dir=cache_dir, progress=progress,
        policy=policy, max_retries=max_retries, timeout=timeout,
        backoff_base=backoff_base, max_pool_restarts=max_pool_restarts,
        faults=faults, backend=backend,
    )
    set_default_runner(runner)
    return runner


def run_jobs(
    jobs: Iterable[SimJob], runner: Optional[ParallelRunner] = None
) -> List[SimulationResult]:
    """Run jobs on ``runner`` (or the process-wide default)."""
    return (runner or get_default_runner()).run(jobs)


def run_iter(
    jobs: Iterable[SimJob], runner: Optional[ParallelRunner] = None
) -> Iterator[Tuple[int, CellReport, Optional[SimulationResult]]]:
    """Stream jobs on ``runner`` (or the process-wide default) as they
    finish; yields ``(index, CellReport, result)``."""
    return (runner or get_default_runner()).run_iter(jobs)
