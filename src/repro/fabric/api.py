"""The runner API: ``ParallelRunner``, its reports and the default runner.

``ParallelRunner`` resolves its knobs once and holds lifetime counters.
Each ``run()``/``run_iter()`` call drives its own cells in one loop on the
calling thread: it keys the jobs (a key named twice in one call simulates
once and fills both slots with the same result object), probes the shared
cache, attributes fault sites, then keeps one backend filled until every
unique cell has settled, applying retries, broken-pool recovery and the
failure policy per unique cell.  :meth:`ParallelRunner.run_iter` (and the
module-level :func:`run_iter`) streams ``(index, CellReport, result)``
tuples as cells finish.  Event strings, log lines and report shapes are an
interface: CI greps them.

Fault plans travel with the run, never through process state: each run
resolves one plan (the runner's ``faults=``, else the ambient
``REPRO_FAULTS`` plan) and hands it explicitly to fault-site attribution,
the backend (serial attempts, pool initializers) and every cache store,
so concurrent runners with different plans cannot observe each other's.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..core.simulator import SimulationResult
from ..faults import plan as fault_plans
from .backends import Backend, BackendBroken, ProcessPoolBackend, SerialBackend
from .jobs import (
    FAIL_FAST,
    FAILURE_POLICIES,
    CellTimeout,
    ConfigurationError,
    SimJob,
    SimulationError,
    _env_float,
    _env_int,
    _env_workers,
    _jitter,
    job_key,
)
from .store import ResultCache

__all__ = [
    "CellReport",
    "MatrixError",
    "MatrixReport",
    "ParallelRunner",
    "get_default_runner",
    "run_iter",
    "run_jobs",
    "set_default_runner",
]


# --------------------------------------------------------------------- #
# Matrix report
# --------------------------------------------------------------------- #


@dataclass
class CellReport:
    """Outcome of one matrix cell across all its attempts."""

    index: int
    cell: str
    status: str = "pending"  # pending | ok | cached | failed | timeout
    attempts: int = 0
    elapsed: float = 0.0
    error: Optional[str] = None
    #: Recovery events in order: retries, requeues after pool restarts,
    #: quarantined cache entries.
    events: List[str] = field(default_factory=list)
    #: Fault sites the active :class:`repro.faults.FaultPlan` arms for this
    #: cell (a pure function of the plan, so attribution is exact even for
    #: crashes that leave no exception behind).
    injected: Tuple[str, ...] = ()

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class MatrixReport:
    """Per-cell outcomes of one ``run``/``run_iter`` call."""

    cells: List[CellReport]
    pool_restarts: int = 0

    @property
    def ok(self) -> bool:
        return all(cell.succeeded for cell in self.cells)

    def failures(self) -> List[CellReport]:
        return [cell for cell in self.cells if not cell.succeeded]

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        return counts

    def summary(self) -> str:
        """Multi-line human-readable report (drivers print this)."""
        counts = self.counts()
        parts = [
            f"{counts[status]} {status}"
            for status in ("ok", "cached", "failed", "timeout", "pending")
            if counts.get(status)
        ]
        head = f"matrix: {len(self.cells)} cell(s) — {', '.join(parts) or 'empty'}"
        if self.pool_restarts:
            head += f"; {self.pool_restarts} pool restart(s)"
        lines = [head]
        for cell in self.cells:
            notes = list(cell.events)
            if cell.injected:
                notes.insert(0, "injected: " + "+".join(cell.injected))
            if cell.succeeded and not notes:
                continue
            detail = f"  [{cell.status}] {cell.cell} (attempts={cell.attempts})"
            if cell.error:
                detail += f": {cell.error}"
            if notes:
                detail += " — " + "; ".join(notes)
            lines.append(detail)
        return "\n".join(lines)


class MatrixError(SimulationError):
    """Collect-and-continue run finished with failed cells.

    Carries the full :class:`MatrixReport` (``.report``) and the partial
    result list in job order with ``None`` for failed cells (``.results``),
    so callers can salvage the completed work.
    """

    def __init__(
        self, report: MatrixReport, results: List[Optional[SimulationResult]]
    ) -> None:
        failures = report.failures()
        names = ", ".join(cell.cell for cell in failures[:5])
        more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
        super().__init__(
            f"{len(failures)} of {len(report.cells)} matrix cell(s) failed: "
            f"{names}{more}"
        )
        self.report = report
        self.results = results


# --------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------- #


class ParallelRunner:
    """Fans a :class:`SimJob` list out over worker processes.

    * ``workers`` — process count; ``1`` (default) runs serially in-process,
      ``None``/``"auto"`` uses every core.
    * ``cache_dir`` — enable the on-disk result cache at this directory.
    * ``progress`` — per-cell completion/timing lines on stderr.
    * ``policy`` — ``FAIL_FAST`` (default; unchanged historical behaviour)
      or ``CONTINUE`` (finish every cell, raise :class:`MatrixError` at the
      end if any failed).
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
    * ``backend`` — force an execution backend, ``serial`` or ``process``;
      default: serial for one worker or one pending cell, process pool
      otherwise.

    Unset knobs fall back to ``REPRO_PROGRESS``, ``REPRO_FAILURE_POLICY``,
    ``REPRO_MAX_RETRIES``, ``REPRO_CELL_TIMEOUT`` and
    ``REPRO_POOL_RESTARTS``.  ``run`` preserves job order in its result
    list, independent of worker scheduling, so callers can zip results back
    onto their matrix; each run also fills in a :class:`MatrixReport` at
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
        if workers is None or workers == "auto":
            workers = os.cpu_count() or 1
        try:
            self.workers = max(1, int(workers))
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"workers must be a positive integer or 'auto', got {workers!r}"
            ) from None
        if progress is None:
            progress = os.environ.get("REPRO_PROGRESS", "") == "1"
        self.progress = bool(progress)
        if policy is None:
            policy = os.environ.get("REPRO_FAILURE_POLICY", "").strip() or FAIL_FAST
        if policy not in FAILURE_POLICIES:
            raise ConfigurationError(
                f"failure policy must be one of {FAILURE_POLICIES}, got {policy!r} "
                "(set via policy= or REPRO_FAILURE_POLICY)"
            )
        self.policy = policy
        if max_retries is None:
            max_retries = _env_int("REPRO_MAX_RETRIES", 0)
        self.max_retries = max(0, int(max_retries))
        timeout_knob = "timeout (timeout= or --cell-timeout)"
        if timeout is None:
            timeout_knob = "REPRO_CELL_TIMEOUT"
            timeout = _env_float(timeout_knob, None)
        if timeout is not None and math.isnan(timeout):
            raise ConfigurationError(
                f"{timeout_knob} must be a number of seconds, got nan"
            )
        # 0, negative and infinite budgets all mean "no limit".
        self.timeout = timeout if timeout and 0 < timeout < math.inf else None
        self.backoff_base = max(0.0, float(backoff_base))
        if max_pool_restarts is None:
            max_pool_restarts = _env_int("REPRO_POOL_RESTARTS", 2)
        self.max_pool_restarts = max(0, int(max_pool_restarts))
        if isinstance(faults, str):
            faults = fault_plans.FaultPlan.parse(faults)
        self.fault_plan = faults or None
        if self.fault_plan is None:
            # Surface a malformed REPRO_FAULTS now, as a configuration
            # error, rather than as a traceback mid-matrix.
            try:
                fault_plans.active_plan()
            except fault_plans.FaultSpecError as exc:
                raise ConfigurationError(f"{fault_plans.ENV_VAR}: {exc}") from exc
        if backend not in (None, "serial", "process"):
            raise ConfigurationError(
                f"backend must be 'serial' or 'process', got {backend!r}"
            )
        self.backend = backend
        self.cache = ResultCache(cache_dir) if cache_dir else None
        # Lifetime counters, summed over every run.
        self.cache_hits = 0
        self.cache_misses = 0
        self.simulations = 0
        self.failed_cells = 0
        self.last_report: Optional[MatrixReport] = None

    def run(self, jobs: Iterable[SimJob]) -> List[SimulationResult]:
        """Execute all jobs; results come back in job order.

        Under ``FAIL_FAST`` (default) the first permanently failed cell
        raises :class:`~repro.fabric.jobs.SimulationError`; under
        ``CONTINUE`` every cell runs and a :class:`MatrixError` carrying
        the report and partial results is raised at the end if any cell
        failed.
        """
        jobs = list(jobs)
        results: List[Optional[SimulationResult]] = [None] * len(jobs)
        for index, _cell, result in self.run_iter(jobs):
            results[index] = result
        # run_iter raises unless every slot was filled.
        return [result for result in results if result is not None]

    def run_iter(
        self, jobs: Iterable[SimJob]
    ) -> Iterator[Tuple[int, CellReport, Optional[SimulationResult]]]:
        """Stream ``(index, CellReport, result)`` as cells finish.

        Cached cells yield first, in job order; simulated cells in
        completion order.  Same terminal error contract as :meth:`run`.
        """
        jobs = list(jobs)
        self.last_report = MatrixReport(
            [CellReport(i, job.cell) for i, job in enumerate(jobs)]
        )
        plan = self.fault_plan or fault_plans.active_plan()
        return self._run_cells(jobs, self.last_report, plan)

    def _log(self, message: str) -> None:
        if self.progress:
            print(f"[runner] {message}", file=sys.stderr, flush=True)

    def _run_cells(
        self,
        jobs: List[SimJob],
        report: MatrixReport,
        plan: Optional["fault_plans.FaultPlan"],
    ) -> Iterator[Tuple[int, CellReport, Optional[SimulationResult]]]:
        """The run loop behind :meth:`run_iter` (see the module docstring)."""
        cells = report.cells
        results: List[Optional[SimulationResult]] = [None] * len(jobs)
        # Every index naming a key, in job order; the first one owns the
        # key's canonical CellReport and its attempts.
        slots: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            slots.setdefault(job_key(job), []).append(index)
        total, done = len(slots), 0
        ready: List[int] = []

        def settle(key: str, result: Optional[SimulationResult]) -> None:
            first, *duplicates = slots[key]
            source = cells[first]
            for index in duplicates:
                cell = cells[index]
                cell.status = source.status
                cell.attempts = source.attempts
                cell.elapsed = source.elapsed
                cell.error = source.error
                cell.events = list(source.events)
            for index in slots[key]:
                results[index] = result
            ready.extend(slots[key])

        def fail(key: str, error: str, timed_out: bool) -> None:
            cell = cells[slots[key][0]]
            cell.status = "timeout" if timed_out else "failed"
            cell.error = error
            self.failed_cells += 1
            self._log(
                f"{cell.cell}: {cell.status} after {cell.attempts} attempt(s): {error}"
            )
            settle(key, None)

        queue: Deque[str] = deque()
        for key, indices in slots.items():
            job, cell = jobs[indices[0]], cells[indices[0]]
            if self.cache is not None:
                cached = self.cache.load(key)
                if self.cache.last_quarantined:
                    cell.events.append(
                        "quarantined corrupt cache entry "
                        f"({self.cache.last_quarantined}); re-simulating"
                    )
                if cached is not None:
                    self.cache_hits += 1
                    done += 1
                    cell.status = "cached"
                    self._log(f"{done}/{total} {job.cell}: cached")
                    settle(key, cached)
                    continue
                self.cache_misses += 1
            queue.append(key)
        ready.sort()  # cached cells yield first, in job order

        if plan is not None:
            for key in queue:
                injected = [
                    site for site in fault_plans.WORKER_SITES
                    if plan.would_fire(site, jobs[slots[key][0]].cell)
                ]
                if self.cache is not None:
                    injected.extend(
                        site for site in fault_plans.CACHE_SITES
                        if plan.would_fire(site, key)
                    )
                for index in slots[key]:
                    cells[index].injected = tuple(injected)

        backend: Optional[Backend] = None
        inflight: Set[str] = set()
        try:
            while True:
                for index in ready:
                    yield index, cells[index], results[index]
                ready.clear()
                if not queue and not inflight:
                    break
                if backend is None:
                    name = self.backend or (
                        "serial" if self.workers == 1 or len(queue) == 1 else "process"
                    )
                    backend = (
                        SerialBackend(plan) if name == "serial"
                        else ProcessPoolBackend(self.workers, plan, pending=len(queue))
                    )

                broken: Optional[BackendBroken] = None
                try:
                    while queue and len(inflight) < backend.capacity:
                        key = queue.popleft()
                        inflight.add(key)
                        first = slots[key][0]
                        backend.submit(key, jobs[first], cells[first].attempts, self.timeout)
                    completions = backend.drain()
                except BackendBroken as exc:
                    broken, completions = exc, exc.completions

                retries: List[str] = []
                for completion in completions:
                    key = completion.token
                    inflight.discard(key)
                    job, cell = jobs[slots[key][0]], cells[slots[key][0]]
                    cell.attempts += 1
                    if completion.error is not None:
                        error = completion.error
                        if cell.attempts <= self.max_retries:
                            cell.events.append(
                                f"retry after {type(error).__name__}: {error}"
                            )
                            retries.append(key)
                            continue
                        fail(key, f"{type(error).__name__}: {error}",
                             isinstance(error, CellTimeout))
                        if self.policy == FAIL_FAST:
                            raise SimulationError(
                                f"simulation failed for cell ({job.cell}): {error}"
                            ) from error
                        continue
                    assert completion.outcome is not None
                    result, cell.elapsed = completion.outcome
                    self.simulations += 1
                    if self.cache is not None:
                        try:
                            self.cache.store(key, result, plan)
                        except Exception as exc:
                            # A result that cannot be cached is still a
                            # result; surface the problem without failing
                            # the cell.
                            self.cache.store_failures += 1
                            self._log(f"cache store failed for {job.cell}: {exc}")
                    done += 1
                    self._log(f"{done}/{total} {job.cell}: {cell.elapsed:.1f}s")
                    cell.status = "ok"
                    settle(key, result)
                for key in retries:
                    attempt = cells[slots[key][0]].attempts
                    if self.backoff_base > 0:
                        cell_name = jobs[slots[key][0]].cell
                        delay = (
                            self.backoff_base * (2.0 ** (attempt - 1))
                            * _jitter(cell_name, attempt)
                        )
                        self._log(
                            f"{cell_name}: backing off {delay:.2f}s before "
                            f"attempt {attempt + 1}"
                        )
                        time.sleep(delay)
                    queue.append(key)
                if broken is None:
                    continue

                # Broken-pool recovery: count the restart and requeue the
                # interrupted cells (their in-flight attempt was consumed
                # by the crash, so first-attempt-only injected faults cannot
                # re-fire and the matrix converges); once the budget is
                # out, fail everything still pending.
                report.pool_restarts += 1
                restarts, budget = report.pool_restarts, self.max_pool_restarts
                for key in reversed(broken.unstarted):
                    # Never started: keeps its attempt count, stays at the head.
                    inflight.discard(key)
                    queue.appendleft(key)
                interrupted = sorted(broken.interrupted, key=lambda k: slots[k][0])
                for key in interrupted:
                    inflight.discard(key)
                    cell = cells[slots[key][0]]
                    cell.attempts += 1
                    cell.events.append(
                        f"worker crash (pool restart {restarts} exceeds budget {budget})"
                        if restarts > budget else
                        f"interrupted by worker crash; requeued (pool restart {restarts})"
                    )
                if restarts <= budget:
                    queue.extend(interrupted)
                    self._log(
                        f"worker pool broken; rebuilding (restart {restarts}/{budget}, "
                        f"{len(interrupted)} cell(s) requeued)"
                    )
                    continue
                stranded = interrupted + [k for k in queue if k not in interrupted]
                queue.clear()
                reason = f"worker pool broke {restarts} times (max_pool_restarts={budget})"
                for key in stranded:
                    fail(key, reason, False)
                if self.policy == FAIL_FAST:
                    names = ", ".join(jobs[slots[k][0]].cell for k in stranded[:5])
                    raise SimulationError(f"{reason}; stranded cells: {names}")
        finally:
            if backend is not None:
                backend.close()

        if report.failures():
            raise MatrixError(report, list(results))
        missing = [cells[i].cell for i, r in enumerate(results) if r is None]
        if missing:
            # Every slot must be filled or accounted for as a failure above;
            # anything else is a runner bug and must fail loudly, never be
            # silently dropped from the result list.
            raise SimulationError(
                f"internal error: {len(missing)} matrix cell(s) finished without a "
                f"result or a recorded failure: {', '.join(missing)}"
            )


# --------------------------------------------------------------------- #
# Process-wide default runner
# --------------------------------------------------------------------- #

_default_runner: Optional[ParallelRunner] = None


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
