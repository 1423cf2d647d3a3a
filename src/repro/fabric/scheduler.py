"""The submission scheduler: many matrices in, each unique cell once.

A :class:`Scheduler` accepts any number of concurrent submissions
(:meth:`Scheduler.submit` is thread-safe), deduplicates cells by
:func:`repro.fabric.jobs.job_key` across submissions — overlapping sweeps
simulate each unique cell exactly once — applies the retry / timeout /
failure-policy machinery per unique cell, and delivers results to every
subscribed submission incrementally, as cells finish, via
:meth:`Submission.iter_results`.

Execution uses a **cooperative driver** model: there is no scheduler
thread.  Whichever consumer blocks on a result first becomes the driver —
it fills the backend to capacity, blocks in ``Backend.drain()`` with the
scheduler lock released, and hands results to every waiting submission.
When it leaves, the next blocked consumer takes over.  A single-threaded
caller therefore runs a plain serial loop (the same thread executes serial
cells, so SIGALRM deadlines arm), while concurrent callers share one
backend and one in-flight set.

Failure semantics apply per unique cell: ``fail-fast`` aborts the whole scheduler at the first permanently failed cell (every
consumer raises :class:`~repro.fabric.jobs.SimulationError`); ``continue``
finishes everything and each submission raises a :class:`MatrixError`
carrying its report and partial results at exhaustion.  Event strings,
log lines and report shapes are an interface: CI greps them, and the
chaos acceptance tests run against this code through ``ParallelRunner``.

Fault plans travel with the scheduler, never through process state: it
resolves one plan at construction (``config.fault_plan``, else the
ambient ``REPRO_FAULTS`` plan) and hands it explicitly to submit-time
attribution, the backend (serial attempts, pool initializers) and every
cache store.  ``ParallelRunner`` builds a fresh scheduler per run, so
each of its submissions carries its own plan, and concurrent runners with
different plans cannot observe each other's.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.simulator import SimulationResult
from ..faults import plan as fault_plans
from .backends import Backend, BackendBroken, CellCompletion, make_backend
from .jobs import (
    FAIL_FAST,
    FAILURE_POLICIES,
    CellTimeout,
    ConfigurationError,
    SimJob,
    SimulationError,
    _env_float,
    _env_int,
    _jitter,
    job_key,
)
from .store import ResultCache

__all__ = [
    "CellReport",
    "MatrixError",
    "MatrixReport",
    "Scheduler",
    "SchedulerConfig",
    "Submission",
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
    """Per-cell outcomes of one submission (one ``run``/``run_iter`` call)."""

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
# Configuration
# --------------------------------------------------------------------- #


@dataclass
class SchedulerConfig:
    """Resolved execution knobs, shared by every submission of a scheduler.

    Build with :meth:`from_knobs` to get the full knob resolution —
    env-variable fallbacks (``REPRO_FAILURE_POLICY``, ``REPRO_MAX_RETRIES``,
    ``REPRO_CELL_TIMEOUT``, ``REPRO_POOL_RESTARTS``, ``REPRO_PROGRESS``,
    ``REPRO_FAULTS``) and validation.
    """

    workers: int = 1
    progress: bool = False
    policy: str = FAIL_FAST
    max_retries: int = 0
    timeout: Optional[float] = None
    backoff_base: float = 0.25
    max_pool_restarts: int = 2
    fault_plan: Optional["fault_plans.FaultPlan"] = None
    #: Force a backend by registry name; ``None`` auto-selects serial for
    #: one worker (or one pending cell) and the process pool otherwise.
    backend: Optional[str] = None

    @classmethod
    def from_knobs(
        cls,
        workers: Union[int, str, None] = 1,
        progress: Optional[bool] = None,
        *,
        policy: Optional[str] = None,
        max_retries: Optional[int] = None,
        timeout: Optional[float] = None,
        backoff_base: float = 0.25,
        max_pool_restarts: Optional[int] = None,
        faults: Union["fault_plans.FaultPlan", str, None] = None,
        backend: Optional[str] = None,
    ) -> "SchedulerConfig":
        import os

        if workers is None or workers == "auto":
            workers = os.cpu_count() or 1
        try:
            workers = max(1, int(workers))
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"workers must be a positive integer or 'auto', got {workers!r}"
            ) from None
        if progress is None:
            progress = os.environ.get("REPRO_PROGRESS", "") == "1"
        if policy is None:
            policy = os.environ.get("REPRO_FAILURE_POLICY", "").strip() or FAIL_FAST
        if policy not in FAILURE_POLICIES:
            raise ConfigurationError(
                f"failure policy must be one of {FAILURE_POLICIES}, got {policy!r} "
                "(set via policy= or REPRO_FAILURE_POLICY)"
            )
        if max_retries is None:
            max_retries = _env_int("REPRO_MAX_RETRIES", 0)
        timeout_knob = "timeout (timeout= or --cell-timeout)"
        if timeout is None:
            timeout_knob = "REPRO_CELL_TIMEOUT"
            timeout = _env_float(timeout_knob, None)
        if timeout is not None and math.isnan(timeout):
            raise ConfigurationError(
                f"{timeout_knob} must be a number of seconds, got nan"
            )
        if max_pool_restarts is None:
            max_pool_restarts = _env_int("REPRO_POOL_RESTARTS", 2)
        if isinstance(faults, str):
            faults = fault_plans.FaultPlan.parse(faults)
        fault_plan = faults or None
        if fault_plan is None:
            # Surface a malformed REPRO_FAULTS now, as a configuration
            # error, rather than as a traceback mid-matrix.
            try:
                fault_plans.active_plan()
            except fault_plans.FaultSpecError as exc:
                raise ConfigurationError(f"{fault_plans.ENV_VAR}: {exc}") from exc
        return cls(
            workers=workers,
            progress=bool(progress),
            policy=policy,
            max_retries=max(0, int(max_retries)),
            # 0, negative and infinite budgets all mean "no limit".
            timeout=timeout if timeout and 0 < timeout < math.inf else None,
            backoff_base=max(0.0, float(backoff_base)),
            max_pool_restarts=max(0, int(max_pool_restarts)),
            fault_plan=fault_plan,
            backend=backend,
        )


# --------------------------------------------------------------------- #
# Cell state and submissions
# --------------------------------------------------------------------- #


class _CellState:
    """Scheduler-side state of one unique cell (one ``job_key``).

    The first submission to name a key owns the canonical
    :class:`CellReport` (``report_cell``) — status, attempts and events are
    maintained there in place.  Later
    submissions attach as watchers and receive a field-by-field copy when
    the cell settles.
    """

    __slots__ = (
        "key", "job", "order", "report_cell", "cache_key",
        "result", "settled", "watchers",
    )

    def __init__(
        self, key: str, job: SimJob, order: int, report_cell: CellReport
    ) -> None:
        self.key = key
        self.job = job
        self.order = order
        self.report_cell = report_cell
        self.cache_key: Optional[str] = None
        self.result: Optional[SimulationResult] = None
        self.settled = False
        self.watchers: List[Tuple["Submission", int]] = []


class Submission:
    """One submitted matrix: a job list plus its streaming result channel.

    Results arrive via :meth:`iter_results` as ``(index, CellReport,
    result)`` tuples in completion order (``result`` is ``None`` for a
    failed cell under the ``continue`` policy).  ``results`` fills in
    job-index order as cells settle, so after exhaustion it is the
    order-preserved result list regardless of yield order.
    """

    def __init__(self, scheduler: "Scheduler", jobs: Sequence[SimJob]) -> None:
        self.jobs: List[SimJob] = list(jobs)
        self.report = MatrixReport(
            [CellReport(i, job.cell) for i, job in enumerate(self.jobs)]
        )
        self.results: List[Optional[SimulationResult]] = [None] * len(self.jobs)
        self._scheduler = scheduler
        self._ready: Deque[int] = deque()
        self._delivered = 0

    def iter_results(
        self,
    ) -> Iterator[Tuple[int, CellReport, Optional[SimulationResult]]]:
        """Yield ``(index, CellReport, result)`` as cells finish.

        Cached and deduplicated cells yield immediately (in job order,
        before any simulation starts); simulated cells yield in completion
        order.  At exhaustion, failed cells raise :class:`MatrixError`
        (carrying the report and partial results) and an unfilled result
        slot raises :class:`SimulationError` — the ``ParallelRunner.run``
        contract.
        """
        while True:
            item = self._scheduler._next(self)
            if item is None:
                break
            yield item
        if self.report.failures():
            raise MatrixError(self.report, list(self.results))
        missing = [
            self.report.cells[i].cell
            for i, r in enumerate(self.results)
            if r is None
        ]
        if missing:
            # Every slot must be filled or accounted for as a failure above;
            # anything else is a scheduler bug and must fail loudly, never
            # be silently dropped from the result list.
            raise SimulationError(
                f"internal error: {len(missing)} matrix cell(s) finished without a "
                f"result or a recorded failure: {', '.join(missing)}"
            )

    def __iter__(
        self,
    ) -> Iterator[Tuple[int, CellReport, Optional[SimulationResult]]]:
        return self.iter_results()

    def collect(self) -> List[SimulationResult]:
        """Drain the stream; return the order-preserved result list."""
        for _ in self.iter_results():
            pass
        return [r for r in self.results if r is not None]


# --------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------- #


class Scheduler:
    """Cross-submission deduplicating cell scheduler (see module docstring).

    ``cache`` is the shared artifact store (``None`` disables caching).
    ``sink`` receives the counters — any object with ``cache_hits``,
    ``cache_misses``, ``simulations`` and ``failed_cells`` attributes;
    ``ParallelRunner`` passes itself so its lifetime counters span runs.
    By default the scheduler is its own sink.
    """

    def __init__(
        self,
        config: Optional[SchedulerConfig] = None,
        cache: Optional[ResultCache] = None,
        sink: Optional[object] = None,
    ) -> None:
        self.config = config or SchedulerConfig()
        self.cache = cache
        self.sink = sink if sink is not None else self
        #: The plan every fault site of this scheduler consults.
        self.fault_plan = self.config.fault_plan or fault_plans.active_plan()
        # Own counters (used when the scheduler is its own sink; the
        # dedup counter is always scheduler-level).
        self.cache_hits = 0
        self.cache_misses = 0
        self.simulations = 0
        self.failed_cells = 0
        self.dedup_hits = 0
        #: Unique cells seen / completed successfully (drives "done/total"
        #: progress lines; grows as submissions attach).
        self.total = 0
        self.done = 0
        self._cond = threading.Condition()
        self._states: Dict[str, _CellState] = {}
        self._queue: Deque[str] = deque()
        self._inflight: set = set()
        self._order = 0
        self._backend: Optional[Backend] = None
        self._driving = False
        self._restarts = 0
        self._abort: Optional[BaseException] = None
        self._submissions: List[Submission] = []

    # ------------------------------------------------------------- #
    # Per-cell hooks
    # ------------------------------------------------------------- #

    def _log(self, message: str) -> None:
        if self.config.progress:
            print(f"[runner] {message}", file=sys.stderr, flush=True)

    def _finish(
        self,
        job: SimJob,
        key: Optional[str],
        outcome: Tuple[SimulationResult, float],
        done: int,
        total: int,
    ) -> SimulationResult:
        result, elapsed = outcome
        self.sink.simulations += 1
        if self.cache is not None and key is not None:
            try:
                self.cache.store(key, result, self.fault_plan)
            except Exception as exc:
                # A result that cannot be cached is still a result; surface
                # the problem without failing the cell.
                self.cache.store_failures += 1
                self._log(f"cache store failed for {job.cell}: {exc}")
        self._log(f"{done}/{total} {job.cell}: {elapsed:.1f}s")
        return result

    # ------------------------------------------------------------- #
    # Submission
    # ------------------------------------------------------------- #

    def submit(self, jobs: Iterable[SimJob]) -> Submission:
        """Register a matrix; cells already known to the scheduler attach
        to the existing state instead of executing again."""
        sub = Submission(self, jobs)
        with self._cond:
            if self._abort is not None:
                raise self._abort
            self._submissions.append(sub)
            sub.report.pool_restarts = self._restarts
            keys = [job_key(job) for job in sub.jobs]
            # Fix the progress denominator before logging any cell so
            # "done/total" lines always show this submission's full
            # contribution.
            self.total += sum(
                1 for k in dict.fromkeys(keys) if k not in self._states
            )
            fresh: List[str] = []
            for index, (job, key) in enumerate(zip(sub.jobs, keys)):
                cell = sub.report.cells[index]
                state = self._states.get(key)
                if state is not None:
                    self.dedup_hits += 1
                    state.watchers.append((sub, index))
                    if state.settled:
                        self._deliver(sub, index, state)
                    else:
                        cell.injected = state.report_cell.injected
                    continue
                state = _CellState(key, job, self._order, cell)
                self._order += 1
                self._states[key] = state
                state.watchers.append((sub, index))
                if self.cache is not None:
                    state.cache_key = key
                    cached = self.cache.load(key)
                    if self.cache.last_quarantined:
                        cell.events.append(
                            "quarantined corrupt cache entry "
                            f"({self.cache.last_quarantined}); re-simulating"
                        )
                    if cached is not None:
                        self.sink.cache_hits += 1
                        self.done += 1
                        state.result = cached
                        cell.status = "cached"
                        self._log(
                            f"{self.done}/{self.total} {job.cell}: cached"
                        )
                        self._settle(state)
                        continue
                    self.sink.cache_misses += 1
                fresh.append(key)

            plan = self.fault_plan
            if plan is not None:
                for key in fresh:
                    state = self._states[key]
                    injected = [
                        site for site in fault_plans.WORKER_SITES
                        if plan.would_fire(site, state.job.cell)
                    ]
                    if state.cache_key is not None:
                        injected.extend(
                            site for site in fault_plans.CACHE_SITES
                            if plan.would_fire(site, state.cache_key)
                        )
                    state.report_cell.injected = tuple(injected)
                    for watcher, index in state.watchers[1:]:
                        watcher.report.cells[index].injected = (
                            state.report_cell.injected
                        )

            self._queue.extend(fresh)
            self._cond.notify_all()
        return sub

    # ------------------------------------------------------------- #
    # Consumption (cooperative driving)
    # ------------------------------------------------------------- #

    def _next(
        self, sub: Submission
    ) -> Optional[Tuple[int, CellReport, Optional[SimulationResult]]]:
        """Block until ``sub`` has a finished cell; drive execution if idle.

        Returns ``None`` when every cell of ``sub`` has been delivered.
        """
        with self._cond:
            while True:
                if self._abort is not None:
                    raise self._abort
                if sub._ready:
                    index = sub._ready.popleft()
                    return index, sub.report.cells[index], sub.results[index]
                if sub._delivered == len(sub.jobs):
                    return None
                if not self._driving and (self._queue or self._inflight):
                    self._driving = True
                    self._cond.release()
                    error: Optional[BaseException] = None
                    try:
                        try:
                            self._drive()
                        except BaseException as exc:
                            error = exc
                            self._shutdown_backend()
                    finally:
                        self._cond.acquire()
                        self._driving = False
                        if error is not None and self._abort is None:
                            self._abort = error
                        self._cond.notify_all()
                    continue
                if not self._driving:
                    # Nothing queued, nothing in flight, nobody driving, yet
                    # this submission is incomplete: a scheduler bug.
                    stalled = len(sub.jobs) - sub._delivered
                    raise SimulationError(
                        f"internal error: scheduler stalled with {stalled} "
                        "undelivered cell(s)"
                    )
                self._cond.wait()

    # ------------------------------------------------------------- #
    # Driving
    # ------------------------------------------------------------- #

    def _ensure_backend(self) -> Backend:
        with self._cond:
            if self._backend is None:
                name = self.config.backend
                if name is None:
                    # Default selection: serial when one worker or only one
                    # pending cell; otherwise the process pool.
                    name = (
                        "serial"
                        if self.config.workers == 1 or len(self._queue) == 1
                        else "process"
                    )
                self._backend = make_backend(name, self.config.workers, self.fault_plan)
                opener = getattr(self._backend, "open", None)
                if opener is not None:
                    opener(len(self._queue))
            return self._backend

    def _drive(self) -> None:
        """One fill + drain cycle.  Runs WITHOUT the scheduler lock held
        (takes it briefly to mutate state); exactly one thread is in here
        at a time (the ``_driving`` flag)."""
        backend = self._ensure_backend()
        while True:
            with self._cond:
                if not self._queue or len(self._inflight) >= backend.capacity:
                    break
                key = self._queue.popleft()
                state = self._states[key]
                attempt = state.report_cell.attempts
                self._inflight.add(key)
            try:
                backend.submit(key, state.job, attempt, self.config.timeout)
            except BackendBroken as broken:
                self._on_broken(broken)
                return
        with self._cond:
            idle = not self._inflight
        if idle:
            self._close_if_idle()
            return
        try:
            completions = backend.drain()
        except BackendBroken as broken:
            self._on_broken(broken)
            return
        retries = self._process_completions(completions)
        self._requeue_with_backoff(retries)
        self._close_if_idle()

    def _process_completions(
        self, completions: Sequence[CellCompletion]
    ) -> List[Tuple[str, int]]:
        """Record finished attempts; returns ``(key, attempt)`` retries."""
        retries: List[Tuple[str, int]] = []
        with self._cond:
            for completion in completions:
                key = completion.token
                self._inflight.discard(key)
                state = self._states[key]
                cell = state.report_cell
                cell.attempts += 1
                if completion.error is not None:
                    exc = completion.error
                    if cell.attempts <= self.config.max_retries:
                        cell.events.append(
                            f"retry after {type(exc).__name__}: {exc}"
                        )
                        retries.append((key, cell.attempts))
                        continue
                    self._fail_state(
                        state, f"{type(exc).__name__}: {exc}",
                        isinstance(exc, CellTimeout),
                    )
                    if self.config.policy == FAIL_FAST:
                        error = SimulationError(
                            f"simulation failed for cell ({state.job.cell}): {exc}"
                        )
                        error.__cause__ = exc
                        raise error
                    continue
                assert completion.outcome is not None
                self.done += 1
                cell.elapsed = completion.outcome[1]
                state.result = self._finish(
                    state.job, state.cache_key, completion.outcome,
                    self.done, self.total,
                )
                cell.status = "ok"
                self._settle(state)
        return retries

    def _requeue_with_backoff(self, retries: Sequence[Tuple[str, int]]) -> None:
        for key, attempt in retries:
            self._backoff(self._states[key].job.cell, attempt)
            with self._cond:
                self._queue.append(key)

    def _on_broken(self, broken: BackendBroken) -> None:
        """Broken-pool recovery: count the restart, requeue the
        interrupted cells (their in-flight attempt was consumed by the
        crash, so first-attempt-only injected faults cannot re-fire and
        the matrix converges), fail everything once the budget is out."""
        retries = self._process_completions(broken.completions)
        self._requeue_with_backoff(retries)
        with self._cond:
            self._restarts += 1
            for sub in self._submissions:
                sub.report.pool_restarts = self._restarts
            exhausted = self._restarts > self.config.max_pool_restarts
            for key in reversed(list(broken.unstarted)):
                # Never started: keeps its attempt count, stays at the head.
                self._inflight.discard(key)
                self._queue.appendleft(key)
            interrupted = sorted(
                broken.interrupted, key=lambda k: self._states[k].order
            )
            requeued: List[str] = []
            for key in interrupted:
                self._inflight.discard(key)
                cell = self._states[key].report_cell
                cell.attempts += 1
                if exhausted:
                    cell.events.append(
                        f"worker crash (pool restart {self._restarts} exceeds "
                        f"budget {self.config.max_pool_restarts})"
                    )
                else:
                    cell.events.append(
                        "interrupted by worker crash; requeued "
                        f"(pool restart {self._restarts})"
                    )
                    requeued.append(key)
            if exhausted:
                stranded = interrupted + [
                    k for k in self._queue if k not in interrupted
                ]
                self._queue.clear()
                for key in stranded:
                    self._fail_state(
                        self._states[key],
                        f"worker pool broke {self._restarts} times "
                        f"(max_pool_restarts={self.config.max_pool_restarts})",
                        False,
                    )
                if self.config.policy == FAIL_FAST:
                    names = ", ".join(
                        self._states[k].job.cell for k in stranded[:5]
                    )
                    raise SimulationError(
                        f"worker pool broke {self._restarts} times "
                        f"(max_pool_restarts={self.config.max_pool_restarts}); "
                        f"stranded cells: {names}"
                    )
            else:
                self._queue.extend(requeued)
                self._log(
                    f"worker pool broken; rebuilding "
                    f"(restart {self._restarts}/{self.config.max_pool_restarts}, "
                    f"{len(interrupted)} cell(s) requeued)"
                )

    # ------------------------------------------------------------- #
    # Settlement and delivery
    # ------------------------------------------------------------- #

    def _fail_state(self, state: _CellState, error: str, timed_out: bool) -> None:
        cell = state.report_cell
        cell.status = "timeout" if timed_out else "failed"
        cell.error = error
        self.sink.failed_cells += 1
        self._log(
            f"{cell.cell}: {cell.status} after {cell.attempts} attempt(s): {error}"
        )
        self._settle(state)

    def _backoff(self, cell: str, attempt: int) -> None:
        if self.config.backoff_base <= 0:
            return
        delay = (
            self.config.backoff_base * (2.0 ** (attempt - 1))
            * _jitter(cell, attempt)
        )
        self._log(
            f"{cell}: backing off {delay:.2f}s before attempt {attempt + 1}"
        )
        time.sleep(delay)

    def _settle(self, state: _CellState) -> None:
        """Mark terminal and deliver to every watcher (lock held)."""
        state.settled = True
        for sub, index in state.watchers:
            self._deliver(sub, index, state)
        self._cond.notify_all()

    def _deliver(self, sub: Submission, index: int, state: _CellState) -> None:
        cell = sub.report.cells[index]
        if cell is not state.report_cell:
            source = state.report_cell
            cell.status = source.status
            cell.attempts = source.attempts
            cell.elapsed = source.elapsed
            cell.error = source.error
            cell.events = list(source.events)
            cell.injected = source.injected
        sub.results[index] = state.result
        sub._ready.append(index)
        sub._delivered += 1

    # ------------------------------------------------------------- #
    # Backend lifecycle
    # ------------------------------------------------------------- #

    def _close_if_idle(self) -> None:
        backend: Optional[Backend] = None
        with self._cond:
            if not self._queue and not self._inflight:
                backend, self._backend = self._backend, None
        if backend is not None:
            backend.close()

    def _shutdown_backend(self) -> None:
        with self._cond:
            backend, self._backend = self._backend, None
        if backend is not None:
            backend.close()

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        self._shutdown_backend()
