"""The :class:`Backend` protocol — the fabric's execution seam.

A backend owns *where* cell attempts run (inline or in a process pool)
and nothing else: no retry policy, no caching, no ordering.
The runner hands a backend ``(token, job, attempt, timeout)`` tuples and
collects :class:`CellCompletion` records; everything above that line —
dedup, retries, backoff, failure policy, report bookkeeping — is
backend-independent.

All backends funnel through :func:`execute_cell`, the one function that
actually runs a simulation.  Everything reachable from it must be free of
unseeded randomness, wall-clock dependence and module-global writes, so a
cell's result depends only on the job description — never on the backend,
the worker, or the attempt number.  The golden digests, the pinned
``job_key`` table and the serial-vs-pool comparisons in
``tests/test_parallel_runner.py`` and ``tests/test_fabric.py`` check
that.  Its fault plan is an argument, never process state, so concurrent
runs cannot see each other's.  Keep it module-level: process-pool workers
run it.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ...core.simulator import Session, SimulationResult, is_smt_run
from ...faults import inject as fault_inject
from ...faults.plan import FaultPlan
from ..jobs import CellTimeout, SimJob


@contextmanager
def _cell_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Enforce a wall-clock limit on the enclosed cell via ``SIGALRM``.

    Armed in the process that executes the cell (a pool worker's task
    thread is its process's main thread), so a genuinely hung simulation —
    or an injected ``worker.hang`` — is interrupted even though
    ``concurrent.futures`` cannot cancel a running task.  No-op without a
    limit, off POSIX, or off the main thread (where signals cannot arm).
    """
    if (
        not seconds
        or os.name != "posix"
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise CellTimeout(f"cell exceeded its {seconds:g}s wall-clock limit")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_cell(
    job: SimJob,
    attempt: int = 0,
    timeout: Optional[float] = None,
    plan: Optional[FaultPlan] = None,
) -> Tuple[SimulationResult, float]:
    """Run one cell; returns (result, wall seconds).  ``plan`` is the fault
    plan whose worker sites this attempt consults (``None``: no faults)."""
    start = time.perf_counter()
    with _cell_deadline(timeout):
        if attempt == 0 and plan is not None:
            # Worker faults arm only a cell's first attempt, so retried and
            # requeued cells run clean and every chaos run converges.
            fault_inject.maybe_crash(plan, job.cell)
            fault_inject.maybe_hang(plan, job.cell)
        smt = is_smt_run(job.resolved_topology(), len(job.workloads))
        session = Session(job.config, job.workloads, job.topology, job.engine,
                          0.25 if smt else None)
        session.warmup(job.warmup)
        session.measure(job.measure)
        result = session.result(job.label)
    return result, time.perf_counter() - start


class CellCompletion(NamedTuple):
    """One finished cell attempt, success or failure.

    ``token`` echoes whatever the runner passed to :meth:`Backend.submit`
    (the fabric uses job-key strings).  Exactly one of ``outcome`` /
    ``error`` is set: ``outcome`` is the ``(result, elapsed)`` pair from
    :func:`execute_cell`, ``error`` the exception the attempt raised.
    """

    token: object
    outcome: Optional[Tuple[SimulationResult, float]] = None
    error: Optional[BaseException] = None


class BackendBroken(RuntimeError):
    """The backend's worker substrate died (e.g. ``BrokenProcessPool``).

    ``interrupted`` lists the tokens of attempts that were in flight when
    the substrate broke (their attempt was consumed — a crashed worker may
    have been mid-simulation); ``unstarted`` lists tokens whose submit was
    refused (their attempt was *not* consumed).  ``completions`` carries
    any attempts that did finish before the break was noticed, so no
    result is lost to a crash elsewhere in the pool.  After raising, the
    backend has discarded its substrate; the next :meth:`Backend.submit`
    builds a fresh one.
    """

    def __init__(
        self,
        interrupted: Sequence[object],
        unstarted: Sequence[object] = (),
        completions: Sequence[CellCompletion] = (),
    ) -> None:
        super().__init__("execution backend broke")
        self.interrupted = list(interrupted)
        self.unstarted = list(unstarted)
        self.completions = list(completions)


class Backend(ABC):
    """Where cell attempts run.  Implementations: serial, processes.

    The contract the runner relies on:

    * :attr:`capacity` — how many attempts may usefully be in flight at
      once; the runner keeps the backend topped up to this depth.
    * :meth:`submit` — accept one attempt.  May raise
      :class:`BackendBroken` if the substrate died; the attempt is then in
      the exception's ``unstarted`` list and was not consumed.
    * :meth:`drain` — block until at least one in-flight attempt finishes
      and return all finished completions.  Raises :class:`BackendBroken`
      when the substrate died with attempts in flight.
    * :meth:`close` — release the substrate (idempotent).

    Backends never retry, reorder, or interpret results — determinism and
    policy live in the runner, bit-identity in :func:`execute_cell`.
    """

    #: Maximum useful in-flight attempts (1 for serial execution).
    capacity: int = 1
    #: The run's fault plan; attempts consult it, never a global.
    fault_plan: Optional[FaultPlan] = None

    @abstractmethod
    def submit(
        self, token: object, job: SimJob, attempt: int, timeout: Optional[float]
    ) -> None:
        """Accept one cell attempt for execution."""

    @abstractmethod
    def drain(self) -> List[CellCompletion]:
        """Block until ≥1 in-flight attempt finishes; return all finished."""

    @abstractmethod
    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def execute(
        self, job: SimJob, attempt: int = 0, timeout: Optional[float] = None
    ) -> Tuple[SimulationResult, float]:
        """Run one cell attempt to completion on the calling thread.

        The shared execution path every backend funnels through (pool
        backends run this module's :func:`execute_cell` in their workers,
        which is the same code path).
        """
        return execute_cell(job, attempt, timeout, self.fault_plan)
