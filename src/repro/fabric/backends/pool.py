"""Process-pool backend: attempts run in worker processes.

Worker crashes (an OS kill, an injected ``worker.crash``) surface as
``BrokenProcessPool``; the backend discards the broken pool and raises
:class:`~.base.BackendBroken` naming the interrupted attempts, carrying
any completions that finished before the break so no result is lost.  The
runner decides what to requeue; the next :meth:`submit` builds a fresh
pool.  The run's fault plan reaches the workers through the pool
initializer, which installs it as each worker's process plan (a worker
serves one pool, so its plan cannot be overwritten mid-run, and the
plan's ``max`` fire caps count per worker process).  Per-cell SIGALRM
deadlines work: a pool worker's task thread is its process's main thread.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple

from ...core.simulator import SimulationResult
from ...faults import plan as fault_plans
from ..jobs import SimJob
from .base import Backend, BackendBroken, CellCompletion, execute_cell


def _execute_in_worker(
    job: SimJob, attempt: int, timeout: Optional[float]
) -> Tuple[SimulationResult, float]:
    """Pool task: run the cell under the plan this worker's initializer
    installed (or the ``REPRO_FAULTS`` it inherited)."""
    return execute_cell(job, attempt, timeout, fault_plans.active_plan())


class ProcessPoolBackend(Backend):
    """Fan attempts out over a ``ProcessPoolExecutor``, rebuilt on breakage.

    ``pending`` is how many cells the run expects to execute; the pool
    never starts more workers than that (default: ``workers``).
    """

    def __init__(
        self,
        workers: int,
        fault_plan: Optional["fault_plans.FaultPlan"] = None,
        pending: Optional[int] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.capacity = self.workers
        self.fault_plan = fault_plan
        self._pool_size = min(self.workers, pending or self.workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[
            "Future[Tuple[SimulationResult, float]]", object
        ] = {}

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            kwargs: Dict[str, object] = {}
            if self.fault_plan is not None:
                kwargs.update(
                    initializer=fault_plans.install_plan,
                    initargs=(self.fault_plan.spec_string(),),
                )
            self._pool = ProcessPoolExecutor(
                max_workers=self._pool_size, **kwargs
            )
        return self._pool

    def _discard_pool(self) -> List[object]:
        """Drop the broken substrate; returns the interrupted tokens."""
        interrupted = list(self._futures.values())
        self._futures.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        return interrupted

    def submit(
        self, token: object, job: SimJob, attempt: int, timeout: Optional[float]
    ) -> None:
        pool = self._ensure_pool()
        try:
            future = pool.submit(_execute_in_worker, job, attempt, timeout)
        except (BrokenProcessPool, RuntimeError):
            # The pool broke between harvest and submit; this attempt never
            # started, so the cell keeps its attempt count (``unstarted``),
            # while in-flight attempts are consumed (``interrupted``).
            raise BackendBroken(
                self._discard_pool(), unstarted=[token]
            ) from None
        self._futures[future] = token

    def drain(self) -> List[CellCompletion]:
        if not self._futures:
            return []
        ready, _ = wait(set(self._futures), return_when=FIRST_COMPLETED)
        broken = False
        completions: List[CellCompletion] = []
        for future in ready:
            if isinstance(future.exception(), BrokenProcessPool):
                # Leave the future in place: its token is reported as
                # interrupted below, alongside the still-running attempts.
                broken = True
                continue
            completion_token = self._futures.pop(future)
            error = future.exception()
            if error is not None:
                completions.append(CellCompletion(completion_token, error=error))
            else:
                completions.append(
                    CellCompletion(completion_token, outcome=future.result())
                )
        if broken:
            raise BackendBroken(self._discard_pool(), completions=completions)
        return completions

    def close(self) -> None:
        if self._pool is not None:
            # Cancel queued cells on failure so a bad matrix fails fast
            # instead of draining the whole backlog first.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._futures.clear()
