"""Serial backend: attempts run inline on the runner's calling thread.

Bit-identical to the pre-fabric serial code path — no pool, no threads, no
pickling.  Because the attempt runs on the caller's thread (the process's
main thread in CLI runs and tests), :func:`~.base._cell_deadline` can arm
SIGALRM, so per-cell timeouts work exactly as they did in the serial
``ParallelRunner``.  Worker fault sites consult the plan the run built
this backend with.
"""

from __future__ import annotations

from typing import List, Optional

from ...faults.plan import FaultPlan
from ..jobs import SimJob
from .base import Backend, CellCompletion


class SerialBackend(Backend):
    """Run every attempt inline, one at a time, on the calling thread."""

    capacity = 1

    def __init__(self, fault_plan: Optional[FaultPlan] = None) -> None:
        self.fault_plan = fault_plan
        self._queued: List[CellCompletion] = []

    def submit(
        self, token: object, job: SimJob, attempt: int, timeout: Optional[float]
    ) -> None:
        # Execute immediately: the drain() that follows just hands the
        # completion back.  Exceptions (including CellTimeout from the
        # SIGALRM deadline and InjectedWorkerCrash from armed fault plans)
        # become failure completions for the runner's retry machinery.
        try:
            outcome = self.execute(job, attempt, timeout)
        except Exception as exc:
            self._queued.append(CellCompletion(token, error=exc))
        else:
            self._queued.append(CellCompletion(token, outcome=outcome))

    def drain(self) -> List[CellCompletion]:
        finished, self._queued = self._queued, []
        return finished

    def close(self) -> None:
        self._queued.clear()
