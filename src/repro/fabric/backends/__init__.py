"""Execution backends: where cell attempts run.

The :class:`~.base.Backend` protocol is the fabric's execution seam —
see ``docs/fabric.md``.  Two implementations ship:

* ``serial`` — inline on the scheduler's driving thread (bit-identical to
  the pre-fabric serial path; SIGALRM deadlines work), consulting the
  scheduler's fault plan directly;
* ``process`` — a ``ProcessPoolExecutor`` with broken-pool recovery, whose
  initializer installs the scheduler's fault plan in each worker.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...common.registry import Registry
from ...faults import plan as fault_plans
from .base import (
    Backend,
    BackendBroken,
    CellCompletion,
    execute_cell,
)
from .pool import ProcessPoolBackend
from .serial import SerialBackend

#: Backend registry: name -> factory(workers, fault_plan).  Registered like
#: the policy/prefetcher registries so alternative substrates (a remote
#: dispatch backend, an async queue) plug in without touching the scheduler.
BACKENDS: Registry[Callable[..., Backend]] = Registry("backend")
BACKENDS.register("serial", lambda workers, fault_plan=None: SerialBackend(fault_plan))
BACKENDS.register(
    "process", lambda workers, fault_plan=None: ProcessPoolBackend(workers, fault_plan)
)


def make_backend(
    name: str,
    workers: int,
    fault_plan: Optional["fault_plans.FaultPlan"] = None,
) -> Backend:
    """Build a registered backend (``serial`` / ``process``)."""
    return BACKENDS.get(name)(workers, fault_plan=fault_plan)


__all__ = [
    "BACKENDS",
    "Backend",
    "BackendBroken",
    "CellCompletion",
    "ProcessPoolBackend",
    "SerialBackend",
    "execute_cell",
    "make_backend",
]
