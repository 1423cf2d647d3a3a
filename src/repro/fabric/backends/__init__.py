"""Execution backends: where cell attempts run.

The :class:`~.base.Backend` protocol is the fabric's execution seam —
see ``docs/fabric.md``.  Two implementations ship, and a run picks one
directly (serial for one worker or one pending cell, otherwise the pool):

* :class:`SerialBackend` — inline on the runner's calling thread
  (bit-identical to the pre-fabric serial path; SIGALRM deadlines work),
  consulting the run's fault plan directly;
* :class:`ProcessPoolBackend` — a ``ProcessPoolExecutor`` with broken-pool
  recovery, whose initializer installs the run's fault plan in each worker.
"""

from .base import Backend, BackendBroken, CellCompletion, execute_cell
from .pool import ProcessPoolBackend
from .serial import SerialBackend

__all__ = [
    "Backend",
    "BackendBroken",
    "CellCompletion",
    "ProcessPoolBackend",
    "SerialBackend",
    "execute_cell",
]
