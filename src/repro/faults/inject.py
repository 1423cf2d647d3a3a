"""Injection points: what happens when an armed site fires.

``worker.*`` sites act here (the process dies, or the cell sleeps); the
``cache.*`` sites are decided by ``ResultCache.store``, which owns the
file format.  Every site takes the plan to consult explicitly — the
fabric resolves one per run, never from shared state mid-run.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time

from .plan import WORKER_CRASH, WORKER_HANG, FaultPlan

#: Exit status of a worker killed by ``worker.crash`` (visible in pool
#: diagnostics; any non-zero hard exit breaks a ``ProcessPoolExecutor``).
CRASH_EXIT_CODE = 13

#: How long ``worker.hang`` sleeps (seconds); override with
#: ``REPRO_HANG_SECONDS``.  A hang is meant to exceed the runner's per-cell
#: ``timeout`` so the timeout/retry path is exercised — pair the two.
_DEFAULT_HANG_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """An armed fault site fired (raised form, for in-process sites)."""


class InjectedWorkerCrash(InjectedFault):
    """``worker.crash`` fired in a process with no parent to kill."""


def hang_seconds() -> float:
    value = os.environ.get("REPRO_HANG_SECONDS", "").strip()
    try:
        return float(value) if value else _DEFAULT_HANG_SECONDS
    except ValueError:
        return _DEFAULT_HANG_SECONDS


def maybe_crash(plan: FaultPlan, key: str) -> None:
    """``worker.crash``: die the way the OOM killer would.

    In a pool worker the process hard-exits, so the parent observes a
    ``BrokenProcessPool`` — the real failure mode, not a stand-in
    exception.  In a process with no parent (serial mode) killing the
    process would take the whole run down, so the site degrades to raising
    :class:`InjectedWorkerCrash`, which exercises the retry path instead.
    """
    if not plan.should_fire(WORKER_CRASH, key):
        return
    if multiprocessing.parent_process() is not None:
        sys.stderr.flush()
        os._exit(CRASH_EXIT_CODE)
    raise InjectedWorkerCrash(f"injected worker crash at cell {key!r}")


def maybe_hang(plan: FaultPlan, key: str) -> None:
    """``worker.hang``: stall the cell past its wall-clock budget.

    The sleep is interruptible by the runner's per-cell SIGALRM deadline,
    which is exactly the recovery path this site exists to exercise.
    """
    if not plan.should_fire(WORKER_HANG, key):
        return
    time.sleep(hang_seconds())
