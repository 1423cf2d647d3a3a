"""The execution fabric: jobs, store, backends and the runner API.

The fabric decomposes experiment execution into four seams (see
``docs/fabric.md``):

* :mod:`repro.fabric.jobs` — what a cell *is*: :class:`SimJob`,
  content-addressed :func:`job_key` identity, workload fingerprints;
* :mod:`repro.fabric.store` — the shared artifact store: the
  integrity-checked on-disk :class:`ResultCache`;
* :mod:`repro.fabric.backends` — where attempts run: the
  :class:`Backend` protocol with serial and process-pool
  implementations, all funnelling through ``execute_cell``, whose result
  must depend on the job alone;
* :mod:`repro.fabric.api` — :class:`ParallelRunner`: its knobs, lifetime
  counters and the per-run loop that keys a job list (each unique
  ``job_key`` simulates once), serves cached cells, applies the
  retry/timeout/failure policy per unique cell with the run's own fault
  plan, and streams results via ``run_iter``; plus the
  :class:`MatrixReport` it fills in and the ``run_jobs`` / ``run_iter``
  helpers over the process-wide default runner.

Import everything from this package.
"""

from .api import (
    CellReport,
    MatrixError,
    MatrixReport,
    ParallelRunner,
    get_default_runner,
    run_iter,
    run_jobs,
    set_default_runner,
)
from .backends import (
    Backend,
    BackendBroken,
    CellCompletion,
    ProcessPoolBackend,
    SerialBackend,
    execute_cell,
)
from .jobs import (
    CACHE_VERSION,
    CONTINUE,
    FAIL_FAST,
    FAILURE_POLICIES,
    CellTimeout,
    ConfigurationError,
    SimJob,
    SimulationError,
    job_key,
    single,
    smt,
    workload_fingerprint,
)
from .store import STALE_TMP_SECONDS, ResultCache

__all__ = [
    "Backend",
    "BackendBroken",
    "CACHE_VERSION",
    "CONTINUE",
    "CellCompletion",
    "CellReport",
    "CellTimeout",
    "ConfigurationError",
    "FAILURE_POLICIES",
    "FAIL_FAST",
    "MatrixError",
    "MatrixReport",
    "ParallelRunner",
    "ProcessPoolBackend",
    "ResultCache",
    "STALE_TMP_SECONDS",
    "SerialBackend",
    "SimJob",
    "SimulationError",
    "execute_cell",
    "get_default_runner",
    "job_key",
    "run_iter",
    "run_jobs",
    "set_default_runner",
    "single",
    "smt",
    "workload_fingerprint",
]
