"""The execution fabric: jobs, store, backends, scheduler, runner API.

The fabric decomposes experiment execution into four seams (see
``docs/fabric.md``):

* :mod:`repro.fabric.jobs` — what a cell *is*: :class:`SimJob`,
  content-addressed :func:`job_key` identity, workload fingerprints;
* :mod:`repro.fabric.store` — the shared artifact store: the
  integrity-checked on-disk :class:`ResultCache`;
* :mod:`repro.fabric.backends` — where attempts run: the
  :class:`Backend` protocol with serial and process-pool
  implementations (``Backend.execute`` anchors lint rule RPR008's
  worker-determinism closure);
* :mod:`repro.fabric.scheduler` — the submission queue: many concurrent
  matrices deduplicated by ``job_key``, retry/timeout/failure policy per
  unique cell, fault plans carried per scheduler, streaming delivery via
  ``Submission.iter_results``.

:mod:`repro.fabric.api` holds ``ParallelRunner`` (knobs and lifetime
counters over a fresh scheduler per run) and the ``run_jobs`` /
``run_iter`` helpers over the process-wide default runner.  Import
everything from this package.
"""

from .api import (
    ParallelRunner,
    configure_default_runner,
    get_default_runner,
    run_iter,
    run_jobs,
    set_default_runner,
)
from .backends import (
    BACKENDS,
    Backend,
    BackendBroken,
    CellCompletion,
    ProcessPoolBackend,
    SerialBackend,
    execute_cell,
    make_backend,
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
from .scheduler import (
    CellReport,
    MatrixError,
    MatrixReport,
    Scheduler,
    SchedulerConfig,
    Submission,
)
from .store import STALE_TMP_SECONDS, ResultCache

__all__ = [
    "BACKENDS",
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
    "Scheduler",
    "SchedulerConfig",
    "SerialBackend",
    "SimJob",
    "SimulationError",
    "Submission",
    "configure_default_runner",
    "execute_cell",
    "get_default_runner",
    "job_key",
    "make_backend",
    "run_iter",
    "run_jobs",
    "set_default_runner",
    "single",
    "smt",
    "workload_fingerprint",
]
