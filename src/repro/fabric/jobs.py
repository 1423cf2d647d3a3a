"""Job identity: what a simulation cell *is*, independent of how it runs.

A :class:`SimJob` describes one independent simulation — a configuration,
an optional topology, one workload (or two for SMT, or one per core for a
multicore graph), the warmup/measure windows and a technique label.  The
description is pure data: two jobs with equal descriptions produce
bit-identical results on any backend, which is the invariant the whole
fabric rests on.

:func:`job_key` collapses a job to a stable content address.  It is the
unit of deduplication (a run simulates each unique key exactly once, however
many of its slots name it) and the key of the shared artifact
store (:class:`repro.fabric.store.ResultCache`).

This module also owns the fabric's shared vocabulary — failure policies,
error types, and the ``REPRO_*`` environment-knob parsers — so the other
fabric modules never need to import each other for basics.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path  # noqa: F401 - re-exported type alias convenience
from typing import Optional, Sequence, Tuple, Union

from ..common.params import SystemConfig
from ..core.simulator import is_smt_run
from ..kernel import engine_for
from ..topology.presets import resolve_topology
from ..topology.spec import TopologySpec
from ..workloads.base import SyntheticWorkload

#: Bump to invalidate every cached result (e.g. after a simulator behaviour
#: change that job descriptions cannot see).  4: checksummed entry format.
#: 5: MSHR structural retirement preserves Type bits (and exports
#: ``*.mshr_retirements``), so cells simulated before the fix are stale.
#: 6: jobs carry an execution engine; pre-engine entries predate the
#: ``engine=`` key part and must not be served for either engine.
CACHE_VERSION = 6

#: Failure policies: fail-fast preserves the historical behaviour (first
#: failed cell raises :class:`SimulationError` and cancels the backlog);
#: collect-and-continue finishes every cell, caches the successes, and
#: raises a ``MatrixError`` summarising the failures at the end.
FAIL_FAST = "fail-fast"
CONTINUE = "continue"
FAILURE_POLICIES = (FAIL_FAST, CONTINUE)


class SimulationError(RuntimeError):
    """A cell of the experiment matrix failed; names the failing cell."""


class ConfigurationError(ValueError):
    """A fabric knob (flag or ``REPRO_*`` variable) could not be parsed."""


class CellTimeout(RuntimeError):
    """A cell exceeded the per-cell wall-clock ``timeout`` and was cancelled."""


@dataclass(frozen=True)
class SimJob:
    """One independent simulation: a ``(technique, workload)`` cell.

    ``workloads`` holds one workload for a single-thread run or two for an
    SMT co-location (at an overlap residual of 0.25, the
    :func:`repro.core.simulator.simulate_smt` default).  ``topology``
    selects the machine graph — ``None`` for the default Table 1
    hierarchy, a preset name (``"split-stlb"``, ``"multicore-2"``, ...)
    or a full :class:`TopologySpec`.  A multi-core topology takes one
    workload per core.  The workload count is checked against the
    topology when the job is built (:func:`repro.core.simulator.is_smt_run`,
    the rule :class:`~repro.core.simulator.Session` applies), and the job
    runs as one ``Session``.  ``engine`` selects
    the execution engine (:mod:`repro.kernel`): ``None`` defers to
    ``REPRO_ENGINE`` then the default, so the choice resolves on the
    executing worker and is pinned into the cache key.  A job with more
    than one workload always runs ``spec`` (:func:`repro.kernel.engine_for`);
    pinning ``batched`` on one raises :class:`ValueError` here.
    """

    config: SystemConfig
    workloads: Tuple[SyntheticWorkload, ...]
    warmup: int
    measure: int
    label: str = ""
    topology: Union[None, str, TopologySpec] = None
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("SimJob needs at least one workload")
        if self.warmup < 0 or self.measure <= 0:
            raise ValueError(
                "SimJob needs warmup >= 0 and measure > 0 instructions, got "
                f"warmup={self.warmup}, measure={self.measure}"
            )
        # Validate at build time, not in a worker after dispatch.
        engine_for(self.engine, len(self.workloads))
        is_smt_run(self.resolved_topology(), len(self.workloads))

    def resolved_topology(self) -> TopologySpec:
        """The job's machine graph as a spec (default graph when ``None``)."""
        return resolve_topology(self.topology, self.config)

    @property
    def workload_name(self) -> str:
        return "+".join(w.name for w in self.workloads)

    @property
    def cell(self) -> str:
        """Human-readable cell name for logs, errors and fault-plan keys."""
        return f"{self.label or 'default'} x {self.workload_name}"


def single(
    config: SystemConfig,
    workload: SyntheticWorkload,
    warmup: int,
    measure: int,
    label: str = "",
    topology: Union[None, str, TopologySpec] = None,
    engine: Optional[str] = None,
) -> SimJob:
    """Convenience constructor for a single-thread job."""
    return SimJob(config, (workload,), warmup, measure, label, topology, engine)


def smt(
    config: SystemConfig,
    workloads: Sequence[SyntheticWorkload],
    warmup: int,
    measure: int,
    label: str = "",
    topology: Union[None, str, TopologySpec] = None,
    engine: Optional[str] = None,
) -> SimJob:
    """Convenience constructor for a two-thread SMT job."""
    return SimJob(config, tuple(workloads), warmup, measure, label, topology, engine)


# --------------------------------------------------------------------- #
# Content addressing
# --------------------------------------------------------------------- #


def workload_fingerprint(workload: SyntheticWorkload) -> str:
    """Deterministic identity of a workload's generated stream.

    Workload generators are pure functions of their constructor parameters
    (all public attributes; derived state like pre-built function tables is
    underscore-prefixed), so class + public attributes pin the trace.  A
    public attribute that is itself a workload (``PhasedWorkload.pressure``)
    is fingerprinted the same way, recursively, so its parameters are keyed
    too.  A workload without nested ones keeps the format existing cache
    entries are keyed by: ``module.Class[('attr', value!r), ...]``, the
    ``repr`` of its sorted public items.
    """
    fields = ", ".join(
        f"({key!r}, {_field_fingerprint(value)})"
        for key, value in sorted(vars(workload).items())
        if not key.startswith("_")
    )
    return f"{type(workload).__module__}.{type(workload).__qualname__}[{fields}]"


def _field_fingerprint(value: object) -> str:
    if isinstance(value, SyntheticWorkload):
        return workload_fingerprint(value)
    return repr(value)


def job_key(job: SimJob) -> str:
    """Stable content address for a job.

    ``SystemConfig`` is a tree of frozen dataclasses whose ``repr`` lists
    every field, so it serves as a canonical config hash input.  The
    topology is always resolved to a spec and keyed by its content hash —
    so a preset name and the equivalent explicit spec share cache entries,
    while jobs differing only in machine graph never collide.  The engine
    is keyed *resolved* (both engines are bit-identical, but separate keys
    keep a per-engine provenance trail and make cross-engine cache hits an
    explicit non-goal); a job deferring to ``REPRO_ENGINE`` therefore maps
    to the same entry as one pinning that engine explicitly, and an SMT or
    multicore job keys ``spec``, the engine that runs it.
    """
    parts = [
        f"cache-version={CACHE_VERSION}",
        f"label={job.label}",
        f"warmup={job.warmup}",
        f"measure={job.measure}",
        f"engine={engine_for(job.engine, len(job.workloads))}",
        f"config={job.config!r}",
        f"topology={job.resolved_topology().content_hash()}",
    ]
    parts.extend(workload_fingerprint(w) for w in job.workloads)
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Environment knobs
# --------------------------------------------------------------------- #


def _env_workers() -> int:
    value = os.environ.get("REPRO_WORKERS", "").strip()
    if not value:
        return 1
    if value.lower() == "auto":
        return os.cpu_count() or 1
    try:
        count = int(value)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_WORKERS must be a positive integer or 'auto', got {value!r}"
        ) from None
    return max(1, count)


def _env_int(name: str, default: int, minimum: int = 0) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    return max(minimum, value)


def _env_float(name: str, default: Optional[float]) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be a number of seconds, got {raw!r}"
        ) from None


def _jitter(cell: str, attempt: int) -> float:
    """Deterministic retry jitter in [0.5, 1) — seeded by cell and attempt,
    so backoff schedules are reproducible run to run."""
    digest = hashlib.sha256(f"backoff|{cell}|{attempt}".encode("utf-8")).digest()
    return 0.5 + 0.5 * (int.from_bytes(digest[:8], "big") / 2.0**64)
