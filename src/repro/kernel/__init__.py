"""Execution engines: how trace records are driven through the machine.

Two engines produce bit-identical :class:`~repro.common.stats.SimStats`:

* ``spec`` — the scalar reference path (``Core.execute`` per record), the
  executable specification and the default;
* ``batched`` — the block-batched kernel in :mod:`repro.kernel.batched`:
  records are pulled in blocks, derived indices are precomputed as flat
  arrays, and records that fully hit in the L1 TLBs and L1 caches are
  resolved on an allocation-free fast path that touches recency in
  place.  Every record with any other behaviour falls back to the scalar
  machinery, so all policy semantics stay in exactly one place.

Select an engine per call (``engine=`` on the simulation drivers, ``--engine``
on the CLIs) or process-wide with the ``REPRO_ENGINE`` environment variable;
an explicit argument wins over the environment.  Every engine exposes
``run_until(instructions)``, ``run_records(n)`` (both return cycles) and
``reset_stats()``; :func:`engine_for` decides which one runs.
"""

from __future__ import annotations

import os
from typing import Optional

from .batched import BatchedEngine
from .scalar import ScalarEngine

#: Environment variable naming the default engine for this process.
ENGINE_ENV = "REPRO_ENGINE"

#: Available engine names; ``spec`` is the executable specification.
ENGINES = ("spec", "batched")

DEFAULT_ENGINE = "spec"


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine name: explicit argument > ``REPRO_ENGINE`` > spec."""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV, "").strip().lower() or DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; available: {', '.join(ENGINES)}"
        )
    return engine


def engine_for(engine: Optional[str], streams: int) -> str:
    """The engine that runs ``streams`` record streams when ``engine`` is
    asked for: the batched kernel drives one stream, so with more the
    default runs ``spec`` and an explicit ``batched`` raises."""
    resolved = resolve_engine(engine)
    if streams > 1 and resolved == "batched" and engine is not None:
        raise ValueError(f"engine 'batched' drives one record stream, not {streams}")
    return "spec" if streams > 1 else resolved


__all__ = [
    "BatchedEngine",
    "DEFAULT_ENGINE",
    "ENGINE_ENV",
    "ENGINES",
    "ScalarEngine",
    "engine_for",
    "resolve_engine",
]
