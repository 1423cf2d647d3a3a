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

Select an engine per call: ``engine=`` on the simulation drivers, ``SimJob``
and ``Session``, or ``--engine`` on ``python -m repro``; ``None`` means
``spec``.  Every engine exposes ``run_until(instructions)``,
``run_records(n)`` (both return cycles) and ``reset_stats()``;
:func:`engine_for` decides which one runs.
"""

from __future__ import annotations

from typing import Optional

from .batched import BatchedEngine
from .scalar import ScalarEngine

#: Available engine names; ``spec`` is the executable specification.
ENGINES = ("spec", "batched")

DEFAULT_ENGINE = "spec"


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine name: ``None`` is the default, ``spec``."""
    if engine is None:
        return DEFAULT_ENGINE
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
    "ENGINES",
    "ScalarEngine",
    "engine_for",
    "resolve_engine",
]
