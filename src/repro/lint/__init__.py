"""Simulator-aware static analysis (``python -m repro.lint``).

The simulator's hot paths obey a handful of structural invariants that
ordinary linters cannot express — no allocation per reference, slotted
mutable classes, identity-compared enum singletons, schema-complete and
reset-complete statistics counters, immutable Table 1 parameters.  This
package checks them with a small AST pass per rule:

========  ===========================================================
RPR001    no object allocation in hot-path functions
RPR002    hot-path mutable classes declare ``__slots__``
RPR003    enum members compared with ``is`` in hot modules
RPR004    counters declared in the stats schema and cleared by reset()
RPR005    Table 1 parameters never mutated outside config construction
RPR006    hardware leaf structures constructed only by ``repro.topology``
========  ===========================================================

See ``docs/static-analysis.md`` for the rule catalog and the
``# repro: allow[RPRnnn]`` suppression syntax.  The hot-path manifest the
rules read is checked against traced runs by ``tests/test_manifest.py``;
the runtime complement (differential checking under ``REPRO_CHECK=1``)
lives in :mod:`repro.common.invariants`.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, format_github, format_text, render
from .runner import lint_files, lint_paths, lint_sources

__all__ = [
    "Diagnostic",
    "format_github",
    "format_text",
    "lint_files",
    "lint_paths",
    "lint_sources",
    "render",
]
