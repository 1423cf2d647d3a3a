"""RPR006 — hardware leaf structures are built only by the topology layer.

The machine graph is declarative: :class:`repro.topology.spec.TopologySpec`
describes it, :class:`repro.core.system.System` realizes it, and the
sanctioned constructors in ``repro/topology/structures.py`` are the only
place :class:`SetAssociativeCache`, :class:`TLB` or :class:`DRAM` are
instantiated directly.  A direct construction anywhere else in ``src/repro``
re-introduces hand wiring — the exact duplication the topology refactor
removed — and bypasses the policy-context and stats-bucket conventions
those constructors guarantee, so it is flagged.  Tests and examples are not linted by
CI; genuinely sanctioned sites elsewhere carry ``# repro: allow[RPR006]``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from .. import manifest
from ..context import FileContext
from ..diagnostics import Diagnostic
from .base import Rule


def _called_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class TopologyConstructionRule(Rule):
    code = "RPR006"
    summary = "hardware leaf structures are constructed only by repro.topology"

    def check(self, files: Sequence[FileContext]) -> Iterator[Diagnostic]:
        for ctx in files:
            if ctx.tree is None:
                continue
            if ctx.relkey.startswith(manifest.TOPOLOGY_RELKEY_PREFIXES):
                continue
            for node in ast.walk(ctx.tree):
                if (
                    isinstance(node, ast.Call)
                    and _called_name(node) in manifest.TOPOLOGY_CONSTRUCTORS
                ):
                    yield self.diag(
                        ctx,
                        node.lineno,
                        f"direct {_called_name(node)}(...) construction outside "
                        "repro.topology; describe the structure in a TopologySpec "
                        "(or use topology.structures helpers) instead",
                    )
