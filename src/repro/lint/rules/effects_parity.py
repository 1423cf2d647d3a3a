"""RPR007 — the batched kernel's fast path mirrors the spec's effects.

``BatchedEngine._run_block`` hand-inlines the full-hit semantics of
``Core.execute``; the differential suite proves bit-identity dynamically,
but only for the inputs it samples.  This rule enforces the contract
structurally: the set of ``stats:``/``state:`` effects written by the
kernel tier's own body must equal the effect closure of the spec path it
shadows, modulo the explicitly gated miss-path effects in
:data:`repro.lint.manifest.KERNEL_GATED_EFFECTS`.

Every call the kernel makes — the scalar-fallback escape into
``Core.execute``, the prefetcher/adaptive-controller hooks — runs the
*real* machinery and is exact by construction, so those edges are
excluded; including them would make the comparison vacuously true and
the drift canary blind.

Drift reports read in both directions:

* **spec-only effect** (anchored at the kernel entry): the spec grew a
  counter/state write the kernel neither mirrors nor gates;
* **kernel-only effect** (anchored at the kernel write): the kernel
  writes something the spec never does;
* **stale gate**: a gated effect the kernel now writes, or the spec no
  longer does — the gate no longer describes reality.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Sequence, Tuple

from .. import manifest
from ..callgraph import FunctionInfo, program_for
from ..context import FileContext
from ..diagnostics import Diagnostic
from ..effects import Effect, EffectAnalysis, render_path
from .base import Rule

_PARITY_KINDS = ("stats", "state")


class EffectParityRule(Rule):
    code = "RPR007"
    summary = "kernel fast-path tiers write the same stats/state effects as the spec"

    def __init__(
        self,
        shadows: Optional[Tuple[manifest.ShadowPair, ...]] = None,
        gated: Optional[Dict[str, str]] = None,
        state_fields: Optional[FrozenSet[str]] = None,
        state_segments: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._shadows = shadows
        self._gated = gated
        self._state_fields = state_fields
        self._state_segments = state_segments

    def _analysis(self, files: Sequence[FileContext]) -> EffectAnalysis:
        return EffectAnalysis(
            program_for(files),
            state_fields=self._state_fields,
            state_segments=self._state_segments,
        )

    def check(self, files: Sequence[FileContext]) -> Iterator[Diagnostic]:
        shadows = (
            self._shadows if self._shadows is not None else manifest.KERNEL_SPEC_SHADOWS
        )
        gated = self._gated if self._gated is not None else manifest.KERNEL_GATED_EFFECTS
        analysis: Optional[EffectAnalysis] = None
        for pair in shadows:
            program = program_for(files)
            kernel_fn = program.functions.get(pair.kernel)
            spec_fn = program.functions.get(pair.spec)
            if kernel_fn is None or spec_fn is None:
                continue  # pair not in the linted set (single-file fixtures)
            if analysis is None:
                analysis = self._analysis(files)
            yield from self._check_pair(analysis, pair, gated, kernel_fn, spec_fn)

    def _check_pair(
        self,
        analysis: EffectAnalysis,
        pair: manifest.ShadowPair,
        gated: Dict[str, str],
        kernel_fn: FunctionInfo,
        spec_fn: FunctionInfo,
    ) -> Iterator[Diagnostic]:
        def hot_ok(relkey: str) -> bool:
            return relkey.startswith(manifest.HOT_MODULE_PREFIXES)

        spec_effects, spec_paths = analysis.closure(
            [spec_fn], code=self.code, module_ok=hot_ok
        )
        kernel_effects: Dict[str, Effect] = {}
        for eff in analysis.effects_of(kernel_fn):
            if eff.kind in _PARITY_KINDS and not kernel_fn.ctx.is_suppressed(
                eff.line, self.code
            ):
                kernel_effects.setdefault(eff.ident, eff)
        spec_idents = {
            i for i, e in spec_effects.items() if e.kind in _PARITY_KINDS
        }
        kernel_idents = set(kernel_effects)

        kernel_ctx = kernel_fn.ctx
        entry_node: ast.AST = kernel_fn.node
        for ident in sorted(spec_idents - kernel_idents):
            if ident in gated:
                continue
            eff = spec_effects[ident]
            path = render_path(
                spec_paths.get((eff.relkey, eff.qualname), (spec_fn.qualname,))
            )
            yield self.diag(
                kernel_ctx,
                kernel_fn.lineno,
                f"spec path writes '{ident}' (at {eff.relkey}:{eff.line} via "
                f"{path}) but kernel tier '{kernel_fn.qualname}' neither "
                "mirrors it nor gates it in KERNEL_GATED_EFFECTS",
                node=entry_node,
            )
        for ident in sorted(kernel_idents - spec_idents):
            eff = kernel_effects[ident]
            yield self.diag(
                kernel_ctx,
                eff.line,
                f"kernel tier '{kernel_fn.qualname}' writes '{ident}' which "
                f"the spec path '{spec_fn.qualname}' never writes",
            )
        for ident in sorted(set(gated) & kernel_idents):
            yield self.diag(
                kernel_ctx,
                kernel_fn.lineno,
                f"KERNEL_GATED_EFFECTS lists '{ident}' but the kernel tier "
                f"'{kernel_fn.qualname}' writes it — remove the stale gate",
                node=entry_node,
            )
        for ident in sorted(set(gated) - spec_idents):
            yield self.diag(
                kernel_ctx,
                kernel_fn.lineno,
                f"KERNEL_GATED_EFFECTS lists '{ident}' but the spec path "
                f"'{spec_fn.qualname}' no longer writes it — remove the "
                "stale gate",
                node=entry_node,
            )
