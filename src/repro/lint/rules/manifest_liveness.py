"""RPR009 — the hot-path manifest matches the program it describes.

Two directions, both active only when the manifest module itself is part
of the linted file set (whole-tree lints), so single-file fixtures don't
false-fire:

* **(a) liveness** — every ``HOT_FUNCTIONS`` entry (and every name in
  ``HOT_CLASSES``/``STATS_BEARING``/``ENUM_CLASSES``/
  ``TOPOLOGY_CONSTRUCTORS``) must resolve to a real definition.  A
  renamed or deleted function used to skip silently, quietly shrinking
  the RPR001 allocation contract; now it is a hard error anchored at the
  manifest line naming it.
* **(b) coverage** — functions that hot code calls (per the call graph)
  and that write stats/state effects belong in the manifest too;
  otherwise the hot-path contract rots in the other direction.  The
  duck-typed policy/prefetcher dispatch surface and the REPRO_CHECK
  shadow oracles are exempt
  (:data:`repro.lint.manifest.HOT_CALLEE_EXEMPT_PREFIXES` /
  :data:`~repro.lint.manifest.HOT_CALLEE_EXEMPT_QUAL_PREFIXES`);
  genuinely cold helpers suppress at the ``def`` site.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .. import manifest
from ..callgraph import FunctionInfo, Program, program_for
from ..context import FileContext, find_file
from ..diagnostics import Diagnostic
from .base import Rule, iter_functions


def _constant_line(ctx: FileContext, value: str) -> int:
    """Line of the first string constant equal to ``value`` (fallback 1)."""
    if ctx.tree is not None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Constant) and node.value == value:
                return node.lineno
    return 1


class ManifestLivenessRule(Rule):
    code = "RPR009"
    summary = "HOT_FUNCTIONS entries resolve; effectful hot callees are listed"

    def __init__(
        self,
        hot_functions: Optional[Dict[str, FrozenSet[str]]] = None,
        hot_names: Optional[FrozenSet[str]] = None,
        exempt_prefixes: Optional[Tuple[str, ...]] = None,
        exempt_qual_prefixes: Optional[Tuple[str, ...]] = None,
        manifest_relkey: Optional[str] = None,
    ) -> None:
        self._hot_functions = hot_functions
        self._hot_names = hot_names
        self._exempt_prefixes = exempt_prefixes
        self._exempt_qual_prefixes = exempt_qual_prefixes
        self._manifest_relkey = manifest_relkey

    def check(self, files: Sequence[FileContext]) -> Iterator[Diagnostic]:
        manifest_relkey = (
            self._manifest_relkey
            if self._manifest_relkey is not None
            else manifest.MANIFEST_RELKEY
        )
        manifest_ctx = find_file(files, manifest_relkey)
        if manifest_ctx is None:
            return  # not a whole-tree lint; nothing to cross-check
        hot_functions = (
            self._hot_functions
            if self._hot_functions is not None
            else manifest.HOT_FUNCTIONS
        )
        yield from self._check_liveness(files, manifest_ctx, hot_functions)
        yield from self._check_coverage(files, hot_functions, program_for(files))

    # ------------------------------------------------------------ (a) liveness

    def _check_liveness(
        self,
        files: Sequence[FileContext],
        manifest_ctx: FileContext,
        hot_functions: Dict[str, FrozenSet[str]],
    ) -> Iterator[Diagnostic]:
        for relkey, quals in sorted(hot_functions.items()):
            ctx = find_file(files, relkey)
            if ctx is None or ctx.tree is None:
                yield self.diag(
                    manifest_ctx,
                    _constant_line(manifest_ctx, relkey),
                    f"HOT_FUNCTIONS names module '{relkey}' which is not in "
                    "the linted tree",
                )
                continue
            defined = {qual for qual, _ in iter_functions(ctx.tree)}
            for qual in sorted(quals):
                if qual not in defined:
                    yield self.diag(
                        manifest_ctx,
                        _constant_line(manifest_ctx, qual),
                        f"HOT_FUNCTIONS entry '{relkey}:{qual}' does not "
                        "resolve to a definition — the hot-path contract "
                        "no longer covers it",
                    )
        class_names: Set[str] = set()
        for ctx in files:
            if ctx.tree is None:
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef):
                    class_names.add(node.name)
        hot_names = (
            self._hot_names
            if self._hot_names is not None
            else frozenset(
                manifest.HOT_CLASSES
                | manifest.STATS_BEARING
                | manifest.ENUM_CLASSES
                | manifest.TOPOLOGY_CONSTRUCTORS
            )
        )
        for name in sorted(hot_names - class_names):
            yield self.diag(
                manifest_ctx,
                _constant_line(manifest_ctx, name),
                f"manifest names class '{name}' which is not defined "
                "anywhere in the linted tree",
            )

    # ----------------------------------------------------------- (b) coverage

    def _check_coverage(
        self,
        files: Sequence[FileContext],
        hot_functions: Dict[str, FrozenSet[str]],
        program: Program,
    ) -> Iterator[Diagnostic]:
        from ..effects import EffectAnalysis  # local: avoid cycles at import

        exempt_prefixes = (
            self._exempt_prefixes
            if self._exempt_prefixes is not None
            else manifest.HOT_CALLEE_EXEMPT_PREFIXES
        )
        exempt_quals = (
            self._exempt_qual_prefixes
            if self._exempt_qual_prefixes is not None
            else manifest.HOT_CALLEE_EXEMPT_QUAL_PREFIXES
        )
        analysis = EffectAnalysis(program)
        hot_set: Set[Tuple[str, str]] = set()
        sources: List[FunctionInfo] = []
        for relkey, quals in hot_functions.items():
            for qual in quals:
                hot_set.add((relkey, qual))
                info = program.functions.get((relkey, qual))
                if info is not None:
                    sources.append(info)
        for ctx in files:
            if ctx.tree is None:
                continue
            for qual, node in iter_functions(ctx.tree):
                if ctx.is_hot_marked(node.lineno):
                    hot_set.add((ctx.relkey, qual))
                    info = program.functions.get((ctx.relkey, qual))
                    if info is not None:
                        sources.append(info)

        def hot_ok(relkey: str) -> bool:
            return relkey.startswith(manifest.HOT_MODULE_PREFIXES)

        reported: Set[Tuple[str, str]] = set()
        for fn in sources:
            for site in program.calls(fn):
                if fn.ctx.is_suppressed(site.line, self.code):
                    continue
                for cand in program.resolve(fn, site, hot_ok):
                    if cand.key in hot_set or cand.key in reported:
                        continue
                    if cand.relkey.startswith(exempt_prefixes):
                        continue
                    if cand.qualname.startswith(exempt_quals):
                        continue
                    if cand.ctx.is_hot_marked(cand.lineno):
                        continue
                    if not analysis.effects_of(cand):
                        continue
                    reported.add(cand.key)
                    yield self.diag(
                        cand.ctx,
                        cand.lineno,
                        f"'{cand.qualname}' ({cand.relkey}) is called from "
                        f"hot function '{fn.qualname}' and writes "
                        "counters/state but is not in HOT_FUNCTIONS and not "
                        "marked '# repro: hot'",
                        node=cand.node,
                    )
