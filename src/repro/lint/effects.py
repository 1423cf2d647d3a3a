"""Per-function effect inference over the call graph.

Every function gets a *direct* effect set — what it writes, classified
against the simulator's measurement schema.  RPR009's coverage direction
reads it: a function that hot code calls and that writes an effect of
either kind belongs in the hot-path manifest.  Two effect kinds:

* ``stats:<counter>`` — a write to an attribute (or item) whose owner
  chain passes through a stats object (``stats`` / ``_stats`` /
  ``*_stats`` segment, or ``self`` inside ``LevelStats``/``SimStats``).
  These are the numbers the paper's figures are made of.
* ``state:<field>`` — a write to a named structure field
  (:data:`repro.lint.manifest.STATE_FIELDS`), to an indexed structure map
  (:data:`~repro.lint.manifest.STATE_SEGMENTS`: tag maps, TLB key maps,
  DRAM open rows), or a call to a recency-stack mutator
  (:data:`~repro.lint.manifest.RECENCY_MUTATORS`).

Writes are resolved through local aliases and constructor bindings
(:meth:`repro.lint.callgraph.Program.canonical`), so ``stats =
self._stats; stats.hits += 1`` is a ``stats:hits`` effect.  Each effect
carries a witness (file, function, line).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from . import manifest
from .callgraph import FunctionInfo, FunctionKey, Program, _raw_chain, scope_nodes

_STATS_OWNERS = frozenset({"stats", "_stats"})
_STATS_CLASSES = frozenset({"LevelStats", "SimStats"})


class Effect:
    """One classified write, with its witness location."""

    __slots__ = ("kind", "name", "relkey", "qualname", "line")

    def __init__(
        self, kind: str, name: str, relkey: str, qualname: str, line: int
    ) -> None:
        self.kind = kind  #: ``stats`` | ``state``
        self.name = name
        self.relkey = relkey
        self.qualname = qualname
        self.line = line

    @property
    def ident(self) -> str:
        return f"{self.kind}:{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Effect({self.ident} @ {self.relkey}:{self.line})"


def _is_stats_owner(segment: str) -> bool:
    return segment in _STATS_OWNERS or segment.endswith("_stats")


class EffectAnalysis:
    """Per-function effect extraction over a program."""

    def __init__(
        self,
        program: Program,
        *,
        state_fields: Optional[FrozenSet[str]] = None,
        state_segments: Optional[Mapping[str, str]] = None,
        recency_mutators: Optional[FrozenSet[str]] = None,
    ) -> None:
        self.program = program
        self.state_fields = (
            state_fields if state_fields is not None else manifest.STATE_FIELDS
        )
        self.state_segments: Mapping[str, str] = (
            state_segments if state_segments is not None else manifest.STATE_SEGMENTS
        )
        self.recency_mutators = (
            recency_mutators
            if recency_mutators is not None
            else manifest.RECENCY_MUTATORS
        )
        self._cache: Dict[FunctionKey, Tuple[Effect, ...]] = {}

    # -------------------------------------------------------- direct effects

    def effects_of(self, fn: FunctionInfo) -> Tuple[Effect, ...]:
        cached = self._cache.get(fn.key)
        if cached is not None:
            return cached
        effects = tuple(self._extract(fn))
        self._cache[fn.key] = effects
        return effects

    def _extract(self, fn: FunctionInfo) -> Iterable[Effect]:
        def effect(kind: str, name: str, line: int) -> Effect:
            return Effect(kind, name, fn.relkey, fn.qualname, line)

        for node in scope_nodes(fn.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                found = self._classify_store(fn, target)
                if found is not None:
                    yield effect(found[0], found[1], target.lineno)

        for site in self.program.calls(fn):
            if site.name in self.recency_mutators:
                yield effect("state", "recency", site.line)

    def _classify_store(
        self, fn: FunctionInfo, target: ast.expr
    ) -> Optional[Tuple[str, str]]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                found = self._classify_store(fn, elt)
                if found is not None:
                    return found
            return None
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return None
        raw = _raw_chain(target)
        if raw is None:
            return None
        # ``self.X = ...`` REBINDS the attribute; expanding it through the
        # constructor binding would conflate "holds this value" with
        # "mutates this object" (``self._tm = other._tag_maps`` writes no
        # tag map).  Mutations *through* the attribute
        # (``self._map[k] = v``, ``self.stats.hits += 1``) still expand.
        direct_rebind = (
            isinstance(target, ast.Attribute)
            and len(raw) == 2
            and raw[0] in ("self", "cls")
        )
        chain = raw if direct_rebind else self.program.canonical(fn, raw)
        last = chain[-1]
        owner = chain[:-1]
        if any(_is_stats_owner(seg) for seg in owner):
            return ("stats", last)
        if fn.cls in _STATS_CLASSES and chain[0] == "self" and len(chain) > 1:
            return ("stats", last)
        if last in self.state_fields:
            return ("state", last)
        for seg in reversed(chain):
            mapped = self.state_segments.get(seg)
            if mapped is not None:
                return ("state", mapped)
        return None
