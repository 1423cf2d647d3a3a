"""Interprocedural effect inference over the call graph.

Every function gets a *direct* effect set — what it writes, classified
against the simulator's measurement schema — and the rules union those
sets over :meth:`repro.lint.callgraph.Program.reach` closures.  Three
effect kinds:

* ``stats:<counter>`` — a write to an attribute (or item) whose owner
  chain passes through a stats object (``stats`` / ``_stats`` /
  ``*_stats`` segment, or ``self`` inside ``LevelStats``/``SimStats``).
  These are the numbers the paper's figures are made of.
* ``state:<field>`` — a write to a named structure field
  (:data:`repro.lint.manifest.STATE_FIELDS`), to an indexed structure map
  (:data:`~repro.lint.manifest.STATE_SEGMENTS`: tag maps, TLB key maps,
  DRAM open rows), or a call to a recency-stack mutator
  (:data:`~repro.lint.manifest.RECENCY_MUTATORS`).
* ``env:<what>`` — nondeterminism and shared mutable state: unseeded
  ``random``/``numpy.random`` APIs, wall-clock ``time`` calls
  (``perf_counter`` is sanctioned — it feeds reported timings, not
  simulated state), ``datetime.now``, ``uuid``/``secrets``,
  ``os.environ`` writes, and writes to module-level mutable globals.

Effects carry a witness (file, function, line) so diagnostics can point
at the concrete write, and the closure drops effects whose witness line
carries an ``# repro: allow[<code>]`` suppression — that is the
*callee-site* suppression the interprocedural rules honour, alongside
call-site suppression via edge pruning.
"""

from __future__ import annotations

import ast
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from . import manifest
from .callgraph import (
    CallSite,
    Chain,
    FunctionInfo,
    FunctionKey,
    Program,
    _raw_chain,
    scope_nodes,
)

#: RNG constructors that take an explicit seed — allowed in workers.
_SEEDED_RANDOM = frozenset({"Random"})
_SEEDED_NP_RANDOM = frozenset({"default_rng", "Generator", "SeedSequence"})
_FORBIDDEN_TIME = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "sleep", "localtime",
     "gmtime", "ctime"}
)
_STATS_OWNERS = frozenset({"stats", "_stats"})
_STATS_CLASSES = frozenset({"LevelStats", "SimStats"})


class Effect:
    """One classified write, with its witness location."""

    __slots__ = ("kind", "name", "relkey", "qualname", "line")

    def __init__(
        self, kind: str, name: str, relkey: str, qualname: str, line: int
    ) -> None:
        self.kind = kind  #: ``stats`` | ``state`` | ``env``
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
    """Per-function effect extraction plus closure unions over a program."""

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
        global_decls: set = set()
        for node in scope_nodes(fn.node):
            if isinstance(node, ast.Global):
                global_decls.update(node.names)

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
                found = self._classify_store(fn, target, global_decls)
                if found is not None:
                    yield effect(found[0], found[1], target.lineno)

        for site in self.program.calls(fn):
            if site.name in self.recency_mutators:
                yield effect("state", "recency", site.line)
            if site.chain is not None:
                env = self._env_call(fn, site.chain)
                if env is not None:
                    yield effect("env", env, site.line)

    def _classify_store(
        self, fn: FunctionInfo, target: ast.expr, global_decls: set
    ) -> Optional[Tuple[str, str]]:
        if isinstance(target, ast.Name):
            if target.id in global_decls:
                return ("env", f"global:{target.id}")
            return None
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                found = self._classify_store(fn, elt, global_decls)
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
        # "mutates this object" (``self._next = FRAME_BASE`` is a read of
        # the global, not a write).  Mutations *through* the attribute
        # (``self._map[k] = v``, ``self.stats.hits += 1``) still expand.
        direct_rebind = (
            isinstance(target, ast.Attribute)
            and len(raw) == 2
            and raw[0] in ("self", "cls")
        )
        chain = raw if direct_rebind else self.program.canonical(fn, raw)
        expanded = self._expand_imports(fn, chain)
        if "environ" in expanded:
            return ("env", "os.environ")
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
        root = chain[0]
        if (
            root not in ("self", "cls")
            and root in self.program.module_globals.get(fn.relkey, ())
            and root not in self.program.locals_of(fn)
        ):
            return ("env", f"global:{root}")
        return None

    def _expand_imports(self, fn: FunctionInfo, chain: Chain) -> Chain:
        imports = self.program.imports.get(fn.relkey, {})
        bound = imports.get(chain[0])
        if bound is not None:
            return tuple(bound.split(".")) + chain[1:]
        return chain

    def _env_call(self, fn: FunctionInfo, chain: Chain) -> Optional[str]:
        chain = self._expand_imports(fn, chain)
        root = chain[0]
        if root == "random" and len(chain) >= 2:
            if chain[1] not in _SEEDED_RANDOM:
                return f"random.{chain[1]}"
        elif root == "numpy" and len(chain) >= 3 and chain[1] == "random":
            if chain[2] not in _SEEDED_NP_RANDOM:
                return f"numpy.random.{chain[2]}"
        elif root == "time" and len(chain) >= 2:
            if chain[1] in _FORBIDDEN_TIME:
                return f"time.{chain[1]}"
        elif root == "datetime":
            if chain[-1] in ("now", "utcnow", "today"):
                return "datetime.now"
        elif root == "os" and len(chain) >= 2:
            if chain[1] == "urandom":
                return "os.urandom"
            if chain[1] == "environ" and chain[-1] in (
                "update", "setdefault", "pop", "popitem", "clear"
            ):
                return "os.environ"
        elif root == "uuid" and len(chain) >= 2:
            if chain[1] in ("uuid1", "uuid4"):
                return f"uuid.{chain[1]}"
        elif root == "secrets":
            return "secrets"
        return None

    # --------------------------------------------------------------- closure

    def closure(
        self,
        entries: Iterable[FunctionInfo],
        *,
        code: Optional[str] = None,
        module_ok: Optional[Callable[[str], bool]] = None,
        blocked: FrozenSet[str] = frozenset(),
    ) -> Tuple[Dict[str, Effect], Dict[FunctionKey, Tuple[str, ...]]]:
        """Union of effects over the reachable set.

        Returns ``(effects_by_ident, call_paths)``.  When ``code`` is
        given, call edges from lines suppressed for that code are pruned
        (call-site suppression) and effects whose witness line is
        suppressed are dropped (callee-site suppression).
        """

        def prune(caller: FunctionInfo, site: CallSite) -> bool:
            return code is not None and caller.ctx.is_suppressed(site.line, code)

        paths = self.program.reach(
            entries,
            module_ok=module_ok,
            blocked=blocked,
            prune=prune if code is not None else None,
        )
        effects: Dict[str, Effect] = {}
        for key in paths:
            fn = self.program.functions.get(key)
            if fn is None:
                continue
            for eff in self.effects_of(fn):
                if code is not None and fn.ctx.is_suppressed(eff.line, code):
                    continue
                if eff.ident not in effects:
                    effects[eff.ident] = eff
        return effects, paths


def render_path(path: Tuple[str, ...]) -> str:
    """Human-readable call chain for diagnostics."""
    if len(path) <= 1:
        return path[0] if path else ""
    return " -> ".join(path)
