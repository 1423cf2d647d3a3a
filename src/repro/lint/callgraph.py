"""Whole-program call graph over the linted file set.

RPR009's coverage direction needs to know, for a hot function, which
*definitions* its call sites may land in.  The simulator's
hot path is wired through constructor-bound collaborators
(``self._translate = system.mmu.translate`` in ``__init__``, called later
as ``self._translate(...)``), so a purely syntactic resolver would lose
every edge that matters.  This module therefore builds:

* a **function index** over every ``def`` in the linted files, keyed by
  ``(relkey, qualname)``;
* per-class **constructor bindings**: ``self.X = <attribute chain>``
  assignments in ``__init__``, so ``self._translate`` canonicalises to
  ``system.mmu.translate``;
* per-function **local aliases**: ``stats = self._stats`` /
  ``tm = l1i_tm[s2]`` rebindings, expanded to canonical attribute chains
  (subscripts are looked through — sets/ways don't change *what* is
  written, only *where*);
* a **resolver** mapping a call site to candidate definitions:
  ``self.m(...)`` to the defining class when it has such a method,
  bare calls to same-module functions or class constructors, and
  everything else by bare-name match over the indexed definitions
  (a deliberate over-approximation: replacement policies, prefetchers
  and backends are duck-typed, so name-match is the honest static
  answer).
"""

from __future__ import annotations

import ast
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .context import FileContext

#: Canonical attribute chain, root first: ``("system", "mmu", "translate")``.
Chain = Tuple[str, ...]

#: Function identity: ``(relkey, qualname)``.
FunctionKey = Tuple[str, str]

_MAX_CHAIN = 16

#: Names never resolved to definitions: builtins and the mutating methods
#: of built-in containers.  Deliberately *excludes* ``insert``/``remove``/
#: ``discard``/``touch`` — those are simulator structure methods (TLB,
#: RecencyStack) and losing their edges would blind the effect analysis.
_NEVER_RESOLVE: FrozenSet[str] = frozenset(
    {
        # builtins
        "abs", "all", "any", "bool", "bytearray", "bytes", "callable", "chr",
        "classmethod", "dict", "divmod", "enumerate", "filter", "float",
        "format", "frozenset", "getattr", "globals", "hasattr", "hash", "id",
        "int", "isinstance", "issubclass", "iter", "len", "list", "locals",
        "map", "max", "memoryview", "min", "next", "object", "ord", "pow",
        "print", "property", "range", "repr", "reversed", "round", "set",
        "setattr", "slice", "sorted", "staticmethod", "str", "sum", "super",
        "tuple", "type", "vars", "zip",
        # container / string / IO methods
        "add", "append", "as_posix", "capitalize", "clear", "close", "copy",
        "count", "decode", "difference", "digest", "encode", "endswith",
        "exists", "extend", "find", "flush", "get", "glob", "hexdigest",
        "index", "intersection", "is_dir", "is_file", "isdigit", "items",
        "join", "keys", "lower", "lstrip", "mkdir", "open", "pop", "popitem",
        "read", "read_bytes", "read_text", "readline", "readlines", "replace",
        "rfind", "rglob", "rsplit", "rstrip", "seek", "setdefault", "sort",
        "split", "startswith", "stat", "strip", "tell", "title", "union",
        "unlink", "update", "upper", "values", "write", "write_bytes",
        "write_text", "writelines", "zfill",
    }
)


class CallSite:
    """One call expression inside a function, with its canonical chain."""

    __slots__ = ("line", "name", "chain")

    def __init__(self, line: int, name: str, chain: Optional[Chain]) -> None:
        self.line = line
        self.name = name  #: bare callee name (method or function name)
        self.chain = chain  #: canonical chain incl. final name, or ``None``

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CallSite({self.line}, {self.name!r}, {self.chain!r})"


class FunctionInfo:
    """One indexed function definition."""

    __slots__ = ("ctx", "relkey", "qualname", "cls", "bare", "node")

    def __init__(
        self,
        ctx: FileContext,
        qualname: str,
        cls: Optional[str],
        node: ast.AST,
    ) -> None:
        self.ctx = ctx
        self.relkey = ctx.relkey
        self.qualname = qualname
        self.cls = cls  #: innermost enclosing class name, if any
        self.bare = qualname.rsplit(".", 1)[-1]
        self.node = node

    @property
    def key(self) -> FunctionKey:
        return (self.relkey, self.qualname)

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FunctionInfo({self.relkey}:{self.qualname})"


def _raw_chain(node: ast.expr) -> Optional[Chain]:
    """Attribute chain of an expression, root first, or ``None``.

    Looks through subscripts (``a.b[i].c`` keeps ``a.b.c``) and through
    ``X if cond else None`` conditional bindings (the optional-collaborator
    idiom in ``BatchedEngine.__init__``).
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.IfExp):
            body_none = isinstance(node.body, ast.Constant) and node.body.value is None
            orelse_none = (
                isinstance(node.orelse, ast.Constant) and node.orelse.value is None
            )
            if body_none and not orelse_none:
                node = node.orelse
            elif orelse_none and not body_none:
                node = node.body
            else:
                return None
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return tuple(reversed(parts))
        else:
            return None


def scope_nodes(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Every node in a function's own body, not entering nested scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _collect_aliases(nodes: Iterable[ast.AST]) -> Dict[str, Optional[Chain]]:
    """Local name -> attribute chain it consistently aliases (or ``None``)."""
    aliases: Dict[str, Optional[Chain]] = {}

    def bind(name: str, chain: Optional[Chain]) -> None:
        if chain is not None and chain[0] == name:
            chain = None  # self-referential rebinding (x = x.next)
        if name in aliases and aliases[name] != chain:
            aliases[name] = None
        else:
            aliases[name] = chain

    def opaque(target: ast.expr) -> None:
        # Only *bound* names go opaque: a store into ``dram.window`` or
        # ``tm[tag]`` does not rebind the local ``dram``/``tm``.
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                bind(sub.id, None)

    def bind_target(target: ast.expr, value: Optional[ast.expr]) -> None:
        if isinstance(target, ast.Name):
            bind(target.id, _raw_chain(value) if value is not None else None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = (
                value.elts
                if isinstance(value, (ast.Tuple, ast.List))
                and len(value.elts) == len(target.elts)
                else None
            )
            for i, t_elt in enumerate(target.elts):
                bind_target(t_elt, elts[i] if elts is not None else None)
        # Attribute/Subscript targets rebind nothing.

    for node in nodes:
        if isinstance(node, ast.Assign):
            if len(node.targets) == 1:
                bind_target(node.targets[0], node.value)
            else:
                for target in node.targets:
                    bind_target(target, None)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                bind(node.target.id, _raw_chain(node.value))
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                bind(node.target.id, None)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            opaque(node.target)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            opaque(node.optional_vars)
        elif isinstance(node, ast.comprehension):
            opaque(node.target)

    # Fixpoint: splice aliases whose root is itself an alias.
    for _ in range(8):
        changed = False
        for name, chain in list(aliases.items()):
            if not chain:
                continue
            sub = aliases.get(chain[0])
            if sub and sub[0] != name:
                new = sub + chain[1:]
                if new != chain and len(new) <= _MAX_CHAIN:
                    aliases[name] = new
                    changed = True
        if not changed:
            break
    return aliases


class Program:
    """Function index + call-graph resolver over one set of file contexts."""

    def __init__(self, files: Sequence[FileContext]) -> None:
        self.files: Tuple[FileContext, ...] = tuple(files)
        self.functions: Dict[FunctionKey, FunctionInfo] = {}
        self.by_bare: Dict[str, List[FunctionInfo]] = {}
        self.class_inits: Dict[str, List[FunctionInfo]] = {}
        self.init_bindings: Dict[Tuple[str, str], Dict[str, Chain]] = {}
        self._aliases: Dict[FunctionKey, Dict[str, Optional[Chain]]] = {}
        self._calls: Dict[FunctionKey, Tuple[CallSite, ...]] = {}
        for ctx in files:
            if ctx.tree is not None:
                self._index_file(ctx)
        self._bind_constructors()

    # ------------------------------------------------------------------ build

    def _index_file(self, ctx: FileContext) -> None:
        assert ctx.tree is not None

        def visit(node: ast.AST, stack: List[str], cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = ".".join(stack + [child.name])
                    info = FunctionInfo(ctx, qual, cls, child)
                    self.functions[info.key] = info
                    self.by_bare.setdefault(child.name, []).append(info)
                    if cls is not None and child.name == "__init__":
                        self.class_inits.setdefault(cls, []).append(info)
                    visit(child, stack + [child.name], None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, stack + [child.name], child.name)

        visit(ctx.tree, [], None)

    def _bind_constructors(self) -> None:
        """Extract ``self.X = <chain>`` bindings from every ``__init__``."""
        for infos in self.class_inits.values():
            for info in infos:
                aliases = self.aliases(info)
                bindings: Dict[str, Chain] = {}
                for node in scope_nodes(info.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        chain = _raw_chain(node.value)
                        if chain is None:
                            continue
                        sub = aliases.get(chain[0])
                        if sub:
                            chain = sub + chain[1:]
                        if (
                            len(chain) <= _MAX_CHAIN
                            and target.attr not in bindings
                        ):
                            bindings[target.attr] = chain
                if bindings and info.cls is not None:
                    self.init_bindings[(info.relkey, info.cls)] = bindings

    # ---------------------------------------------------------------- queries

    def aliases(self, fn: FunctionInfo) -> Dict[str, Optional[Chain]]:
        cached = self._aliases.get(fn.key)
        if cached is None:
            cached = _collect_aliases(scope_nodes(fn.node))
            self._aliases[fn.key] = cached
        return cached

    def canonical(self, fn: FunctionInfo, chain: Chain) -> Chain:
        """Expand ``chain`` through local aliases and constructor bindings."""
        sub = self.aliases(fn).get(chain[0])
        if sub:
            chain = sub + chain[1:]
        if fn.cls is not None:
            bindings = self.init_bindings.get((fn.relkey, fn.cls))
            if bindings:
                for _ in range(8):
                    if len(chain) < 2 or chain[0] != "self":
                        break
                    bound = bindings.get(chain[1])
                    if bound is None:
                        break
                    new = bound + chain[2:]
                    if new == chain or len(new) > _MAX_CHAIN:
                        break
                    chain = new
        return chain

    def calls(self, fn: FunctionInfo) -> Tuple[CallSite, ...]:
        """Every call site in ``fn``, with canonicalised target chains."""
        cached = self._calls.get(fn.key)
        if cached is not None:
            return cached
        sites: List[CallSite] = []
        for node in scope_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                chain = self.canonical(fn, (func.id,))
                sites.append(CallSite(node.lineno, chain[-1], chain))
            elif isinstance(func, ast.Attribute):
                raw = _raw_chain(func)
                if raw is None:
                    sites.append(CallSite(node.lineno, func.attr, None))
                else:
                    chain = self.canonical(fn, raw)
                    sites.append(CallSite(node.lineno, chain[-1], chain))
        result = tuple(sites)
        self._calls[fn.key] = result
        return result

    def resolve(
        self,
        caller: FunctionInfo,
        site: CallSite,
        module_ok: Optional[Callable[[str], bool]] = None,
    ) -> Tuple[FunctionInfo, ...]:
        """Candidate definitions a call site may land in."""
        name = site.name
        if not name or name.startswith("__") or name in _NEVER_RESOLVE:
            return ()

        def admit(infos: Iterable[FunctionInfo]) -> Tuple[FunctionInfo, ...]:
            return tuple(
                f for f in infos if module_ok is None or module_ok(f.relkey)
            )

        chain = site.chain
        if (
            chain is not None
            and len(chain) == 2
            and chain[0] == "self"
            and caller.cls is not None
        ):
            own = self.functions.get((caller.relkey, f"{caller.cls}.{name}"))
            if own is not None:
                return admit((own,))
        if chain is not None and len(chain) == 1:
            module_fn = self.functions.get((caller.relkey, name))
            if module_fn is not None:
                return admit((module_fn,))
        candidates: List[FunctionInfo] = list(self.by_bare.get(name, ()))
        candidates.extend(self.class_inits.get(name, ()))
        return admit(candidates)


_PROGRAM_CACHE: Dict[Tuple[int, ...], Tuple[Tuple[FileContext, ...], Program]] = {}


def program_for(files: Sequence[FileContext]) -> Program:
    """Build (or reuse) the :class:`Program` for one prepared file set.

    Rules run over the same context list within one lint invocation; the
    cache keys on object identity and keeps the contexts alive so ids
    cannot be reused.
    """
    key = tuple(id(ctx) for ctx in files)
    hit = _PROGRAM_CACHE.get(key)
    if hit is not None:
        return hit[1]
    program = Program(files)
    if len(_PROGRAM_CACHE) >= 8:
        _PROGRAM_CACHE.clear()
    _PROGRAM_CACHE[key] = (tuple(files), program)
    return program
