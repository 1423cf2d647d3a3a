"""RPR001 — no object allocation on hot paths.

Functions named in :data:`repro.lint.manifest.HOT_FUNCTIONS` run per
memory reference or per miss; the simulator's throughput depends on them
allocating nothing.  Flagged constructs:

* ``dict``/``list``/``set`` displays and comprehensions/generator
  expressions;
* tuple displays that are loaded and not all constants (``(set, tag)``
  builds a tuple per evaluation; ``(1, 2)`` is folded at compile time, and
  an unpacking target ``a, b = ...`` stores rather than builds);
* f-strings (``JoinedStr`` builds a new ``str`` per evaluation);
* lambdas and nested ``def`` (closure objects);
* calls to the allocating builtins (``dict``, ``list``, ``set``,
  ``frozenset``, ``bytearray``) and to capitalised names (class
  construction by convention).

``raise``/``assert`` subtrees are exempt: error paths never execute in a
correct run, and their f-strings are the diagnostic payload.  Annotations
(``-> Union[int, float]``) are exempt too: they are never evaluated per call.  Sanctioned
allocations (one result object per miss, say) carry
``# repro: allow[RPR001]`` with a rationale comment.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set, Tuple

from .. import manifest
from ..context import FileContext
from ..diagnostics import Diagnostic
from .base import Rule, iter_functions

_ALLOC_BUILTINS = frozenset({"dict", "list", "set", "frozenset", "bytearray"})

_COMPREHENSIONS = {
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression",
}

_DISPLAYS = {ast.Dict: "dict display", ast.List: "list display", ast.Set: "set display"}


def _is_constant(node: ast.expr) -> bool:
    """True for constants and (nested) tuples of them: folded at compile time."""
    if isinstance(node, ast.Tuple):
        return all(_is_constant(elt) for elt in node.elts)
    return isinstance(node, ast.Constant)


def _annotations(func: ast.AST) -> Set[int]:
    """``id``s of every annotation subtree under ``func``."""
    found: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        if annotation is not None:
            found.add(id(annotation))
    return found


def _scan(func: ast.AST) -> List[Tuple[int, str]]:
    """Allocation sites inside ``func``, skipping raise/assert subtrees and
    annotations."""
    findings: List[Tuple[int, str]] = []
    skip = _annotations(func)

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Raise, ast.Assert)) or id(child) in skip:
                continue  # error paths are cold; annotations never run
            kind = _DISPLAYS.get(type(child))
            if kind is not None:
                findings.append((child.lineno, f"allocates a {kind}"))
            elif (
                isinstance(child, ast.Tuple)
                and isinstance(child.ctx, ast.Load)
                and not _is_constant(child)
            ):
                findings.append((child.lineno, "allocates a tuple display"))
            elif type(child) in _COMPREHENSIONS:
                findings.append(
                    (child.lineno, f"allocates via {_COMPREHENSIONS[type(child)]}")
                )
            elif isinstance(child, ast.JoinedStr):
                findings.append((child.lineno, "builds an f-string"))
            elif isinstance(child, ast.Lambda):
                findings.append((child.lineno, "creates a lambda (closure object)"))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.append(
                    (child.lineno, f"defines nested function '{child.name}' (closure)")
                )
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                name = child.func.id
                if name in _ALLOC_BUILTINS:
                    findings.append((child.lineno, f"calls allocating builtin '{name}'"))
                elif name[:1].isupper():
                    findings.append((child.lineno, f"constructs '{name}' object"))
            visit(child)

    visit(func)
    return findings


class AllocationRule(Rule):
    code = "RPR001"
    summary = "no object allocation in hot-path functions"

    def check(self, files: Sequence[FileContext]) -> Iterator[Diagnostic]:
        for ctx in files:
            if ctx.tree is None:
                continue
            manifest_hot = manifest.HOT_FUNCTIONS.get(ctx.relkey, frozenset())
            for qualname, func in iter_functions(ctx.tree):
                if qualname not in manifest_hot:
                    continue
                for lineno, what in _scan(func):
                    yield self.diag(
                        ctx, lineno, f"hot function '{qualname}' {what}"
                    )
