"""Per-file analysis context: parsed tree and suppressions."""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")


def relkey_for(path: str) -> str:
    """Path relative to the innermost ``repro`` package, ``/``-separated.

    Falls back to the basename when the path does not live under a
    ``repro`` directory (ad-hoc files, test fixtures).
    """
    parts = [p for p in re.split(r"[\\/]+", path) if p]
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1 :])
    return parts[-1] if parts else path


class FileContext:
    """One source file prepared for rule checks."""

    def __init__(self, path: str, source: str, relkey: Optional[str] = None) -> None:
        self.path = path
        self.relkey = relkey if relkey is not None else relkey_for(path)
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:  # surfaced as an RPR000 diagnostic
            self.syntax_error = exc
        #: line -> rule codes suppressed there via ``# repro: allow[...]``.
        self.suppressions: Dict[int, Set[str]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            match = _ALLOW_RE.search(text)
            if match:
                codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
                self.suppressions.setdefault(lineno, set()).update(codes)

    def is_suppressed(self, line: int, code: str) -> bool:
        """True if ``code`` is allowed on ``line`` or the line above it."""
        for lineno in (line, line - 1):
            if code in self.suppressions.get(lineno, ()):
                return True
        return False


def find_file(files: Sequence[FileContext], relkey: str) -> Optional[FileContext]:
    for ctx in files:
        if ctx.relkey == relkey:
            return ctx
    return None
