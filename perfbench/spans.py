"""In-memory span tracer for the benchmark's traced pass.

Public layer methods are wrapped at class level before any machine is
built, so the collaborator methods that constructors bind (``Core`` binds
``mmu.translate`` and ``l1i.access``, each cache binds its
``next_level.access``) bind the wrappers.  Object wiring is never touched:
``next_level`` stays the real next structure, so the batched kernel's
shape gates (``type(l1i.next_level) is SetAssociativeCache``,
``llc.next_level is dram``) pass exactly as in an untraced run and the
traced pass executes the same program.

Every wrapped call records one span — name, start, end and the index of
the enclosing span — in flat arrays.  Calls, inclusive time and self time
(duration minus the time covered by child spans) per span name are derived
from them; to bound memory, the arrays are folded into those totals
whenever a root span closes with more than :data:`FOLD_SPANS` recorded.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

#: Stream spans are named ``workloads.next#<k>`` (one name per stream, so
#: records pulled per stream can be counted); summaries fold them into
#: this layer name.
STREAM_LAYER = "workloads.next"

FOLD_SPANS = 1 << 20


class Tracer:
    """Records spans for wrapped methods; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[type, str, Any]] = []
        # Folded totals per name id, and time covered by root spans.
        self._calls: List[int] = []
        self._incl: List[float] = []
        self._self: List[float] = []
        self._root_ns = 0.0
        self.span_count = 0
        #: Workload of each traced stream, indexed by its ``#<k>`` suffix.
        self.streams: List[Any] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._incl.append(0.0)
            self._self.append(0.0)
        return nid

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _span(self, fn: Callable, name_of: Callable[[tuple], int]) -> Callable:
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter_ns
        fold = self._fold

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            parent = stack[-1]
            name_ids.append(name_of(args))
            parents.append(parent)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if parent < 0 and idx >= FOLD_SPANS:
                    fold()

        return traced

    def _patch(self, owner: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_method(self, owner: type, attr: str, name: str) -> None:
        """Trace every call of ``owner.attr`` as span ``name``."""
        nid = self.name_id(name)
        self._patch(owner, attr, self._span(owner.__dict__[attr], lambda _a: nid))

    def wrap_keyed_method(
        self,
        owner: type,
        attr: str,
        key_of: Callable[[Any], Any],
        name_for: Callable[[Any], str],
    ) -> None:
        """Trace ``owner.attr`` with a span name per instance key (e.g. the
        cache level's configured name): ``name_for(key_of(instance))``."""
        ids: Dict[Any, int] = {}

        def nid(args: tuple) -> int:
            key = key_of(args[0])
            found = ids.get(key)
            if found is None:
                found = ids[key] = self.name_id(name_for(key))
            return found

        self._patch(owner, attr, self._span(owner.__dict__[attr], nid))

    def wrap_record_stream(self, owner: type) -> None:
        """Trace each ``next()`` on the streams ``owner.record_stream``
        returns; each stream gets its own span name."""
        original = owner.__dict__["record_stream"]
        end = object()

        @functools.wraps(original)
        def record_stream(workload: Any) -> Iterator:
            nid = self.name_id(f"{STREAM_LAYER}#{len(self.streams)}")
            self.streams.append(workload)
            pull = self._span(original(workload).__next__, lambda _a: nid)
            return iter(pull, end)

        self._patch(owner, "record_stream", record_stream)

    def wrap_delta(
        self,
        owner: type,
        attr: str,
        probe: Callable[[Any], Tuple[int, ...]],
        sink: List[Tuple[int, ...]],
    ) -> None:
        """Append ``probe(instance)`` after minus before each call of
        ``owner.attr`` to ``sink`` (a counter read, no span)."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def counted(obj: Any, *args: Any, **kwargs: Any) -> Any:
            before = probe(obj)
            result = original(obj, *args, **kwargs)
            sink.append(tuple(a - b for a, b in zip(probe(obj), before)))
            return result

        self._patch(owner, attr, counted)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Keep the wrappers in place for the ``with`` body only."""
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #

    def _fold(self) -> None:
        """Add the recorded spans to the per-name totals and drop them.

        Only called with no span open, so no live span refers to an index
        being dropped.
        """
        n = len(self.starts)
        if not n:
            return
        starts = np.frombuffer(self.starts, dtype=np.int64)
        ends = np.frombuffer(self.ends, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        dur = (ends - starts).astype(np.float64)
        child = np.bincount(parents + 1, weights=dur, minlength=n + 1)[1:]
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        for i in range(k):
            self._calls[i] += int(calls[i])
            self._incl[i] += float(incl[i])
            self._self[i] += float(own[i])
        self._root_ns += float(dur[parents < 0].sum())
        self.span_count += n
        del starts, ends, parents, ids  # release the buffer exports
        for buf in (self.name_ids, self.parents, self.starts, self.ends):
            del buf[:]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``incl_ns`` and ``self_ns``.

        Stream spans fold into :data:`STREAM_LAYER`; the pseudo-layer
        ``root`` carries, as ``incl_ns``, the time covered by spans with no
        parent.
        """
        self._fold()
        out: Dict[str, Dict[str, float]] = {}
        for i, name in enumerate(self.names):
            layer = name.split("#", 1)[0]
            row = out.setdefault(layer, {"calls": 0, "incl_ns": 0.0, "self_ns": 0.0})
            row["calls"] += self._calls[i]
            row["incl_ns"] += self._incl[i]
            row["self_ns"] += self._self[i]
        out["root"] = {"calls": 0, "incl_ns": self._root_ns, "self_ns": 0.0}
        return out

    def stream_records(self) -> List[Tuple[Any, int]]:
        """``(workload, records pulled)`` for every traced stream."""
        self._fold()
        return [
            (workload, self._calls[self._ids[f"{STREAM_LAYER}#{k}"]])
            for k, workload in enumerate(self.streams)
        ]
