"""The hot-path manifest (:mod:`repro.lint.manifest`) checked against the
program it describes, by parsing the package and by running it.

* **Liveness**: every ``HOT_FUNCTIONS`` entry resolves to a definition in
  its module, and every class the manifest names exists.  A renamed or
  deleted function would otherwise drop out of RPR001's allocation
  contract without a word.
* **Coverage**: a fixed set of small cells runs under ``sys.setprofile``.
  Every function in a hot module (``HOT_MODULE_PREFIXES``) that a listed
  function is seen calling must itself be listed, or be exempt
  (``HOT_CALLEE_EXEMPT_PREFIXES``/``HOT_CALLEE_EXEMPT_QUAL_PREFIXES``);
  otherwise the contract rots in the other direction.
* **Reset**: every ``STATS_BEARING`` structure reachable from a session
  clears, at the warmup boundary, every counter it started at 0 — the
  dynamic twin of RPR004's static check.

Files are located through the imported package, so the checks hold
wherever the tree is checked out.  CI also runs this file under
``REPRO_CHECK=1``, where the ``Checked*`` shadow structures are installed.
"""

import ast
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.core.simulator import Session, simulate, simulate_multicore, simulate_smt
from repro.core.system import System
from repro.experiments.runner import config_for
from repro.kernel import ENGINES
from repro.lint.manifest import (
    ENUM_CLASSES,
    HOT_CALLEE_EXEMPT_PREFIXES,
    HOT_CALLEE_EXEMPT_QUAL_PREFIXES,
    HOT_CLASSES,
    HOT_FUNCTIONS,
    HOT_MODULE_PREFIXES,
    STATS_BEARING,
    TOPOLOGY_CONSTRUCTORS,
)
from repro.lint.rules.base import iter_functions
from repro.workloads.server import ServerWorkload
from repro.workloads.speclike import SpecLikeWorkload

REPRO = Path(repro.__file__).resolve().parent

HOT = frozenset((relkey, qual) for relkey, quals in HOT_FUNCTIONS.items() for qual in quals)

TECHNIQUES = ("lru", "itp+xptp", "chirp")
TOPOLOGIES = ("table1", "split-stlb", "no-llc")
STLB_PREFETCHERS = ("sequential", "distance")
LARGE_PAGE_PERCENT = 25
WARMUP = 1_000
MEASURE = 4_000

#: Code objects that run as part of the function enclosing them.
ANONYMOUS = frozenset({"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>", "<lambda>"})


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


class TestLiveness:
    def test_hot_functions_resolve(self):
        unresolved = []
        for relkey, quals in sorted(HOT_FUNCTIONS.items()):
            path = REPRO / relkey
            assert path.is_file(), f"HOT_FUNCTIONS names missing module {relkey!r}"
            defined = {qual for qual, _ in iter_functions(parse(path))}
            unresolved += [f"{relkey}:{qual}" for qual in sorted(quals - defined)]
        assert unresolved == []

    def test_manifest_classes_exist(self):
        defined = {
            node.name
            for path in REPRO.rglob("*.py")
            for node in ast.walk(parse(path))
            if isinstance(node, ast.ClassDef)
        }
        named = HOT_CLASSES | STATS_BEARING | ENUM_CLASSES | TOPOLOGY_CONSTRUCTORS
        assert sorted(named - defined) == []


# ----------------------------------------------------------------- coverage


def with_row_buffer(config, **changes):
    return replace(config, dram=replace(config.dram, row_buffer=True), **changes)


def traced_cells():
    """Thunks, one per cell: every technique x topology x engine with 2 MB
    pages, the row-buffer DRAM with each STLB prefetcher, one SMT pair and
    one two-core pair."""
    for technique in TECHNIQUES:
        for topology in TOPOLOGIES:
            for engine in ENGINES:
                yield lambda t=technique, topo=topology, e=engine: simulate(
                    config_for(t), ServerWorkload("srv", 3, LARGE_PAGE_PERCENT),
                    WARMUP, MEASURE, topology=topo, engine=e,
                )
    for prefetcher in STLB_PREFETCHERS:
        yield lambda p=prefetcher: simulate(
            with_row_buffer(config_for("itp+xptp"), stlb_prefetcher=p),
            ServerWorkload("srv", 4, LARGE_PAGE_PERCENT), WARMUP, MEASURE,
        )
    for run in (simulate_smt, simulate_multicore):
        yield lambda run=run: run(
            config_for("itp+xptp"),
            [ServerWorkload("srv", 1, LARGE_PAGE_PERCENT),
             SpecLikeWorkload("spec", 2, LARGE_PAGE_PERCENT)],
            WARMUP, MEASURE,
        )


def function_key(code):
    """``(relkey, qualname)`` of a code object in the package, else None.

    ``.<locals>`` is dropped, so nested functions read ``outer.inner`` as
    in the manifest, and comprehension, generator-expression and lambda
    code counts as the function enclosing it.
    """
    try:
        relkey = Path(code.co_filename).resolve().relative_to(REPRO).as_posix()
    except ValueError:
        return None
    parts = [part for part in code.co_qualname.split(".") if part != "<locals>"]
    while len(parts) > 1 and parts[-1] in ANONYMOUS:
        parts.pop()
    return relkey, ".".join(parts)


def trace_calls(thunks):
    """Run ``thunks`` under a profiler; the ``(caller, callee)`` key pairs."""
    calls = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None:
            calls.add((frame.f_back.f_code, frame.f_code))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for run in thunks:
            run()
    finally:
        sys.setprofile(previous)
    keyed = ((function_key(caller), function_key(callee)) for caller, callee in calls)
    return {(caller, callee) for caller, callee in keyed if caller and callee}


@pytest.fixture(scope="module")
def hot_calls():
    """Traced calls made by listed functions: ``{(caller, callee)}``."""
    return {(caller, callee) for caller, callee in trace_calls(traced_cells())
            if caller in HOT}


def must_be_listed(key):
    relkey, qual = key
    return (
        relkey.startswith(HOT_MODULE_PREFIXES)
        and not relkey.startswith(HOT_CALLEE_EXEMPT_PREFIXES)
        and not qual.startswith(HOT_CALLEE_EXEMPT_QUAL_PREFIXES)
    )


class TestCoverage:
    def test_trace_reaches_every_hot_region(self, hot_calls):
        # Guards against a vacuous trace: each kind of cell ran its path.
        traced = {qual for call in hot_calls for _, qual in call}
        assert {
            "Core.execute",
            "BatchedEngine._run_block",
            "PageTableWalker.walk",
            "MMU._stlb_prefetch",
            "DRAM._row_buffer_latency",
            "AdaptiveXPTPController.on_instructions",
        } <= traced

    def test_hot_callees_are_listed(self, hot_calls):
        unlisted = sorted(
            f"{callee[0]}:{callee[1]} (called from {caller[1]})"
            for caller, callee in hot_calls
            if callee not in HOT and must_be_listed(callee)
        )
        assert unlisted == [], "add these to HOT_FUNCTIONS or exempt them"


# -------------------------------------------------------------------- reset


def slot_and_dict_attrs(obj):
    attrs = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                attrs[name] = getattr(obj, name)
    return attrs


def reachable(*roots):
    """Every package-defined object reachable from ``roots`` through
    attributes and builtin containers."""
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("repro."):
            found.append(obj)
            stack.extend(slot_and_dict_attrs(obj).values())
    return found


def state_counters(cls):
    """Attributes a class's module opts out of RPR004 as state, not statistics."""
    source = Path(sys.modules[cls.__module__].__file__).read_text()
    return set(re.findall(r"self\.(\w+)\s*=[^\n]*#\s*repro:\s*allow\[[^\]]*RPR004", source))


def zero_counters(session):
    """``(structure, attribute)`` for each public int/float attribute that
    reads 0 on a STATS_BEARING structure of a freshly built session."""
    counters = []
    for obj in reachable(session.system, session.engine):
        if not STATS_BEARING & {cls.__name__ for cls in type(obj).__mro__}:
            continue
        exempt = state_counters(type(obj))
        counters += [
            (obj, name)
            for name, value in slot_and_dict_attrs(obj).items()
            if not name.startswith("_") and name not in exempt
            and type(value) in (int, float) and value == 0
        ]
    return counters


class TestStatsBearingReset:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_warmup_clears_every_counter(self, engine, monkeypatch):
        config = with_row_buffer(config_for("itp+xptp"))
        session = Session(config, [ServerWorkload("srv", 3, LARGE_PAGE_PERCENT)], engine=engine)
        counters = zero_counters(session)
        moved = []
        reset_stats = System.reset_stats

        def spy(system):
            moved.extend(
                f"{type(obj).__name__}.{name}" for obj, name in counters if getattr(obj, name)
            )
            reset_stats(system)

        monkeypatch.setattr(System, "reset_stats", spy)
        # Ends mid adaptive window, so the state counter MMU.stlb_miss_events
        # is nonzero at the boundary and its exemption is exercised.
        session.warmup(7_500)
        assert moved, "the warmup window moved none of the counters it checks"
        leaked = sorted(
            f"{type(obj).__name__}.{name}={getattr(obj, name)}"
            for obj, name in counters if getattr(obj, name)
        )
        assert leaked == []
