"""Whole-program effect analysis: callgraph/effects layer and RPR007-RPR009.

Synthetic-module fixtures pin the positive and negative behaviour of each
interprocedural rule, the two suppression flavours (callee-site: the
effect's own line; call-site: the edge into the subtree), and the drift
canary proves RPR007 catches a deliberately removed kernel effect in a
copy of the real tree.
"""

import shutil
from pathlib import Path

from repro.lint import lint_paths, lint_sources
from repro.lint.callgraph import program_for
from repro.lint.context import FileContext
from repro.lint.effects import EffectAnalysis
from repro.lint.manifest import ShadowPair
from repro.lint.rules.effects_parity import EffectParityRule
from repro.lint.rules.manifest_liveness import ManifestLivenessRule
from repro.lint.rules.worker_safety import WorkerSafetyRule

REPRO_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def codes(diags):
    return [d.code for d in diags]


def analyze(sources):
    files = [FileContext(name, text, relkey=name) for name, text in sources.items()]
    program = program_for(files)
    return program, EffectAnalysis(program), files


# --------------------------------------------------------------------------
# Effect extraction layer


class TestEffectExtraction:
    def test_stats_write_through_constructor_binding(self):
        src = (
            "class Core:\n"
            "    def __init__(self, system):\n"
            "        self._stats = system.stats\n"
            "    def execute(self):\n"
            "        stats = self._stats\n"
            "        stats.instructions += 1\n"
        )
        program, analysis, _ = analyze({"core/cpu.py": src})
        fn = program.functions[("core/cpu.py", "Core.execute")]
        assert "stats:instructions" in {e.ident for e in analysis.effects_of(fn)}

    def test_tag_map_write_and_del_through_aliases(self):
        src = (
            "class Engine:\n"
            "    def __init__(self, system):\n"
            "        self._tm = system.l1i._tag_maps\n"
            "    def run(self):\n"
            "        tm = self._tm[0]\n"
            "        tm[5] = 1\n"
            "        del tm[7]\n"
        )
        program, analysis, _ = analyze({"kernel/engine.py": src})
        fn = program.functions[("kernel/engine.py", "Engine.run")]
        idents = [e.ident for e in analysis.effects_of(fn)]
        assert idents.count("state:tag_maps") == 2

    def test_attribute_store_does_not_clobber_base_alias(self):
        # `dram._window_accesses = 0` must not mark the local `dram` opaque.
        src = (
            "class Engine:\n"
            "    def __init__(self, system):\n"
            "        self._dram = system.dram\n"
            "    def run(self):\n"
            "        dram = self._dram\n"
            "        dram.other = 1\n"
            "        dram._window_accesses = 0\n"
        )
        program, analysis, _ = analyze({"kernel/engine.py": src})
        fn = program.functions[("kernel/engine.py", "Engine.run")]
        assert "state:_window_accesses" in {e.ident for e in analysis.effects_of(fn)}

    def test_recency_mutator_call_is_a_state_effect(self):
        src = (
            "def touch_all(stacks, ways):\n"
            "    for s, w in zip(stacks, ways):\n"
            "        s.touch(w)\n"
        )
        program, analysis, _ = analyze({"common/recency.py": src})
        fn = program.functions[("common/recency.py", "touch_all")]
        assert "state:recency" in {e.ident for e in analysis.effects_of(fn)}

    def test_self_attr_rebind_of_global_is_not_a_global_write(self):
        # Regression: PageTable.__init__ seeds cursors FROM module constants;
        # that is a read of the global, not a write.
        src = (
            "BASE = 100\n"
            "class PageTable:\n"
            "    def __init__(self):\n"
            "        self._next = BASE\n"
            "    def alloc(self):\n"
            "        self._next += 1\n"
        )
        program, analysis, _ = analyze({"ptw/page_table.py": src})
        for qual in ("PageTable.__init__", "PageTable.alloc"):
            fn = program.functions[("ptw/page_table.py", qual)]
            assert not [e for e in analysis.effects_of(fn) if e.kind == "env"]

    def test_mutation_through_module_global_is_env(self):
        src = (
            "_REGISTRY = {}\n"
            "def register(key, value):\n"
            "    _REGISTRY[key] = value\n"
        )
        program, analysis, _ = analyze({"experiments/reg.py": src})
        fn = program.functions[("experiments/reg.py", "register")]
        assert "env:global:_REGISTRY" in {e.ident for e in analysis.effects_of(fn)}


# --------------------------------------------------------------------------
# RPR007 — kernel/spec effect parity

SPEC_CORE = (
    "class Core:\n"
    "    def __init__(self, system):\n"
    "        self._access = system.cache.access\n"
    "    def execute(self, rec):\n"
    "        self.stats.instructions += 1\n"
    "        self._access(rec)\n"
)

SPEC_CACHE = (
    "class Cache:\n"
    "    def access(self, req):\n"
    "        self.stats.accesses += 1\n"
    "        line = self.lines[0]\n"
    "        line.dirty = True\n"
)

KERNEL_FULL = (
    "class Kernel:\n"
    "    def __init__(self, system):\n"
    "        self._stats = system.stats\n"
    "        self._cstats = system.cache.stats\n"
    "        self._lines = system.cache.lines\n"
    "    def _run(self, recs):\n"
    "        stats = self._stats\n"
    "        stats.instructions += len(recs)\n"
    "        cstats = self._cstats\n"
    "        cstats.accesses += len(recs)\n"
    "        line = self._lines[0]\n"
    "        line.dirty = True\n"
)

KERNEL_NO_DIRTY = (
    "class Kernel:\n"
    "    def __init__(self, system):\n"
    "        self._stats = system.stats\n"
    "        self._cstats = system.cache.stats\n"
    "    def _run(self, recs):\n"
    "        stats = self._stats\n"
    "        stats.instructions += len(recs)\n"
    "        cstats = self._cstats\n"
    "        cstats.accesses += len(recs)\n"
)

SHADOW = ShadowPair(
    kernel=("kernel/k.py", "Kernel._run"),
    spec=("core/c.py", "Core.execute"),
)


def parity_rule(gated=None):
    return EffectParityRule(shadows=(SHADOW,), gated=gated or {})


class TestRPR007EffectParity:
    def test_mirrored_effects_pass(self):
        diags = lint_sources(
            {"core/c.py": SPEC_CORE, "cache/h.py": SPEC_CACHE, "kernel/k.py": KERNEL_FULL},
            rules=[parity_rule()],
        )
        assert diags == []

    def test_spec_only_effect_is_flagged_at_kernel_entry(self):
        diags = lint_sources(
            {"core/c.py": SPEC_CORE, "cache/h.py": SPEC_CACHE, "kernel/k.py": KERNEL_NO_DIRTY},
            rules=[parity_rule()],
        )
        assert codes(diags) == ["RPR007"]
        (diag,) = diags
        assert "state:dirty" in diag.message
        assert "Core.execute" in diag.message and "Cache.access" in diag.message
        assert diag.relkey == "kernel/k.py"

    def test_kernel_only_effect_is_flagged_at_the_write(self):
        kernel = KERNEL_FULL + "        stats.bogus_counter += 1\n"
        diags = lint_sources(
            {"core/c.py": SPEC_CORE, "cache/h.py": SPEC_CACHE, "kernel/k.py": kernel},
            rules=[parity_rule()],
        )
        assert codes(diags) == ["RPR007"]
        assert "stats:bogus_counter" in diags[0].message
        assert diags[0].line == kernel.count("\n")  # the added last line

    def test_gated_effect_passes(self):
        diags = lint_sources(
            {"core/c.py": SPEC_CORE, "cache/h.py": SPEC_CACHE, "kernel/k.py": KERNEL_NO_DIRTY},
            rules=[parity_rule(gated={"state:dirty": "miss path only"})],
        )
        assert diags == []

    def test_stale_gate_kernel_now_writes_it(self):
        diags = lint_sources(
            {"core/c.py": SPEC_CORE, "cache/h.py": SPEC_CACHE, "kernel/k.py": KERNEL_FULL},
            rules=[parity_rule(gated={"state:dirty": "stale"})],
        )
        assert codes(diags) == ["RPR007"]
        assert "stale gate" in diags[0].message

    def test_stale_gate_spec_no_longer_writes_it(self):
        diags = lint_sources(
            {"core/c.py": SPEC_CORE, "cache/h.py": SPEC_CACHE, "kernel/k.py": KERNEL_FULL},
            rules=[parity_rule(gated={"stats:retired_counter": "stale"})],
        )
        assert codes(diags) == ["RPR007"]
        assert "no longer writes" in diags[0].message

    def test_callee_site_suppression_removes_the_effect(self):
        cache = SPEC_CACHE.replace(
            "        line.dirty = True\n",
            "        line.dirty = True  # repro: allow[RPR007]\n",
        )
        diags = lint_sources(
            {"core/c.py": SPEC_CORE, "cache/h.py": cache, "kernel/k.py": KERNEL_NO_DIRTY},
            rules=[parity_rule()],
        )
        assert diags == []

    def test_call_site_suppression_prunes_the_subtree(self):
        core = SPEC_CORE.replace(
            "        self._access(rec)\n",
            "        self._access(rec)  # repro: allow[RPR007]\n",
        )
        kernel_min = (
            "class Kernel:\n"
            "    def __init__(self, system):\n"
            "        self._stats = system.stats\n"
            "    def _run(self, recs):\n"
            "        stats = self._stats\n"
            "        stats.instructions += len(recs)\n"
        )
        diags = lint_sources(
            {"core/c.py": core, "cache/h.py": SPEC_CACHE, "kernel/k.py": kernel_min},
            rules=[parity_rule()],
        )
        assert diags == []

    def test_missing_pair_in_fixture_set_is_ignored(self):
        diags = lint_sources({"core/c.py": SPEC_CORE}, rules=[parity_rule()])
        assert diags == []


# --------------------------------------------------------------------------
# RPR008 — worker determinism


def worker_rule():
    return WorkerSafetyRule(
        entry_points={"experiments/parallel.py": frozenset({"_execute"})},
        sanctioned_prefixes=("faults/",),
    )


class TestRPR008WorkerSafety:
    def test_seeded_rng_and_perf_counter_pass(self):
        src = (
            "import random\n"
            "import time\n"
            "def _execute(job):\n"
            "    rng = random.Random(job.seed)\n"
            "    start = time.perf_counter()\n"
            "    return rng.random(), time.perf_counter() - start\n"
        )
        diags = lint_sources({"experiments/parallel.py": src}, rules=[worker_rule()])
        assert diags == []

    def test_unseeded_rng_and_wall_clock_reached_through_helper(self):
        helper = (
            "import random\n"
            "import time\n"
            "def jitter():\n"
            "    return random.random() + time.time()\n"
        )
        entry = (
            "from repro.workloads.noise import jitter\n"
            "def _execute(job):\n"
            "    return jitter()\n"
        )
        diags = lint_sources(
            {"workloads/noise.py": helper, "experiments/parallel.py": entry},
            rules=[worker_rule()],
        )
        assert codes(diags) == ["RPR008", "RPR008"]
        messages = " ".join(d.message for d in diags)
        assert "random.random" in messages and "time.time" in messages
        assert all("_execute" in d.message for d in diags)
        assert all(d.relkey == "workloads/noise.py" for d in diags)

    def test_module_global_write_is_flagged(self):
        src = (
            "_RESULTS = {}\n"
            "_counter = 0\n"
            "def _execute(job):\n"
            "    global _counter\n"
            "    _counter += 1\n"
            "    _RESULTS[job.key] = 1\n"
        )
        diags = lint_sources({"experiments/parallel.py": src}, rules=[worker_rule()])
        found = {d.message.split("'")[1] for d in diags}
        assert found == {"global:_counter", "global:_RESULTS"}

    def test_sanctioned_fault_package_is_not_descended(self):
        faults = "import time\ndef maybe_hang():\n    time.sleep(1)\n"
        entry = (
            "from repro.faults.inject import maybe_hang\n"
            "def _execute(job):\n"
            "    maybe_hang()\n"
        )
        diags = lint_sources(
            {"faults/inject.py": faults, "experiments/parallel.py": entry},
            rules=[worker_rule()],
        )
        assert diags == []

    def test_callee_site_suppression(self):
        src = (
            "import time\n"
            "def _execute(job):\n"
            "    return time.time()  # repro: allow[RPR008]\n"
        )
        diags = lint_sources({"experiments/parallel.py": src}, rules=[worker_rule()])
        assert diags == []

    def test_call_site_suppression_prunes_the_subtree(self):
        # The nondeterministic line itself carries no allow marker; only the
        # call edge into the helper is suppressed.
        helper = "import time\ndef stamp():\n    return time.time()\n"
        entry = (
            "from repro.workloads.clock import stamp\n"
            "def _execute(job):\n"
            "    return stamp()  # repro: allow[RPR008]\n"
        )
        diags = lint_sources(
            {"workloads/clock.py": helper, "experiments/parallel.py": entry},
            rules=[worker_rule()],
        )
        assert diags == []


# --------------------------------------------------------------------------
# RPR009 — manifest liveness and hot-callee coverage

FAKE_MANIFEST = (
    'HOT = {\n'
    '    "cache/c.py": ("Cache.access", "Cache.gone"),\n'
    '    "gone/mod.py": ("f",),\n'
    '}\n'
)

CACHE_WITH_EVICT = (
    "class Cache:\n"
    "    def access(self, req):\n"
    "        self._evict(req)\n"
    "    def _evict(self, req):\n"
    "        self.stats.evictions += 1\n"
)


def liveness_rule(hot, names=frozenset()):
    return ManifestLivenessRule(
        hot_functions=hot,
        hot_names=names,
        exempt_prefixes=(),
        exempt_qual_prefixes=(),
        manifest_relkey="lint/manifest.py",
        worker_entry_points={},
    )


class TestRPR009ManifestLiveness:
    def test_unresolved_entries_are_hard_errors_at_manifest_lines(self):
        hot = {
            "cache/c.py": frozenset({"Cache.access", "Cache.gone"}),
            "gone/mod.py": frozenset({"f"}),
        }
        diags = lint_sources(
            {"lint/manifest.py": FAKE_MANIFEST, "cache/c.py": CACHE_WITH_EVICT},
            rules=[liveness_rule(hot)],
        )
        unresolved = [d for d in diags if "does not resolve" in d.message]
        missing_mod = [d for d in diags if "not in the linted tree" in d.message]
        assert len(unresolved) == 1 and "Cache.gone" in unresolved[0].message
        assert len(missing_mod) == 1 and "gone/mod.py" in missing_mod[0].message
        # Anchored at the manifest lines naming the entries.
        assert unresolved[0].relkey == "lint/manifest.py"
        assert unresolved[0].line == 2
        assert missing_mod[0].line == 3

    def test_missing_manifest_class_is_flagged(self):
        hot = {"cache/c.py": frozenset({"Cache.access"})}
        diags = lint_sources(
            {"lint/manifest.py": 'X = "GhostLine"\n', "cache/c.py": SPEC_CACHE},
            rules=[liveness_rule(hot, names=frozenset({"GhostLine"}))],
        )
        assert codes(diags) == ["RPR009"]
        assert "GhostLine" in diags[0].message

    def test_effectful_hot_callee_missing_from_manifest(self):
        hot = {"cache/c.py": frozenset({"Cache.access"})}
        diags = lint_sources(
            {"lint/manifest.py": "HOT = {}\n", "cache/c.py": CACHE_WITH_EVICT},
            rules=[liveness_rule(hot)],
        )
        assert codes(diags) == ["RPR009"]
        assert "Cache._evict" in diags[0].message
        assert diags[0].line == 4  # the def line

    def test_hot_marker_satisfies_coverage(self):
        src = CACHE_WITH_EVICT.replace(
            "    def _evict(self, req):\n",
            "    # repro: hot\n    def _evict(self, req):\n",
        )
        hot = {"cache/c.py": frozenset({"Cache.access"})}
        diags = lint_sources(
            {"lint/manifest.py": "HOT = {}\n", "cache/c.py": src},
            rules=[liveness_rule(hot)],
        )
        assert diags == []

    def test_def_site_allow_suppresses_coverage(self):
        src = CACHE_WITH_EVICT.replace(
            "    def _evict(self, req):\n",
            "    def _evict(self, req):  # repro: allow[RPR009]\n",
        )
        hot = {"cache/c.py": frozenset({"Cache.access"})}
        diags = lint_sources(
            {"lint/manifest.py": "HOT = {}\n", "cache/c.py": src},
            rules=[liveness_rule(hot)],
        )
        assert diags == []

    def test_rule_is_inert_without_the_manifest_module(self):
        hot = {"gone/mod.py": frozenset({"f"})}
        diags = lint_sources(
            {"cache/c.py": CACHE_WITH_EVICT}, rules=[liveness_rule(hot)]
        )
        assert diags == []


# --------------------------------------------------------------------------
# Drift canary: the analyzer itself is regression-gated


class TestDriftCanary:
    def test_removed_kernel_effect_trips_rpr007(self, tmp_path):
        tree = tmp_path / "repro"
        shutil.copytree(REPRO_ROOT, tree)
        target = tree / "kernel" / "batched.py"
        needle = "l1i_stats.evictions += evict_n"
        source = target.read_text()
        assert needle in source, "canary needle vanished; pick a new kernel effect"
        patched = []
        for line in source.splitlines(keepends=True):
            if needle in line:
                indent = line[: len(line) - len(line.lstrip())]
                patched.append(f"{indent}pass  # canary: effect removed\n")
            else:
                patched.append(line)
        target.write_text("".join(patched))
        diags = lint_paths([str(tree)])
        assert "RPR007" in codes(diags)
        drift = [d for d in diags if d.code == "RPR007"]
        assert any("stats:evictions" in d.message for d in drift)
        # The report names the spec-side witness and the call path to it.
        assert any("SetAssociativeCache._fill" in d.message for d in drift)
