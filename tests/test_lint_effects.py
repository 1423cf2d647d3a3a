"""Whole-program effect analysis: the callgraph/effects layer and RPR009.

Synthetic-module fixtures pin the effect classification RPR009's coverage
direction reads and the positive and negative behaviour of both RPR009
directions (manifest liveness and hot-callee coverage).
"""

from repro.lint import lint_sources
from repro.lint.callgraph import program_for
from repro.lint.context import FileContext
from repro.lint.effects import EffectAnalysis
from repro.lint.rules.manifest_liveness import ManifestLivenessRule


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

    def test_self_attr_rebind_is_not_a_state_write(self):
        # ``self._tm = ...`` rebinds the attribute; it must not expand
        # through the constructor binding into a tag-map write.
        src = (
            "class Engine:\n"
            "    def __init__(self, system):\n"
            "        self._tm = system.l1i._tag_maps\n"
            "    def rebind(self, other):\n"
            "        self._tm = other\n"
        )
        program, analysis, _ = analyze({"kernel/engine.py": src})
        fn = program.functions[("kernel/engine.py", "Engine.rebind")]
        assert analysis.effects_of(fn) == ()


# --------------------------------------------------------------------------
# RPR009 — manifest liveness and hot-callee coverage

FAKE_MANIFEST = (
    'HOT = {\n'
    '    "cache/c.py": ("Cache.access", "Cache.gone"),\n'
    '    "gone/mod.py": ("f",),\n'
    '}\n'
)

CACHE_ACCESS = (
    "class Cache:\n"
    "    def access(self, req):\n"
    "        self.stats.accesses += 1\n"
    "        line = self.lines[0]\n"
    "        line.dirty = True\n"
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
            {"lint/manifest.py": 'X = "GhostLine"\n', "cache/c.py": CACHE_ACCESS},
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
