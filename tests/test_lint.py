"""repro.lint: each rule flags its fixture, passes its clean twin, and the
real tree is violation-free."""

from pathlib import Path

from repro.lint import lint_paths, lint_sources, render
from repro.lint.__main__ import main
from repro.lint.context import relkey_for

REPRO_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def codes(diags):
    return [d.code for d in diags]


class TestRelkey:
    def test_inside_repro_package(self):
        assert relkey_for("/root/repo/src/repro/cache/cache.py") == "cache/cache.py"

    def test_innermost_repro_wins(self):
        assert relkey_for("/repro/old/src/repro/tlb/tlb.py") == "tlb/tlb.py"

    def test_outside_repro_falls_back_to_basename(self):
        assert relkey_for("/tmp/scratch/foo.py") == "foo.py"


class TestRPR001Allocations:
    def test_manifest_hot_function_flags_allocations(self):
        src = (
            "class SetAssociativeCache:\n"
            "    def access(self, req):\n"
            "        a = {'k': 1}\n"
            "        b = [x for x in range(3)]\n"
            "        c = f'{a}'\n"
            "        d = CacheLine()\n"
            "        e = lambda: 1\n"
            "        f = list(b)\n"
        )
        diags = lint_sources({"cache/cache.py": src})
        assert codes(diags).count("RPR001") == 6

    def test_clean_hot_function_passes(self):
        src = (
            "class TLB:\n"
            "    def lookup(self, vaddr, access_type):\n"
            "        way = self._key_maps[0].get(vaddr)\n"
            "        self.stats.hits += 1\n"
            "        return way\n"
        )
        assert lint_sources({"tlb/tlb.py": src}) == []

    def test_raise_and_assert_subtrees_are_exempt(self):
        src = (
            "class RecencyStack:\n"
            "    __slots__ = ('_next',)\n"
            "    def touch(self, way):\n"
            "        if way not in self._next:\n"
            "            raise ValueError(f'way {way} missing', (way, self))\n"
            "        assert way >= 0, (f'bad {way}', way)\n"
        )
        assert lint_sources({"common/recency.py": src}) == []

    def test_tuple_display_is_flagged(self):
        # A per-access key tuple allocates as the list [set_index, tag] does.
        src = (
            "class SetAssociativeCache:\n"
            "    def access(self, req):\n"
            "        set_index, tag = self._split(req.address)\n"
            "        _key = (set_index, tag)\n"
            "        return self._stats[req.kind, tag]\n"
        )
        diags = lint_sources({"cache/cache.py": src})
        assert [(d.code, d.line) for d in diags] == [("RPR001", 4), ("RPR001", 5)]
        assert "tuple display" in diags[0].message

    def test_constant_tuples_targets_and_annotations_pass(self):
        src = (
            "from typing import Union\n"
            "class BatchedEngine:\n"
            "    __slots__ = ('_pair', '_pairs')\n"
            "    def _run_block(self, limit: Union[int, float], end: int) -> Union[int, float]:\n"
            "        a, b = self._pair\n"
            "        n: Union[int, float] = 0\n"
            "        for x, y in self._pairs:\n"
            "            n += x in (1, 2, (3, 4))\n"
            "        return n\n"
        )
        assert lint_sources({"kernel/batched.py": src}) == []

    def test_cold_function_in_hot_module_is_ignored(self):
        src = (
            "class TLB:\n"
            "    def occupancy(self):\n"
            "        return sum(len(m) for m in self._key_maps)\n"
        )
        assert lint_sources({"tlb/tlb.py": src}) == []

    def test_suppression_on_line_and_line_above(self):
        src = (
            "class DRAM:\n"
            "    def access(self, req):\n"
            "        a = Result()  # repro: allow[RPR001]\n"
            "        # repro: allow[RPR001]\n"
            "        b = Result()\n"
            "        c = Result()\n"
        )
        diags = lint_sources({"mem/dram.py": src})
        assert [(d.code, d.line) for d in diags] == [("RPR001", 6)]


class TestRPR002Slots:
    def test_unslotted_hot_class_is_flagged(self):
        src = "class CacheLine:\n    def __init__(self):\n        self.valid = False\n"
        diags = lint_sources({"cache/line.py": src})
        assert codes(diags) == ["RPR002"]

    def test_slots_declaration_passes(self):
        src = "class CacheLine:\n    __slots__ = ('valid',)\n"
        assert lint_sources({"cache/line.py": src}) == []

    def test_dataclass_slots_true_passes(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(slots=True)\n"
            "class MemoryRequest:\n"
            "    address: int = 0\n"
        )
        assert lint_sources({"common/types.py": src}) == []

    def test_dataclass_without_slots_is_flagged(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class TLBEntry:\n"
            "    vpn: int = 0\n"
        )
        assert codes(lint_sources({"tlb/entry.py": src})) == ["RPR002"]

    def test_namedtuple_is_exempt(self):
        src = (
            "from typing import NamedTuple\n"
            "class AccessResult(NamedTuple):\n"
            "    latency: int\n"
        )
        assert lint_sources({"common/types.py": src}) == []

    def test_non_hot_class_is_ignored(self):
        src = "class ScratchThing:\n    pass\n"
        assert lint_sources({"cache/line.py": src}) == []


class TestRPR003EnumComparison:
    def test_direct_member_eq_is_flagged(self):
        src = "def f(t):\n    return t == AccessType.DATA\n"
        diags = lint_sources({"tlb/hierarchy.py": src})
        assert codes(diags) == ["RPR003"]
        assert "'is'" in diags[0].message

    def test_noteq_suggests_is_not(self):
        src = "def f(t):\n    return t != RequestType.LOAD\n"
        diags = lint_sources({"cache/cache.py": src})
        assert "'is not'" in diags[0].message

    def test_module_alias_is_recognised(self):
        src = (
            "_DATA = AccessType.DATA\n"
            "def f(t):\n"
            "    return t == _DATA\n"
        )
        assert codes(lint_sources({"mem/dram.py": src})) == ["RPR003"]

    def test_identity_comparison_passes(self):
        src = (
            "_DATA = AccessType.DATA\n"
            "def f(t):\n"
            "    return t is _DATA or t is AccessType.INSTRUCTION\n"
        )
        assert lint_sources({"mem/dram.py": src}) == []

    def test_plain_comparisons_pass(self):
        src = "def f(a, b):\n    return a == b or a != 0\n"
        assert lint_sources({"cache/cache.py": src}) == []

    def test_cold_modules_are_out_of_scope(self):
        src = "def f(t):\n    return t == AccessType.DATA\n"
        assert lint_sources({"experiments/foo.py": src}) == []


class TestRPR004StatsReset:
    def test_undeclared_counter_is_flagged(self):
        src = (
            "class TLB:\n"
            "    def record(self):\n"
            "        self.stats.bogus_counter += 1\n"
        )
        diags = lint_sources({"tlb/tlb.py": src})
        assert codes(diags) == ["RPR004"]
        assert "not declared" in diags[0].message

    def test_declared_and_reset_counter_passes(self):
        src = (
            "class TLB:\n"
            "    def record(self):\n"
            "        self.stats.misses += 1\n"
            "        stats = self.stats\n"
            "        stats.cat_misses['d'] += 1\n"
            "        stats.front_stall_cycles += 2\n"
        )
        assert lint_sources({"tlb/tlb.py": src}) == []

    def test_stats_bearing_class_without_reset_is_flagged(self):
        src = (
            "class DRAM:\n"
            "    def __init__(self):\n"
            "        self.row_hits = 0\n"
        )
        diags = lint_sources({"mem/dram.py": src})
        assert codes(diags) == ["RPR004"]
        assert "no reset_stats" in diags[0].message

    def test_counter_missing_from_reset_is_flagged(self):
        src = (
            "class DRAM:\n"
            "    def __init__(self):\n"
            "        self.row_hits = 0\n"
            "        self.row_misses = 0\n"
            "    def reset_stats(self):\n"
            "        self.row_hits = 0\n"
        )
        diags = lint_sources({"mem/dram.py": src})
        assert [(d.code, "row_misses" in d.message) for d in diags] == [("RPR004", True)]

    def test_private_state_and_nonzero_attrs_are_ignored(self):
        src = (
            "class DRAM:\n"
            "    def __init__(self, cfg):\n"
            "        self._window = 0\n"
            "        self.latency = cfg.latency\n"
            "        self.enabled = True\n"
        )
        assert lint_sources({"mem/dram.py": src}) == []

    def test_state_counter_opt_out_via_allow(self):
        src = (
            "class MMU:\n"
            "    def __init__(self):\n"
            "        self.window_events = 0  # repro: allow[RPR004]\n"
            "    def reset_stats(self):\n"
            "        pass\n"
        )
        assert lint_sources({"tlb/hierarchy.py": src}) == []


class TestRPR005ParamsImmutability:
    def test_write_through_config_is_flagged(self):
        src = (
            "class Sim:\n"
            "    def tweak(self):\n"
            "        self.config.stlb.latency = 20\n"
        )
        diags = lint_sources({"core/simulator.py": src})
        assert codes(diags) == ["RPR005"]

    def test_table1_root_write_is_flagged(self):
        src = "from repro.common.params import TABLE1\nTABLE1.stlb = None\n"
        assert codes(lint_sources({"experiments/foo.py": src})) == ["RPR005"]

    def test_setattr_on_config_is_flagged(self):
        src = "def f(cfg):\n    object.__setattr__(cfg.config, 'latency', 1)\n"
        assert codes(lint_sources({"core/system.py": src})) == ["RPR005"]

    def test_rebinding_config_attribute_is_fine(self):
        src = (
            "class Sim:\n"
            "    def __init__(self, config):\n"
            "        self.config = config\n"
        )
        assert lint_sources({"core/simulator.py": src}) == []

    def test_params_module_itself_is_exempt(self):
        src = "def _build():\n    TABLE1.stlb = 1\n"
        assert lint_sources({"common/params.py": src}) == []


class TestRPR006TopologyConstruction:
    def test_direct_construction_is_flagged(self):
        src = (
            "def wire(config, stats):\n"
            "    l2c = SetAssociativeCache(config.l2c, pol, nxt, stats, None)\n"
            "    itlb = tlb_module.TLB(config.itlb, pol, stats)\n"
            "    mem = DRAM(config.dram, stats)\n"
        )
        diags = lint_sources({"core/system.py": src})
        assert codes(diags) == ["RPR006", "RPR006", "RPR006"]

    def test_topology_package_is_the_sanctioned_layer(self):
        src = (
            "def build_cache(node, config, next_level, stats):\n"
            "    return SetAssociativeCache(node.config, pol, next_level, stats, None)\n"
        )
        assert lint_sources({"topology/structures.py": src}) == []

    def test_suppression_comment_is_honoured(self):
        src = (
            "def fixture(stats):\n"
            "    return TLB(cfg, pol, stats)  # repro: allow[RPR006]\n"
        )
        assert lint_sources({"tlb/fixtures.py": src}) == []

    def test_unrelated_calls_pass(self):
        src = "def f(spec):\n    return build(spec, config)\n"
        assert lint_sources({"core/system.py": src}) == []


class TestRunnerAndCLI:
    def test_syntax_error_becomes_rpr000(self):
        diags = lint_sources({"cache/broken.py": "def f(:\n"})
        assert codes(diags) == ["RPR000"]

    def test_render_text_and_github(self):
        diags = lint_sources({"cache/line.py": "class CacheLine:\n    pass\n"})
        (text,) = render(diags, "text")
        assert text.startswith("cache/line.py:1:")
        assert " RPR002 " in text
        (gh,) = render(diags, "github")
        assert gh.startswith("::error file=cache/line.py,line=1,")
        assert "endLine=" in gh and "col=" in gh and "title=RPR002::" in gh

    def test_cli_clean_tree_exits_zero(self, capsys):
        assert main([str(REPRO_ROOT)]) == 0
        assert capsys.readouterr().out == ""

    def test_cli_findings_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "cache"
        bad.mkdir(parents=True)
        (bad / "line.py").write_text("class CacheLine:\n    pass\n")
        assert main([str(tmp_path), "--format=github"]) == 1
        out = capsys.readouterr()
        assert "::error" in out.out and "RPR002" in out.out

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR006",
        ):
            assert code in out
        assert "RPR007" not in out and "RPR008" not in out and "RPR009" not in out


class TestTreeIsViolationFree:
    def test_full_repro_tree_passes_every_rule(self):
        diags = lint_paths([str(REPRO_ROOT)])
        assert diags == [], "\n".join(render(diags))
