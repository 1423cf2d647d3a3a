"""The declarative topology layer: spec serialization, validation, builder
bit-identity with the legacy wiring, presets, suites and cache keying."""

import dataclasses

import pytest

from repro.common.params import scaled_config
from repro.core.multicore import simulate_multicore
from repro.core.simulator import Session, simulate
from repro.core.system import System
from repro.experiments.runner import POLICY_MATRIX, config_for
from repro.fabric import job_key, single
from repro.topology import (
    SUITES,
    TopologyError,
    TopologySpec,
    from_system_config,
    make_topology,
    node,
    resolve_topology,
    suite_for,
)
from repro.workloads.server import ServerWorkload

WARMUP = 2_000
MEASURE = 8_000


def workload(seed=3, name="w"):
    return ServerWorkload(name, seed=seed)


def table1_spec(config=None):
    return from_system_config(config or scaled_config())


# --------------------------------------------------------------------- #
# Spec serialization and hashing
# --------------------------------------------------------------------- #


class TestSpecSerialization:
    def test_round_trip_preserves_spec(self):
        spec = table1_spec()
        assert TopologySpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_all_presets(self):
        config = scaled_config()
        for name in ("table1", "split-stlb", "no-llc", "multicore-2", "shared-l2-3"):
            spec = make_topology(name, config)
            clone = TopologySpec.from_dict(spec.to_dict())
            assert clone == spec
            assert clone.content_hash() == spec.content_hash()

    def test_hash_stable_across_round_trip(self):
        spec = table1_spec()
        assert TopologySpec.from_dict(spec.to_dict()).content_hash() == spec.content_hash()

    def test_hash_ignores_node_order_and_label(self):
        spec = table1_spec()
        shuffled = TopologySpec(name="renamed", nodes=tuple(reversed(spec.nodes)))
        assert shuffled.content_hash() == spec.content_hash()

    def test_hash_covers_node_content(self):
        spec = table1_spec()
        nodes = list(spec.nodes)
        for i, n in enumerate(nodes):
            if n.name == "stlb":
                nodes[i] = dataclasses.replace(n, policy="itp")
        changed = TopologySpec(name=spec.name, nodes=tuple(nodes))
        assert changed.content_hash() != spec.content_hash()

    def test_hash_covers_edges(self):
        spec = make_topology("no-llc", scaled_config())
        assert spec.content_hash() != table1_spec().content_hash()


# --------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------- #


def _valid_nodes(config):
    return {n.name: n for n in table1_spec(config).nodes}


class TestValidation:
    def test_table1_validates(self):
        table1_spec().validate()

    def test_cycle_detected(self):
        config = scaled_config()
        nodes = _valid_nodes(config)
        nodes["l2c"] = dataclasses.replace(nodes["l2c"], next_level="l1d")
        spec = TopologySpec(name="cyclic", nodes=tuple(nodes.values()))
        with pytest.raises(TopologyError, match="cycle"):
            spec.validate()

    def test_exactly_one_dram(self):
        config = scaled_config()
        nodes = list(table1_spec(config).nodes)
        nodes.append(node("dram2", "dram", config=config.dram))
        with pytest.raises(TopologyError, match="exactly one DRAM"):
            TopologySpec(name="two-sinks", nodes=tuple(nodes)).validate()

    def test_dangling_edge(self):
        config = scaled_config()
        nodes = _valid_nodes(config)
        nodes["llc"] = dataclasses.replace(nodes["llc"], next_level="nowhere")
        with pytest.raises(TopologyError, match="missing node 'nowhere'"):
            TopologySpec(name="dangling", nodes=tuple(nodes.values())).validate()

    def test_missing_core_link(self):
        config = scaled_config()
        nodes = _valid_nodes(config)
        core = nodes["core0"]
        nodes["core0"] = dataclasses.replace(
            core, links=tuple(kv for kv in core.links if kv[0] != "stlb")
        )
        with pytest.raises(TopologyError, match="missing the 'stlb' link"):
            TopologySpec(name="no-stlb", nodes=tuple(nodes.values())).validate()

    def test_edge_kind_mismatch(self):
        config = scaled_config()
        nodes = _valid_nodes(config)
        nodes["walker"] = dataclasses.replace(nodes["walker"], next_level="dram")
        with pytest.raises(TopologyError, match="expected cache"):
            TopologySpec(name="walker-to-dram", nodes=tuple(nodes.values())).validate()

    def test_duplicate_names(self):
        spec = table1_spec()
        with pytest.raises(TopologyError, match="duplicate node names"):
            TopologySpec(name="dup", nodes=spec.nodes + (spec.nodes[-1],)).validate()

    def test_unknown_preset_lists_available(self):
        with pytest.raises(TopologyError, match="available presets: table1"):
            make_topology("bogus", scaled_config())

    def test_bad_core_count(self):
        with pytest.raises(TopologyError, match="bad core count"):
            make_topology("multicore-0", scaled_config())

    def test_session_rejects_smt_on_multicore_spec(self):
        with pytest.raises(ValueError, match="SMT threads share one core"):
            Session(scaled_config(), [workload(), workload()], "multicore-2",
                    overlap_residual=0.25)

    def test_multicore_rejects_core_count_mismatch(self):
        with pytest.raises(ValueError, match="2 cores but 1 workloads"):
            Session(scaled_config(), [workload()], topology="multicore-2")


# --------------------------------------------------------------------- #
# Builder bit-identity: the default, the preset name and the explicit
# spec must be the same machine down to every counter.
# --------------------------------------------------------------------- #


class TestBuilderBitIdentity:
    def test_default_preset_and_explicit_spec_agree(self):
        config = config_for("itp+xptp")
        baseline = simulate(config, workload(), WARMUP, MEASURE)
        for topology in ("table1", from_system_config(config)):
            rerun = simulate(config, workload(), WARMUP, MEASURE, topology=topology)
            assert rerun.metrics == baseline.metrics

    def test_resolve_topology_none_is_table1(self):
        config = scaled_config()
        assert (
            resolve_topology(None, config).content_hash()
            == resolve_topology("table1", config).content_hash()
        )


class TestRealizationOrder:
    """The builder realizes DRAM, then each cache after the levels below it,
    in spec order; metric reports list levels in that order.  The lists
    were recorded from the recursive builder this one replaced."""

    TLBS = ["ITLB", "DTLB", "STLB"]
    EXPECTED = {
        "table1": ["llc", "l2c", "l1i", "l1d"],
        "split-stlb": ["llc", "l2c", "l1i", "l1d"],
        "no-llc": ["l2c", "l1i", "l1d"],
        "multicore-2": ["llc", "l2c_0", "l1i_0", "l1d_0", "l2c_1", "l1i_1", "l1d_1"],
        "shared-l2": ["llc", "l2c", "l1i_0", "l1d_0", "l1i_1", "l1d_1"],
    }

    @pytest.mark.parametrize("preset", sorted(EXPECTED))
    def test_preset_order(self, preset):
        config = scaled_config()
        built = System(config, topology=preset)
        caches = self.EXPECTED[preset]
        assert list(built.caches) == caches
        assert list(built.stats.levels) == (
            ["DRAM"] + [name.upper() for name in caches] + self.TLBS
        )

    def test_top_down_spec_order_builds_dependencies_first(self):
        config = scaled_config()
        spec = table1_spec(config)
        reversed_spec = dataclasses.replace(spec, nodes=tuple(reversed(spec.nodes)))
        built = System(config, topology=reversed_spec)
        assert list(built.caches) == ["llc", "l2c", "l1d", "l1i"]
        assert list(built.stats.levels) == ["DRAM", "LLC", "L2C", "L1D", "L1I"] + self.TLBS


# --------------------------------------------------------------------- #
# Preset smoke runs
# --------------------------------------------------------------------- #


class TestPresetSmoke:
    def test_split_stlb_splits_the_mmu(self):
        system = System(scaled_config(), topology="split-stlb")
        assert system.mmu.split
        result = simulate(
            scaled_config(), workload(), WARMUP, MEASURE, topology="split-stlb"
        )
        assert result.ipc > 0
        assert result.get("stlb.mpki") >= 0

    def test_no_llc_drops_the_llc(self):
        system = System(scaled_config(), topology="no-llc")
        assert system.llc is None
        result = simulate(scaled_config(), workload(), WARMUP, MEASURE, topology="no-llc")
        assert result.ipc > 0

    def test_multicore_2_end_to_end(self):
        result = simulate_multicore(
            scaled_config(),
            [workload(seed=3, name="a"), workload(seed=4, name="b")],
            WARMUP,
            MEASURE,
            topology="multicore-2",
        )
        assert result.workload == "a+b"
        assert result.ipc > 0

    def test_shared_l2_shares_one_cache(self):
        system = System(scaled_config(), topology="shared-l2")
        assert system.cores[0].l2c is system.cores[1].l2c
        assert system.cores[0].l1d is not system.cores[1].l1d

    def test_multicore_private_l2s(self):
        system = System(scaled_config(), topology="multicore-2")
        assert system.cores[0].l2c is not system.cores[1].l2c
        assert system.cores[0].llc is system.cores[1].llc


# --------------------------------------------------------------------- #
# Cache keying
# --------------------------------------------------------------------- #


class TestJobKeyTopology:
    def test_none_aliases_table1(self):
        config = scaled_config()
        wl = workload()
        default = job_key(single(config, wl, WARMUP, MEASURE))
        named = job_key(single(config, wl, WARMUP, MEASURE, topology="table1"))
        explicit = job_key(
            single(config, wl, WARMUP, MEASURE, topology=from_system_config(config))
        )
        assert default == named == explicit

    def test_topology_separates_cache_entries(self):
        config = scaled_config()
        wl = workload()
        keys = {
            job_key(single(config, wl, WARMUP, MEASURE, topology=name))
            for name in (None, "split-stlb", "no-llc")
        }
        assert len(keys) == 3


# --------------------------------------------------------------------- #
# Policy suites as the single source of truth
# --------------------------------------------------------------------- #


class TestPolicySuites:
    def test_policy_matrix_derives_from_suites(self):
        assert list(POLICY_MATRIX) == list(SUITES)
        for name, policies in POLICY_MATRIX.items():
            assert policies == suite_for(name).policies()

    def test_config_for_applies_the_suite(self):
        config = config_for("itp+xptp")
        assert config.stlb_policy == "itp"
        assert config.l2c_policy == "xptp"
        assert config_for("lru") == scaled_config()

    def test_unknown_technique_lists_suites(self):
        with pytest.raises(ValueError, match="unknown technique 'belady'; available: lru"):
            config_for("belady")

    def test_summary(self):
        assert suite_for("lru").summary() == "all-LRU baseline"
        assert "stlb=itp" in suite_for("itp+xptp").summary()
