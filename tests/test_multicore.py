"""Tests for the multi-programmed multicore extension."""

import pytest

from repro.common.params import scaled_config
from repro.core.multicore import simulate_multicore
from repro.core.simulator import simulate
from repro.core.system import System
from repro.workloads.server import ServerWorkload
from repro.workloads.speclike import SpecLikeWorkload


def wl(seed, **kw):
    kw.setdefault("code_pages", 64)
    kw.setdefault("data_pages", 2000)
    kw.setdefault("hot_data_pages", 64)
    kw.setdefault("warm_pages", 500)
    kw.setdefault("local_pages", 16)
    return ServerWorkload(f"mc{seed}", seed, **kw)


class TestWiring:
    def test_private_and_shared_structures(self):
        system = System(scaled_config(), topology="multicore-2")
        assert len(system.cores) == 2
        s0, s1 = system.cores
        assert s0.l2c is not s1.l2c
        assert s0.l1d is not s1.l1d
        assert s0.l2c.next_level is system.llc
        assert s1.l2c.next_level is system.llc
        assert system.llc.next_level is system.dram

    def test_per_core_stats_levels(self):
        system = System(scaled_config(), topology="multicore-2")
        assert "L2C_0" in {s.l2c.stats.name for s in system.cores}
        assert "L2C_1" in {s.l2c.stats.name for s in system.cores}

    def test_requires_workloads(self):
        with pytest.raises(ValueError):
            simulate_multicore(scaled_config(), [])

    def test_adaptive_per_core_with_xptp(self):
        cfg = scaled_config().with_policies(stlb="itp", l2c="xptp")
        system = System(cfg, topology="multicore-2")
        assert all(c.adaptive.active for c in system.cores)


class TestSimulateMulticore:
    def test_runs_and_balances(self):
        result = simulate_multicore(scaled_config(), [wl(1), wl(2)], 4000, 16000)
        assert result.ipc > 0
        per_thread = result.stats.per_thread_instructions
        assert set(per_thread) == {0, 1}
        assert abs(per_thread[0] - per_thread[1]) < 2000

    def test_one_core_matches_simulate_on_multicore_1(self):
        # One machine class: the multicore driver and the single-workload
        # driver report the same metrics for the same one-core machine.
        cfg = scaled_config().with_policies(stlb="itp", l2c="xptp")
        multi = simulate_multicore(cfg, [wl(1)], 3000, 10000)
        single = simulate(cfg, wl(1), 3000, 10000, topology="multicore-1")
        assert multi.metrics == single.metrics
        assert "xptp.protected_evictions_avoided" in multi.metrics

    def test_deterministic(self):
        a = simulate_multicore(scaled_config(), [wl(1), wl(2)], 3000, 10000)
        b = simulate_multicore(scaled_config(), [wl(1), wl(2)], 3000, 10000)
        assert a.metrics == b.metrics

    def test_throughput_scales_with_cores(self):
        single = simulate(scaled_config(), wl(1), 3000, 10000)
        quad = simulate_multicore(
            scaled_config(), [wl(1), wl(2), wl(3), wl(4)], 12000, 40000
        )
        # Four cores with private front ends: aggregate IPC well above 1x,
        # below the contention-free 4x.
        assert quad.ipc > 1.5 * single.ipc
        assert quad.ipc < 4.2 * single.ipc

    def test_shared_llc_contention_visible(self):
        # Co-running with a cache-hungry neighbour raises this core's LLC
        # pressure versus running alone on the same multicore substrate.
        lone = simulate_multicore(scaled_config(), [wl(1)], 4000, 16000)
        pair = simulate_multicore(scaled_config(), [wl(1), wl(9)], 4000, 32000)
        assert pair.stats.level("LLC").mpki(pair.stats.instructions) >= \
            0.9 * lone.stats.level("LLC").mpki(lone.stats.instructions)

    def test_policies_apply_per_core(self):
        cfg = scaled_config().with_policies(stlb="itp", l2c="xptp")
        base = simulate_multicore(scaled_config(), [wl(5), wl(6)], 8000, 30000)
        prop = simulate_multicore(cfg, [wl(5), wl(6)], 8000, 30000)
        assert prop.ipc == pytest.approx(base.ipc, rel=0.5)  # sane band

    def test_mixed_workload_kinds(self):
        spec = SpecLikeWorkload("sp", 3, code_pages=4, data_pages=500, hot_data_pages=64)
        result = simulate_multicore(scaled_config(), [wl(1), spec], 4000, 16000)
        assert result.ipc > 0
        assert "+" in result.workload
