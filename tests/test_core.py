"""Unit tests for the core timing model and System wiring."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.common.params import scaled_config
from repro.common.types import TraceRecord
from repro.core.cpu import Core
from repro.core.system import System
from repro.replacement.tdrrip import TDRRIPPolicy
from repro.replacement.xptp import XPTPPolicy


def make_core(config=None, thread_id=0):
    config = config or scaled_config()
    system = System(config)
    return Core(system, thread_id), system


class TestSystemWiring:
    def test_levels_chained(self):
        _, system = make_core()
        assert system.l1i.next_level is system.l2c
        assert system.l1d.next_level is system.l2c
        assert system.l2c.next_level is system.llc
        assert system.llc.next_level is system.dram
        assert system.walker.memory_level is system.l2c

    def test_policy_selection(self):
        cfg = scaled_config().with_policies(l2c="xptp")
        _, system = make_core(cfg)
        assert isinstance(system.l2c.policy, XPTPPolicy)
        assert system.xptp_policy is system.l2c.policy

    def test_adaptive_wired_only_for_xptp(self):
        _, plain = make_core(scaled_config())
        assert not plain.adaptive.active
        _, with_xptp = make_core(scaled_config().with_policies(l2c="xptp"))
        assert with_xptp.adaptive.active

    def test_tdrrip_at_l2c(self):
        cfg = scaled_config().with_policies(l2c="tdrrip")
        _, system = make_core(cfg)
        assert isinstance(system.l2c.policy, TDRRIPPolicy)


class TestOverlapModel:
    """``Core._data_access``'s exposed-latency arithmetic, with translation
    and the L1D stubbed to fixed latencies (the L1D always hits)."""

    CFG = scaled_config().core

    @staticmethod
    def stall(latency, is_store=False):
        core, system = make_core()
        core._translate = lambda vaddr, kind, thread: SimpleNamespace(
            pfn=0, latency=latency, stlb_miss=False
        )
        core._l1d_access = lambda req: system.config.l1d.latency
        return core._data_access(0x80_0000_0000, 0x40_0000, is_store)

    def test_short_latency_fully_hidden(self):
        assert self.stall(self.CFG.rob_hide_cycles) == 0.0
        assert self.stall(5) == 0.0

    def test_long_latency_partially_exposed(self):
        expected = (120 - self.CFG.rob_hide_cycles) * self.CFG.data_overlap_factor
        assert self.stall(120) == pytest.approx(expected)

    def test_store_scaled_by_store_overlap_scale(self):
        load = self.stall(120)
        assert load > 0.0
        assert self.stall(120, is_store=True) == pytest.approx(
            load * self.CFG.store_overlap_scale
        )


class TestExecute:
    def test_base_cost_only_when_everything_hits(self):
        core, system = make_core()
        record = TraceRecord(pc=0x40_0000, num_instrs=4)
        core.execute(record)  # warm everything
        cycles = core.execute(record)
        assert cycles == pytest.approx(4 * core.cfg.base_cpi)

    def test_cold_fetch_charges_translation_fully(self):
        core, system = make_core()
        record = TraceRecord(pc=0x40_0000, num_instrs=4)
        cold = core.execute(record)
        warm = core.execute(record)
        assert cold > warm + system.config.stlb.latency

    def test_instruction_count_accumulates(self):
        core, system = make_core()
        core.execute(TraceRecord(pc=0x40_0000, num_instrs=4))
        core.execute(TraceRecord(pc=0x40_0040, num_instrs=3))
        assert system.stats.instructions == 7
        assert system.stats.per_thread_instructions[0] == 7

    def test_loads_add_data_stall_when_cold(self):
        core, system = make_core()
        pc = 0x40_0000
        core.execute(TraceRecord(pc=pc, num_instrs=4))  # warm the fetch path
        plain = core.execute(TraceRecord(pc=pc, num_instrs=4))
        with_load = core.execute(
            TraceRecord(pc=pc, num_instrs=4, loads=(0x80_0000_0000,))
        )
        assert with_load > plain

    def test_store_cheaper_than_load(self):
        cfg = scaled_config()
        core_l, _ = make_core(cfg)
        core_s, _ = make_core(cfg)
        pc = 0x40_0000
        addr = 0x80_0000_0000
        core_l.execute(TraceRecord(pc=pc, num_instrs=4))
        core_s.execute(TraceRecord(pc=pc, num_instrs=4))
        load_cost = core_l.execute(TraceRecord(pc=pc, num_instrs=4, loads=(addr,)))
        store_cost = core_s.execute(TraceRecord(pc=pc, num_instrs=4, stores=(addr,)))
        assert store_cost < load_cost

    def test_resteer_penalty_on_instruction_stlb_miss(self):
        base = scaled_config()
        no_resteer = replace(base, core=replace(base.core, fetch_resteer_penalty=0))
        core_a, _ = make_core(base)
        core_b, _ = make_core(no_resteer)
        record = TraceRecord(pc=0x40_0000, num_instrs=4)
        cold_a = core_a.execute(record)
        cold_b = core_b.execute(record)
        assert cold_a == pytest.approx(cold_b + base.core.fetch_resteer_penalty)

    def test_thread_tag_separates_address_spaces(self):
        cfg = scaled_config()
        system = System(cfg)
        core0 = Core(system, 0)
        core1 = Core(system, 1)
        record = TraceRecord(pc=0x40_0000, num_instrs=4)
        core0.execute(record)
        cold1 = core1.execute(record)  # same vaddr, different thread: cold
        warm1 = core1.execute(record)
        assert cold1 > warm1
        assert system.stats.per_thread_instructions == {0: 4, 1: 8}


class TestInOrderCore:
    def test_preset_values(self):
        from repro.common.params import inorder_core

        core = inorder_core()
        assert core.data_overlap_factor == 1.0
        assert core.rob_hide_cycles == 0

    def test_inorder_exposes_data_latency(self):
        from repro.common.params import inorder_core

        ooo = scaled_config()
        ino = replace(ooo, core=inorder_core())
        pc, addr = 0x40_0000, 0x80_0000_0000
        core_o, _ = make_core(ooo)
        core_i, _ = make_core(ino)
        for core in (core_o, core_i):
            core.execute(TraceRecord(pc=pc, num_instrs=4))          # warm fetch
            core.execute(TraceRecord(pc=pc, num_instrs=4, loads=(addr,)))  # warm data
        cost_o = core_o.execute(TraceRecord(pc=pc, num_instrs=4, loads=(addr + 64,)))
        cost_i = core_i.execute(TraceRecord(pc=pc, num_instrs=4, loads=(addr + 64,)))
        # The same L1D-missing load stalls the in-order core far longer.
        assert cost_i > cost_o

    def test_inorder_amplifies_itp_xptp(self):
        from repro.common.params import inorder_core
        from repro.core.simulator import simulate
        from repro.workloads.server import ServerWorkload

        wl = ServerWorkload("ino", 6, code_pages=128, data_pages=4000,
                            hot_data_pages=96, warm_pages=1200, local_pages=32)
        ino = replace(scaled_config(), core=inorder_core())
        base = simulate(ino, wl, 20_000, 60_000)
        prop = simulate(ino.with_policies(stlb="itp", l2c="xptp"), wl, 20_000, 60_000)
        assert prop.ipc > base.ipc
