"""REPRO_CHECK=1 runtime invariant checking.

The checkers must (a) stay completely out of the way by default, (b) catch
a corrupted recency stack, a leaked MSHR entry and tampered MSHR Type bits
at the exact operation that broke the invariant, and (c) let a real
simulation run clean end to end.
"""

import pytest

from repro.cache.mshr import CheckedMSHRFile, MSHRFile, make_mshr_file
from repro.common.invariants import (
    CheckedRecencyStack,
    InvariantViolation,
    check_no_leaked_mshr_entries,
    enabled,
    stack_factory,
)
from repro.common.params import scaled_config
from repro.common.recency import NaiveRecencyStack, RecencyStack
from repro.common.types import AccessType, RequestType
from repro.core.simulator import simulate
from repro.core.system import System
from repro.workloads.server import ServerWorkload


@pytest.fixture
def checks_on(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")


@pytest.fixture
def checks_off(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)


class TestEnabledFlag:
    def test_default_off(self, checks_off):
        assert not enabled()

    @pytest.mark.parametrize("value", ["0", "", "false", "no", "off", "  0  "])
    def test_falsey_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECK", value)
        assert not enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECK", value)
        assert enabled()


class TestFactories:
    def test_production_classes_by_default(self, checks_off):
        assert stack_factory(RecencyStack) is RecencyStack
        assert type(make_mshr_file(4)) is MSHRFile

    def test_checked_classes_under_repro_check(self, checks_on):
        assert stack_factory(RecencyStack) is CheckedRecencyStack
        assert type(make_mshr_file(4)) is CheckedMSHRFile

    def test_naive_stack_is_never_wrapped(self, checks_on):
        # The golden bit-identity test swaps in NaiveRecencyStack; there is
        # nothing to check it against, so it must pass through untouched.
        assert stack_factory(NaiveRecencyStack) is NaiveRecencyStack


class TestCheckedRecencyStack:
    def test_mirrors_production_api(self):
        stack = CheckedRecencyStack()
        for way in (0, 1, 2):
            stack.place_at_depth(way, 0)
        stack.touch(1)          # [1, 2, 0] MRU→LRU
        stack.place_above_lru(0, 1)
        assert stack.order() == [1, 0, 2]
        assert len(stack) == 3
        assert 2 in stack
        assert stack.mru_way == 1
        assert list(stack.ways_from_lru())[0] == stack.lru_way
        assert list(stack) == [1, 0, 2]
        stack.remove(2)
        stack.discard(2)  # discard of absent way is a no-op
        assert stack.depth_from_mru(stack.mru_way) == 0
        assert stack.height_from_lru(stack.lru_way) == 0

    def test_catches_corruption_at_the_breaking_op(self):
        stack = CheckedRecencyStack()
        for way in (0, 1, 2):
            stack.place_at_depth(way, 0)
        # Tamper with the fast stack behind the checker's back: the next
        # mutation through the checker must detect the divergence.
        stack._fast.touch(0)
        with pytest.raises(InvariantViolation, match="diverged after touch"):
            stack.touch(2)


class TestCheckedMSHRFile:
    def test_clean_lifecycle_passes(self, checks_on):
        mshrs = make_mshr_file(4)
        mshrs.allocate(0x40, RequestType.PTW, is_pte=True,
                       translation_type=AccessType.INSTRUCTION)
        # Merge strengthening: data upgrades the instruction Type bit.
        entry = mshrs.allocate(0x40, RequestType.PTW, is_pte=True,
                               translation_type=AccessType.DATA)
        assert entry.translation_type is AccessType.DATA
        released = mshrs.release(0x40)
        assert released is not None and released.is_pte
        assert len(mshrs) == 0

    def test_structural_hazard_resyncs_shadow(self, checks_on):
        mshrs = make_mshr_file(2)
        mshrs.allocate(0x40, RequestType.LOAD)
        mshrs.allocate(0x80, RequestType.LOAD)
        mshrs.allocate(0xC0, RequestType.LOAD)  # retires oldest (0x40)
        assert mshrs.lookup(0x40) is None
        assert mshrs.release(0x80) is not None
        assert mshrs.release(0xC0) is not None

    def test_tampered_type_bits_caught_at_release(self, checks_on):
        mshrs = make_mshr_file(4)
        entry = mshrs.allocate(0x40, RequestType.PTW, is_pte=True,
                               translation_type=AccessType.DATA)
        entry.is_pte = False  # simulate the Figure 7 dataflow breaking
        with pytest.raises(InvariantViolation, match="corrupted at release"):
            mshrs.release(0x40)

    def test_tampered_type_bits_caught_at_merge(self, checks_on):
        mshrs = make_mshr_file(4)
        entry = mshrs.allocate(0x40, RequestType.PTW, is_pte=True,
                               translation_type=AccessType.DATA)
        entry.translation_type = AccessType.INSTRUCTION
        with pytest.raises(InvariantViolation, match="corrupted before merge"):
            mshrs.allocate(0x40, RequestType.PTW, is_pte=True,
                           translation_type=AccessType.DATA)

    def test_plain_mshr_file_does_not_check(self, checks_off):
        mshrs = make_mshr_file(4)
        entry = mshrs.allocate(0x40, RequestType.PTW, is_pte=True,
                               translation_type=AccessType.DATA)
        entry.is_pte = False
        assert mshrs.release(0x40) is not None  # no verification by design


class TestLeakedMSHREntries:
    def test_leak_detected_at_reset(self, checks_on):
        system = System(scaled_config())
        system.l1d.mshrs.allocate(0x1000, RequestType.LOAD)
        with pytest.raises(InvariantViolation, match="L1D MSHR file holds 1"):
            system.reset_stats()

    def test_clean_system_resets_fine(self, checks_on):
        system = System(scaled_config())
        system.reset_stats()

    def test_checker_is_skipped_by_default(self, checks_off):
        system = System(scaled_config())
        system.l1d.mshrs.allocate(0x1000, RequestType.LOAD)
        system.reset_stats()  # no checking without REPRO_CHECK=1

    def test_direct_call_reports_stlb_file(self, checks_on):
        system = System(scaled_config())
        system.mmu.stlb_mshrs.allocate(0x2, RequestType.PTW, is_pte=True,
                                       translation_type=AccessType.DATA)
        with pytest.raises(InvariantViolation, match="STLB"):
            check_no_leaked_mshr_entries(system)


@pytest.mark.repro_check
class TestMulticoreLeakedMSHREntries:
    def test_leak_in_second_core_stlb_detected_at_reset(self, checks_on):
        system = System(scaled_config(), topology="multicore-2")
        system.cores[1].mmu.stlb_mshrs.allocate(
            0x2, RequestType.PTW, is_pte=True, translation_type=AccessType.DATA
        )
        with pytest.raises(InvariantViolation, match="core_1 STLB MSHR file holds 1"):
            system.reset_stats()

    def test_clean_multicore_system_resets_fine(self, checks_on):
        System(scaled_config(), topology="multicore-2").reset_stats()


@pytest.mark.repro_check
class TestEndToEndSmoke:
    def test_simulation_runs_clean_under_repro_check(self, checks_on):
        wl = ServerWorkload("check-smoke", 7, code_pages=64, data_pages=800,
                            hot_data_pages=32, warm_pages=200, local_pages=8)
        cfg = scaled_config().with_policies(stlb="itp", l2c="xptp")
        result = simulate(cfg, wl, warmup_instructions=2_000,
                          measure_instructions=6_000)
        assert result.metrics["instructions"] > 0

    def test_checked_structures_are_actually_installed(self, checks_on):
        system = System(scaled_config())
        assert type(system.l1d.mshrs) is CheckedMSHRFile
        assert type(system.l2c.policy.stacks[0]) is CheckedRecencyStack
