"""Unit + property tests for the analysis subpackage."""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.belady import belady_min, belady_set_assoc, optimality_gap
from repro.analysis.characterize import characterize, characterize_records
from repro.analysis.stack_distance import StackDistanceAnalyzer
from repro.common.types import TraceRecord


class TestStackDistance:
    def test_cold_misses(self):
        analyzer = StackDistanceAnalyzer()
        profile = analyzer.run([1, 2, 3])
        assert profile.cold_misses == 3
        assert profile.histogram == {}

    def test_immediate_reuse_distance_zero(self):
        analyzer = StackDistanceAnalyzer()
        analyzer.access(1)
        assert analyzer.access(1) == 0

    def test_classic_sequence(self):
        # Access 1,2,3 then 1 again: distance 2 (two distinct keys between).
        analyzer = StackDistanceAnalyzer()
        for key in (1, 2, 3):
            analyzer.access(key)
        assert analyzer.access(1) == 2

    def test_hit_rate_monotone_in_capacity(self):
        rng = random.Random(0)
        keys = [rng.randrange(64) for _ in range(2000)]
        profile = StackDistanceAnalyzer().run(keys)
        rates = [profile.hit_rate(c) for c in (1, 2, 4, 8, 16, 32, 64, 128)]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
        # Capacity >= distinct keys: only cold misses remain.
        assert profile.hits_at_capacity(64) == profile.accesses - profile.cold_misses

    def test_cyclic_scan_has_distance_n_minus_1(self):
        analyzer = StackDistanceAnalyzer()
        for key in [0, 1, 2, 3] * 5:
            analyzer.access(key)
        assert set(analyzer.profile.histogram) == {3}

    def test_miss_curve_shape(self):
        profile = StackDistanceAnalyzer().run([0, 1, 0, 1, 2, 0])
        curve = dict(profile.miss_curve([1, 2, 4]))
        assert curve[1] >= curve[2] >= curve[4]

    def test_mpki_curve_counts_misses_per_kilo_instruction(self):
        # Three cold misses; reuses at distances 1, 1 and 2.
        profile = StackDistanceAnalyzer().run([0, 1, 0, 1, 2, 0])
        assert profile.mpki_curve([1, 2, 4], 2000) == [(1, 3.0), (2, 2.0), (4, 1.5)]


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.integers(0, 15), min_size=1, max_size=300),
       capacity=st.integers(1, 16))
def test_stack_distance_matches_lru_simulation(keys, capacity):
    """hits_at_capacity(C) must equal a directly simulated fully-assoc LRU."""
    profile = StackDistanceAnalyzer().run(keys)
    lru = OrderedDict()
    hits = 0
    for key in keys:
        if key in lru:
            hits += 1
            lru.move_to_end(key)
        else:
            if len(lru) >= capacity:
                lru.popitem(last=False)
            lru[key] = True
    assert profile.hits_at_capacity(capacity) == hits


class TestBelady:
    def test_all_fits(self):
        result = belady_min([1, 2, 1, 2], capacity=2)
        assert result.misses == 2
        assert result.hits == 2

    def test_classic_example(self):
        # Capacity 2; stream 1,2,3,1 — MIN keeps 1 when 3 arrives.
        result = belady_min([1, 2, 3, 1], capacity=2)
        assert result.misses == 3
        assert result.hits == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            belady_min([1], 0)

    def test_min_never_worse_than_lru(self):
        rng = random.Random(7)
        keys = [rng.randrange(32) for _ in range(1500)]
        for capacity in (2, 4, 8, 16):
            lru = OrderedDict()
            lru_misses = 0
            for key in keys:
                if key in lru:
                    lru.move_to_end(key)
                else:
                    lru_misses += 1
                    if len(lru) >= capacity:
                        lru.popitem(last=False)
                    lru[key] = True
            assert belady_min(keys, capacity).misses <= lru_misses

    def test_set_assoc_partitions(self):
        keys = [0, 2, 4, 0, 1, 3, 5, 1]
        result = belady_set_assoc(keys, num_sets=2, associativity=2)
        assert result.accesses == len(keys)

    def test_set_assoc_validation(self):
        with pytest.raises(ValueError):
            belady_set_assoc([1], num_sets=3, associativity=2)

    def test_optimality_gap(self):
        keys = [1, 2, 3, 1, 2, 3]
        optimum = belady_min(keys, 2).misses
        assert optimality_gap(optimum, keys, 2) == 1.0
        assert optimality_gap(optimum + 2, keys, 2) > 1.0


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(st.integers(0, 9), min_size=1, max_size=120),
       capacity=st.integers(1, 10))
def test_belady_bounds(keys, capacity):
    result = belady_min(keys, capacity)
    distinct = len(set(keys))
    assert result.misses >= min(distinct, len(keys)) - max(0, distinct - max(distinct, 1))
    assert result.misses >= distinct if distinct > capacity else result.misses == distinct
    assert result.hits + result.misses == len(keys)


class TestCharacterize:
    def records(self):
        return [
            TraceRecord(pc=0x1000, num_instrs=4, loads=(0x9000,)),
            TraceRecord(pc=0x1040, num_instrs=4, stores=(0xA000,)),
            TraceRecord(pc=0x2000, num_instrs=4),
            TraceRecord(pc=0x1000, num_instrs=4, loads=(0x9008,)),
        ]

    def test_counts(self):
        character = characterize_records(self.records(), name="t")
        assert character.records == 4
        assert character.instructions == 16
        assert character.loads == 2
        assert character.stores == 1
        assert character.code_pages == 2
        assert character.data_pages == 2

    def test_mix_rates(self):
        character = characterize_records(self.records())
        assert character.loads_per_kilo_instruction == pytest.approx(125.0)

    def test_tlb_estimates_monotone(self):
        from repro.workloads.server import ServerWorkload

        character = characterize(
            ServerWorkload("c", 3, code_pages=64, data_pages=800, hot_data_pages=64,
                           warm_pages=128, local_pages=16),
            records=4000,
        )
        assert character.itlb_mpki_estimate(8) >= character.itlb_mpki_estimate(64)
        assert character.dtlb_mpki_estimate(8) >= character.dtlb_mpki_estimate(64)
        assert character.code_pages > 10

    def test_server_vs_spec_contrast(self):
        # The Section 3 motivation, reproduced offline: server code
        # footprints dwarf SPEC-like ones.
        from repro.workloads.server import ServerWorkload
        from repro.workloads.speclike import SpecLikeWorkload

        server = characterize(ServerWorkload("s", 1), records=6000)
        spec = characterize(SpecLikeWorkload("p", 1), records=6000)
        assert server.code_pages > 10 * spec.code_pages
        assert server.itlb_mpki_estimate(16) > 10 * spec.itlb_mpki_estimate(16)

    def test_summary_keys(self):
        summary = characterize_records(self.records()).summary()
        assert {"records", "instructions", "code_pages", "data_pages"} <= set(summary)


class TestAccessProbe:
    def test_records_and_forwards(self):
        from repro.analysis.probe import AccessProbe
        from repro.common.types import MemoryRequest, RequestType

        class Sink:
            def __init__(self):
                self.count = 0

            def access(self, req):
                self.count += 1
                return 42

        sink = Sink()
        probe = AccessProbe(sink)
        req = MemoryRequest(address=0x1000, req_type=RequestType.LOAD)
        assert probe.access(req) == 42
        assert sink.count == 1
        assert probe.line_addresses == [0x1000 >> 6]

    def test_stack_profile_of_captured_stream(self):
        from repro.analysis.probe import AccessProbe
        from repro.common.types import MemoryRequest, RequestType

        class Sink:
            def access(self, req):
                return 0

        probe = AccessProbe(Sink())
        for line in (0, 1, 0, 0):
            probe.access(MemoryRequest(address=line * 64, req_type=RequestType.LOAD))
        profile = probe.stack_profile()
        assert profile.accesses == 4
        assert profile.cold_misses == 2
        assert profile.histogram == {1: 1, 0: 1}

    def test_writebacks_filtered_by_default(self):
        from repro.analysis.probe import AccessProbe
        from repro.common.types import MemoryRequest, RequestType

        class Sink:
            def access(self, req):
                return 0

        probe = AccessProbe(Sink())
        probe.access(MemoryRequest(address=0, req_type=RequestType.WRITEBACK))
        assert probe.line_addresses == []

    def test_capacity_cap(self):
        from repro.analysis.probe import AccessProbe
        from repro.common.types import MemoryRequest, RequestType

        class Sink:
            def access(self, req):
                return 0

        probe = AccessProbe(Sink(), capacity=2)
        for i in range(5):
            probe.access(MemoryRequest(address=i * 64, req_type=RequestType.LOAD))
        assert len(probe.line_addresses) == 2
        assert probe.dropped == 3

    def test_probe_l2c_input_end_to_end(self):
        from repro.analysis.probe import probe_cache_input
        from repro.common.params import scaled_config
        from repro.core.cpu import Core
        from repro.core.system import System
        from repro.workloads.server import ServerWorkload

        wl = ServerWorkload("probe", 3, code_pages=48, data_pages=1000,
                            hot_data_pages=48, warm_pages=200, local_pages=8)
        system = System(scaled_config(), wl.size_policy)
        probe = probe_cache_input(system, "l2c")
        core = Core(system)
        stream = wl.record_stream()
        while system.stats.instructions < 12000:
            core.execute(next(stream))
        # The probe saw exactly the demand accesses the L2C recorded.
        assert len(probe.line_addresses) == system.stats.level("L2C").accesses
        # And the policy can be scored against the offline optimum.
        gap = probe.belady_gap(
            system.l2c.num_sets, system.l2c.associativity,
            system.stats.level("L2C").misses,
        )
        assert gap >= 1.0

    def test_unknown_level(self):
        from repro.analysis.probe import probe_cache_input
        from repro.common.params import scaled_config
        from repro.core.system import System

        with pytest.raises(ValueError):
            probe_cache_input(System(scaled_config()), "l9")
