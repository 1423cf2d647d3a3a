"""Unit tests for statistics collection."""

from repro.common.stats import LevelStats, SimStats, categorize
from repro.common.types import AccessType, MemoryRequest, RequestType


def _req(req_type=RequestType.LOAD, is_pte=False, ttype=None):
    return MemoryRequest(address=0, req_type=req_type, is_pte=is_pte, translation_type=ttype)


class TestCategorize:
    def test_demand_load_is_data(self):
        assert categorize(_req(RequestType.LOAD)) == "d"
        assert categorize(_req(RequestType.STORE)) == "d"

    def test_ifetch_is_instruction(self):
        assert categorize(_req(RequestType.IFETCH)) == "i"

    def test_data_ptw_is_dt(self):
        assert categorize(_req(RequestType.PTW, True, AccessType.DATA)) == "dt"

    def test_instr_ptw_is_it(self):
        assert categorize(_req(RequestType.PTW, True, AccessType.INSTRUCTION)) == "it"


class TestLevelStats:
    def test_record_hit(self):
        lvl = LevelStats("L2C")
        lvl.record_access("d", hit=True)
        assert lvl.accesses == 1
        assert lvl.hits == 1
        assert lvl.misses == 0
        assert lvl.hit_rate == 1.0

    def test_record_miss_with_latency(self):
        lvl = LevelStats("L2C")
        lvl.record_access("dt", hit=False, miss_latency=100)
        lvl.record_access("dt", hit=False, miss_latency=50)
        assert lvl.misses == 2
        assert lvl.avg_miss_latency == 75.0
        assert lvl.category_misses["dt"] == 2

    def test_mpki(self):
        lvl = LevelStats("LLC")
        for _ in range(5):
            lvl.record_access("d", hit=False, miss_latency=1)
        assert lvl.mpki(1000) == 5.0
        assert lvl.category_mpki("d", 1000) == 5.0
        assert lvl.category_mpki("i", 1000) == 0.0

    def test_mpki_zero_instructions(self):
        lvl = LevelStats("LLC")
        assert lvl.mpki(0) == 0.0

    def test_reset_is_in_place(self):
        # The hot path binds the category dicts once; reset must zero the
        # existing objects, never replace them.
        lvl = LevelStats("L1D")
        accesses, misses = lvl.cat_accesses, lvl.cat_misses
        lvl.record_access("dt", hit=False, miss_latency=10)
        lvl.reset()
        assert lvl.cat_accesses is accesses
        assert lvl.cat_misses is misses
        assert all(v == 0 for v in accesses.values())
        assert all(v == 0 for v in misses.values())

    def test_reset(self):
        lvl = LevelStats("L1D")
        lvl.record_access("d", hit=False, miss_latency=10)
        numeric = [slot for slot in LevelStats.__slots__
                   if isinstance(getattr(lvl, slot), int)]
        for value, slot in enumerate(numeric, start=3):
            setattr(lvl, slot, value)
        lvl.reset()
        assert lvl.name == "L1D"
        assert {slot: getattr(lvl, slot) for slot in numeric} == dict.fromkeys(numeric, 0)
        assert lvl.category_accesses == {}
        assert lvl.category_misses == {}


class TestSimStats:
    def test_level_is_memoised(self):
        stats = SimStats()
        assert stats.level("L2C") is stats.level("L2C")

    def test_ipc(self):
        stats = SimStats()
        stats.instructions = 1000
        stats.cycles = 2000.0
        assert stats.ipc == 0.5

    def test_ipc_zero_cycles(self):
        assert SimStats().ipc == 0.0

    def test_bump(self):
        stats = SimStats()
        stats.bump("x")
        stats.bump("x", 4)
        assert stats.counters["x"] == 5

    def test_report_contains_level_metrics(self):
        stats = SimStats()
        stats.instructions = 1000
        stats.cycles = 1000
        stats.level("STLB").record_access("i", hit=False, miss_latency=40)
        report = stats.report()
        assert report["stlb.mpki"] == 1.0
        assert report["stlb.impki"] == 1.0
        assert report["stlb.dmpki"] == 0.0
        assert report["stlb.avg_miss_latency"] == 40.0
        assert report["ipc"] == 1.0

    def test_reset_clears_dicts_in_place(self):
        # Core/DRAM hold references to these dicts across the warmup
        # boundary, so reset must clear them, not rebind the attributes.
        stats = SimStats()
        counters = stats.counters
        per_thread = stats.per_thread_instructions
        stats.bump("x", 3)
        per_thread[0] = 100
        stats.reset()
        assert stats.counters is counters
        assert stats.per_thread_instructions is per_thread
        assert counters == {}
        assert per_thread == {}

    def test_reset_keeps_level_objects(self):
        stats = SimStats()
        lvl = stats.level("L2C")
        lvl.record_access("d", hit=True)
        stats.instructions = 10
        stats.reset()
        assert stats.level("L2C") is lvl
        assert lvl.accesses == 0
        assert stats.instructions == 0
