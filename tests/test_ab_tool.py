"""The paired A/B harness's statistics and gate rules (``tools/ab.py``), loaded by path."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab_tool", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


class TestRatios:
    def test_ratio_is_head_over_base(self):
        assert ab.paired_ratios([60.0, 50.0], [45.0, 55.0]) == [0.75, 1.1]

    def test_lower_is_better_head_below_base_wins(self):
        base, head = [63.2, 63.3, 63.1], [49.2, 49.4, 49.1]
        assert ab.summarize(base, head, "lower")["ratio_median"] < 1.0
        assert ab.wins(base, head, "lower") == (3, 0)
        assert ab.wins(base, head, "higher") == (0, 3)

    def test_higher_is_better(self):
        assert ab.wins([100.0, 100.0], [110.0, 90.0], "higher") == (1, 1)

    def test_ties_count_for_neither_side(self):
        assert ab.wins([1.0, 2.0, 3.0], [1.0, 2.0, 2.5], "lower") == (1, 0)
        assert ab.wins([1.0, 2.0], [1.0, 2.0], "higher") == (0, 0)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="better"):
            ab.wins([1.0], [2.0], "sideways")


class TestSpread:
    def test_quartiles_inclusive(self):
        assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)

    def test_one_run_is_its_own_spread(self):
        assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestBootstrap:
    RATIOS = [0.78, 0.77, 0.79, 0.78, 0.80, 0.76, 0.78, 0.77, 0.79, 0.78]

    def test_deterministic(self):
        assert ab.bootstrap_interval(self.RATIOS) == ab.bootstrap_interval(self.RATIOS)
        assert ab.bootstrap_interval(self.RATIOS, seed=1) == ab.bootstrap_interval(
            self.RATIOS, seed=1
        )

    def test_interval_brackets_the_median_within_the_data(self):
        lo, hi = ab.bootstrap_interval(self.RATIOS)
        assert min(self.RATIOS) <= lo <= 0.78 <= hi <= max(self.RATIOS)

    def test_constant_ratios_give_a_point(self):
        assert ab.bootstrap_interval([1.0, 1.0, 1.0]) == (1.0, 1.0)

    def test_summary_reports_the_fixed_seed_interval(self):
        base = [2.0] * len(self.RATIOS)
        head = [2.0 * r for r in self.RATIOS]
        summary = ab.summarize(base, head, "lower")
        assert summary["ratio_ci95"] == list(ab.bootstrap_interval(self.RATIOS))
        assert (summary["head_wins"], summary["base_wins"], summary["pairs"]) == (10, 0, 10)


class TestParseRun:
    def test_reads_digest_and_closing_json(self):
        stdout = (
            "smt_mix        sim_ips                                    300000 instr/s\n"
            "smt_mix        stats digest                           "
            "7ec4e4db0123456789abcdef\n"
            '{"correct": true, "attempted": 6, "failed": 0, "metrics": {}}\n'
        )
        report, digest = ab.parse_run(stdout)
        assert report["correct"] is True
        assert digest == "7ec4e4db0123456789abcdef"

    def test_missing_digest(self):
        assert ab.parse_run('{"correct": true}\n') == ({"correct": True}, None)


class TestCallsPerRecord:
    def test_calls_over_records(self):
        assert ab.calls_per_record(2_838_106, 50_000) == 56.76212

    def test_every_workload_has_profiled_cells(self):
        assert set(ab.PROFILE_CELLS) == set(ab.WORKLOADS)

    def test_same_commit_mismatch_is_a_problem(self):
        calls = {"srv_00/spec": {"base": 58.38712, "head": 58.41296}}
        assert ab.call_count_problems(calls, same_commit=False) == []
        [problem] = ab.call_count_problems(calls, same_commit=True)
        assert problem.startswith("srv_00/spec: calls per record differ")

    def test_same_commit_equal_counts_pass(self):
        calls = {"intense_0/spec": {"base": 131.83604, "head": 131.83604}}
        assert ab.call_count_problems(calls, same_commit=True) == []

    def test_failed_profile_is_a_problem_either_way(self):
        calls = {"spec_00/batched": {"base": 55.0151, "head": None}}
        for same_commit in (False, True):
            assert ab.call_count_problems(calls, same_commit) == [
                "spec_00/batched: profiling failed"
            ]

    def test_calls_rule_budget_is_the_sim_ips_bound(self):
        base = 40.0
        within = {"srv_00/batched": {"base": base, "head": base * 1.25}}
        over = {"srv_00/batched": {"base": base, "head": base * 1.26}}
        assert ab.BOUNDS["sim_ips"] == 0.25
        assert ab.call_count_problems(within, same_commit=False) == []
        [problem] = ab.call_count_problems(over, same_commit=False)
        assert problem.startswith("srv_00/batched: calls per record rose 1.2600x")

    def test_fewer_calls_pass(self):
        calls = {"intense_0/spec": {"base": 131.9, "head": 90.0}}
        assert ab.call_count_problems(calls, same_commit=False) == []


class TestWallRule:
    @staticmethod
    def metric(better, base, head):
        return ab.summarize(base, head, better)

    def test_bounds_come_from_the_benchmark(self):
        assert ab.BOUNDS == {m["name"]: m["bound"] for m in ab.BENCHMARK["end_to_end"]}

    def test_every_pair_slower_than_the_bound_fails(self):
        metrics = {"sim_ips": self.metric("higher", [100.0] * 3, [70.0, 74.0, 60.0])}
        [problem] = ab.wall_problems("server_fig08", metrics)
        assert problem.startswith("server_fig08 sim_ips: B/A interval [0.6000, 0.7400]")

    def test_one_pair_inside_the_bound_passes(self):
        # Three pairs: the interval is [min, max] of the pair ratios.
        metrics = {"sim_ips": self.metric("higher", [100.0] * 3, [70.0, 76.0, 60.0])}
        assert metrics["sim_ips"]["ratio_ci95"] == [0.6, 0.76]
        assert ab.wall_problems("server_fig08", metrics) == []

    def test_lower_is_better_fails_above_one_plus_bound(self):
        metrics = {
            "cell_s_p50": self.metric("lower", [2.0] * 3, [2.6, 2.7, 2.8]),
            "peak_rss_mb": self.metric("lower", [50.0] * 3, [57.0, 57.0, 57.0]),
        }
        [problem] = ab.wall_problems("smt_mix", metrics)
        assert problem.startswith("smt_mix cell_s_p50:")
        metrics["peak_rss_mb"] = self.metric("lower", [50.0] * 3, [58.0, 58.0, 58.0])
        assert len(ab.wall_problems("smt_mix", metrics)) == 2

    def test_gains_never_fail(self):
        metrics = {
            "sim_ips": self.metric("higher", [100.0] * 3, [200.0] * 3),
            "setup_s": self.metric("lower", [1.0] * 3, [0.1] * 3),
        }
        assert ab.wall_problems("speclike_hits", metrics) == []


class TestEngineFloor:
    def test_speedup_is_best_spec_over_best_batched(self):
        walls = {"spec": [4.4, 4.0, 4.2], "batched": [3.3, 3.2, 3.4]}
        assert ab.engine_speedup(walls) == 4.0 / 3.2

    def test_a_failed_run_is_a_problem(self):
        walls = {"spec": [4.0, None, 4.2], "batched": [3.0, 3.1, 3.2]}
        assert ab.engine_speedup(walls) is None
        assert ab.engine_floor_problems(None) == ["srv_00 engine floor: a timed run failed"]

    def test_floor(self):
        assert ab.ENGINE_FLOOR == 1.05
        assert ab.engine_floor_problems(1.05) == []
        assert ab.engine_floor_problems(1.3) == []
        [problem] = ab.engine_floor_problems(1.02)
        assert problem == "srv_00 engine floor: batched runs 1.020x spec, below 1.05x"
