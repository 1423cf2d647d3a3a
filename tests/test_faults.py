"""Tests for the deterministic fault-injection harness (``repro.faults``)."""

import pytest

from repro.faults import (
    CACHE_TORN_WRITE,
    SITES,
    WORKER_CRASH,
    WORKER_HANG,
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    active_plan,
    install_plan,
    parse_spec,
)
from repro.faults import plan as plan_mod


@pytest.fixture(autouse=True)
def _fresh_fault_state():
    """Isolate each test from installed plans and the env-plan cache."""
    install_plan(None)
    plan_mod._env_cache = (None, None)
    yield
    install_plan(None)
    plan_mod._env_cache = (None, None)


class TestGrammar:
    def test_site_only_uses_defaults(self):
        spec = parse_spec("worker.crash")
        assert spec.site == WORKER_CRASH
        assert spec.probability == 1.0
        assert spec.seed == 0
        assert spec.max_fires is None
        assert spec.match == ""

    def test_full_form(self):
        spec = parse_spec("cache.torn-write:0.5:7:2:lru x w1")
        assert spec == FaultSpec(CACHE_TORN_WRITE, 0.5, 7, 2, "lru x w1")

    def test_empty_fields_fall_back_to_defaults(self):
        spec = parse_spec("worker.hang:::3:")
        assert spec == FaultSpec(WORKER_HANG, 1.0, 0, 3, "")

    def test_spec_string_round_trips(self):
        for text in (
            "worker.crash",
            "worker.hang:0.25:3",
            "cache.corrupt-write:1:0:1",
            "worker.crash:1:0::lru x w2",
        ):
            spec = parse_spec(text)
            assert parse_spec(spec.spec_string()) == spec

    def test_plan_round_trips_multiple_entries(self):
        plan = FaultPlan.parse("worker.crash:0.5:7, cache.torn-write:1:0:1")
        again = FaultPlan.parse(plan.spec_string())
        assert again.specs == plan.specs

    @pytest.mark.parametrize(
        "bad",
        [
            "worker.explode",          # unknown site
            "worker.crash:maybe",      # non-float probability
            "worker.crash:2",          # probability out of range
            "worker.crash:0.5:x",      # non-int seed
            "worker.crash:1:0:zero",   # non-int max fires
            "worker.crash:1:0:0",      # max fires < 1
            "worker.crash:1:0:1:a:b",  # too many fields
        ],
    )
    def test_bad_specs_raise_with_context(self, bad):
        with pytest.raises(FaultSpecError):
            parse_spec(bad)

    def test_duplicate_site_rejected(self):
        with pytest.raises(FaultSpecError, match="armed twice"):
            FaultPlan.parse("worker.crash,worker.crash:0.5")

    def test_empty_text_is_empty_plan(self):
        plan = FaultPlan.parse("")
        assert not plan
        assert not plan.would_fire(WORKER_CRASH, "any")


class TestFiring:
    def test_draw_is_deterministic(self):
        spec = FaultSpec(WORKER_CRASH, probability=0.5, seed=3)
        keys = [f"cell-{i}" for i in range(64)]
        first = [spec.would_fire(k) for k in keys]
        assert first == [spec.would_fire(k) for k in keys]
        # A 0.5 probability over 64 keys fires somewhere but not everywhere.
        assert any(first) and not all(first)

    def test_seed_changes_the_draw(self):
        keys = [f"cell-{i}" for i in range(64)]
        a = [FaultSpec(WORKER_CRASH, 0.5, seed=1).would_fire(k) for k in keys]
        b = [FaultSpec(WORKER_CRASH, 0.5, seed=2).would_fire(k) for k in keys]
        assert a != b

    def test_probability_bounds(self):
        always = FaultSpec(WORKER_CRASH, probability=1.0)
        never = FaultSpec(WORKER_CRASH, probability=0.0)
        assert all(always.would_fire(f"k{i}") for i in range(16))
        assert not any(never.would_fire(f"k{i}") for i in range(16))

    def test_match_filter(self):
        spec = FaultSpec(WORKER_CRASH, match="lru x w2")
        assert spec.would_fire("lru x w2")
        assert not spec.would_fire("itp x w2")

    def test_max_fires_caps_should_fire_but_not_would_fire(self):
        plan = FaultPlan([FaultSpec(WORKER_CRASH, max_fires=1)])
        assert plan.should_fire(WORKER_CRASH, "a")
        assert not plan.should_fire(WORKER_CRASH, "b")  # cap reached
        assert plan.would_fire(WORKER_CRASH, "b")       # pure query unaffected
        assert plan.fired[WORKER_CRASH] == 1

    def test_unarmed_site_never_fires(self):
        plan = FaultPlan([FaultSpec(WORKER_CRASH)])
        assert not plan.should_fire(WORKER_HANG, "a")
        assert not plan.would_fire(WORKER_HANG, "a")

    def test_all_sites_are_parseable(self):
        for site in SITES:
            assert parse_spec(site).site == site


class TestActivePlan:
    def test_env_arms_the_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.hang:0.5:9")
        plan = active_plan()
        assert plan is not None and plan.armed(WORKER_HANG)

    def test_env_change_is_picked_up(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.hang")
        assert active_plan().armed(WORKER_HANG)
        monkeypatch.setenv("REPRO_FAULTS", "worker.crash")
        assert active_plan().armed(WORKER_CRASH)
        monkeypatch.delenv("REPRO_FAULTS")
        assert active_plan() is None

    def test_bad_env_raises_spec_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.crash:not-a-prob")
        with pytest.raises(FaultSpecError):
            active_plan()

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.hang")
        explicit = FaultPlan([FaultSpec(WORKER_CRASH)])
        install_plan(explicit)
        assert active_plan() is explicit

    def test_install_accepts_spec_strings(self):
        install_plan("worker.crash:0.5:7")
        assert active_plan().armed(WORKER_CRASH)
        install_plan("")
        assert active_plan() is None
