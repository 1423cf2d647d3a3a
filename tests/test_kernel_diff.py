"""Differential lock: the batched kernel against the scalar spec engine.

The batched engine (:mod:`repro.kernel.batched`) promises *bit-identical*
statistics — not statistically similar, identical.  This suite enforces
that promise the same way the golden tests pin the spec itself:

* a Hypothesis sweep over (technique, workload kind, seed, page mix) runs
  both engines over the same window and requires the full metric report —
  every counter, every derived rate, the cycle total — to match exactly;
* directed cases cover the behaviours most likely to break block batching
  (phase changes mid-block, 2 MB page mixes, store-heavy streams, the
  topologies that disable the inline prefetch chain or split the STLB,
  and an L1I so small that FDIP fills land in the set just touched);
* engine selection plumbing (``resolve_engine``, ``REPRO_ENGINE``, the
  result-cache key) is pinned so a config typo cannot silently fall back
  to the wrong engine or serve one engine's cache entry to the other.

Example intensity follows the shared tier profiles
(``REPRO_HYPOTHESIS_PROFILE``, see ``tests/stateful/profiles.py``), and
the whole file runs under ``REPRO_CHECK=1`` in CI so the differential
also executes with the shadow-oracle structures installed.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import TraceRecord
from repro.core.cpu import Core
from repro.core.simulator import simulate
from repro.core.system import System
from repro.experiments.runner import config_for
from repro.fabric import SimJob, job_key
from repro.kernel import (
    DEFAULT_ENGINE,
    ENGINE_ENV,
    ENGINES,
    BatchedEngine,
    resolve_engine,
)
from repro.workloads.base import SyntheticWorkload
from repro.workloads.phased import PhasedWorkload
from repro.workloads.server import ServerWorkload
from repro.workloads.speclike import SpecLikeWorkload

from .stateful.profiles import ACTIVE_PROFILE

#: Examples per tier for the full-system differential (each example runs
#: two complete simulations, so these are deliberately below the stateful
#: machines' example counts).
DIFF_EXAMPLES = {"dev": 8, "ci": 25, "deep": 120}[ACTIVE_PROFILE]

WORKLOAD_KINDS = {
    "server": ServerWorkload,
    "spec": SpecLikeWorkload,
    "phased": PhasedWorkload,
}

WARMUP = 1_500
MEASURE = 6_000


class RefetchWorkload(SyntheticWorkload):
    """Code walk over 256 lines that often fetches the same line twice in a
    row, so consecutive records hit the same L1I (set, way)."""

    def record_stream(self):
        rng = random.Random(self.seed)
        line = 0
        while True:
            r = rng.random()
            if r < 0.15:
                line = rng.randrange(256)
            elif r < 0.6:
                line = (line + 1) % 256
            yield TraceRecord(0x400000 + line * 64 + rng.randrange(0, 64, 4), 4,
                              (0x10000000 + rng.randrange(64) * 64,))


def make_workload(kind, seed, large_page_percent=0):
    workload = WORKLOAD_KINDS[kind](f"diff_{kind}_{seed}", seed)
    workload.large_page_percent = large_page_percent
    return workload


def run_both(technique, kind, seed, large_page_percent=0,
             warmup=WARMUP, measure=MEASURE, topology=None):
    """Run the same cell under both engines; returns (spec, batched)."""
    config = config_for(technique)
    results = []
    for engine in ENGINES:
        workload = make_workload(kind, seed, large_page_percent)
        results.append(
            simulate(config, workload, warmup, measure,
                     topology=topology, engine=engine)
        )
    return results


def assert_identical(spec_result, batched_result):
    assert batched_result.stats.cycles == spec_result.stats.cycles
    assert batched_result.stats.instructions == spec_result.stats.instructions
    assert batched_result.metrics == spec_result.metrics


class TestDifferential:
    @settings(max_examples=DIFF_EXAMPLES, deadline=None)
    @given(
        technique=st.sampled_from(["lru", "itp", "itp+xptp", "tdrrip"]),
        kind=st.sampled_from(sorted(WORKLOAD_KINDS)),
        seed=st.integers(min_value=0, max_value=2**16),
        large_page_percent=st.sampled_from([0, 25, 60]),
    )
    def test_engines_bit_identical(self, technique, kind, seed,
                                   large_page_percent):
        spec_result, batched_result = run_both(
            technique, kind, seed, large_page_percent
        )
        assert_identical(spec_result, batched_result)

    def test_phase_change_mid_stream(self):
        # PhasedWorkload flips its working set every few thousand records;
        # phase boundaries land mid-block, exercising the re-probe/fallback
        # transitions between the kernel's tiers.
        spec_result, batched_result = run_both(
            "itp+xptp", "phased", 11, warmup=2_000, measure=10_000
        )
        assert_identical(spec_result, batched_result)

    def test_large_page_mix(self):
        spec_result, batched_result = run_both("itp", "server", 3,
                                               large_page_percent=50)
        assert_identical(spec_result, batched_result)

    @pytest.mark.parametrize("topology", ["no-llc", "split-stlb"])
    def test_topology(self, topology):
        # Without an LLC the L1I does not sit on the L2C -> LLC -> DRAM
        # chain, so the inline FDIP replay is off and every FDIP-issuing
        # record runs scalar; the split STLB changes every miss path.
        spec_result, batched_result = run_both("itp+xptp", "server", 9,
                                               topology=topology)
        assert_identical(spec_result, batched_result)

    def test_small_l1i_fills_hit_the_touched_set(self):
        # Four L1I sets against an FDIP depth of four: the prefetch window
        # wraps onto the set of the line just fetched, so an inline fill
        # moves the MRU way the kernel touched last, and the refetch of
        # that line in the next record must touch it again.
        config = config_for("lru")
        l1i = config.l1i
        config = replace(config, l1i=replace(
            l1i, size_bytes=4 * l1i.associativity * l1i.line_bytes))
        assert config.l1i.num_sets == 4
        spec_result, batched_result = (
            simulate(config, RefetchWorkload("refetch", 1), 2_000, 8_000,
                     engine=engine)
            for engine in ENGINES
        )
        assert_identical(spec_result, batched_result)


class TestCoverage:
    def test_fast_path_coverage_sane(self):
        workload = ServerWorkload("cov", 5)
        system = System(config_for("itp+xptp"), workload.size_policy)
        core = Core(system, thread_id=0)
        kernel = BatchedEngine(system, core, workload.record_stream())
        kernel.run_records(4_000)
        assert kernel.total_records == 4_000
        assert kernel.fast_records >= 0
        assert kernel.issue_records >= 0
        assert kernel.fast_records + kernel.issue_records <= kernel.total_records
        assert 0.0 <= kernel.fast_path_coverage <= 1.0
        # A server workload is hit-dominated; a coverage collapse means the
        # fast-path gate broke, even if bit-identity still holds.
        assert kernel.fast_path_coverage > 0.3

    def test_reset_stats_clears_coverage_counters(self):
        workload = ServerWorkload("cov-reset", 5)
        system = System(config_for("lru"), workload.size_policy)
        core = Core(system, thread_id=0)
        kernel = BatchedEngine(system, core, workload.record_stream())
        kernel.run_records(1_000)
        kernel.reset_stats()
        assert kernel.total_records == 0
        assert kernel.fast_records == 0
        assert kernel.issue_records == 0


class TestResolveEngine:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine(None) == DEFAULT_ENGINE

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "batched")
        assert resolve_engine(None) == "batched"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "batched")
        assert resolve_engine("spec") == "spec"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("vectorized")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "turbo")
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(None)


class TestJobKeyEngine:
    def _job(self, engine):
        workload = ServerWorkload("jk", 3)
        return SimJob(config_for("lru"), (workload,), 1_000, 4_000,
                      label="lru", engine=engine)

    def test_engines_get_distinct_cache_keys(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert job_key(self._job("spec")) != job_key(self._job("batched"))

    def test_none_resolves_to_default_key(self, monkeypatch):
        # A job built without an engine must share its cache entry with a
        # job pinning the resolved default explicitly.
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert job_key(self._job(None)) == job_key(self._job(DEFAULT_ENGINE))

    def test_invalid_engine_rejected_at_build_time(self):
        with pytest.raises(ValueError, match="unknown engine"):
            self._job("vectorized")


@pytest.mark.repro_check
class TestReproCheckSmoke:
    def test_differential_clean_with_shadow_oracles(self, monkeypatch):
        # The kernel's fast-path gate must coexist with the REPRO_CHECK
        # structures (CheckedRecencyStack et al.) and stay bit-identical.
        monkeypatch.setenv("REPRO_CHECK", "1")
        spec_result, batched_result = run_both(
            "itp+xptp", "server", 7, warmup=1_000, measure=4_000
        )
        assert_identical(spec_result, batched_result)
