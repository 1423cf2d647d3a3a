"""Differential lock: the batched kernel against the scalar spec engine.

The batched engine (:mod:`repro.kernel.batched`) promises *bit-identical*
statistics — not statistically similar, identical.  This suite enforces
that promise the same way the golden tests pin the spec itself:

* a Hypothesis sweep over (technique, workload kind, seed, page mix) runs
  both engines over the same window and requires every ``LevelStats``
  slot of every level, every ``SimStats`` counter, the cycle total and
  the full metric report to match exactly;
* directed cases cover the behaviours most likely to break block batching
  (phase changes mid-block, 2 MB page mixes, store-heavy streams, the
  topologies that disable the inline prefetch chain or split the STLB,
  and an L1I so small that FDIP fills land in the set just touched);
* engine selection plumbing (``resolve_engine``, the result-cache key) is
  pinned so a typo cannot silently fall back to the wrong engine or serve
  one engine's cache entry to the other;
* a drift canary plants each of a set of kernel faults in a copy of the
  package and requires the differential to catch it.

Example intensity follows the shared tier profiles
(``REPRO_HYPOTHESIS_PROFILE``, see ``tests/stateful/profiles.py``), and
the whole file runs under ``REPRO_CHECK=1`` in CI so the differential
also executes with the shadow-oracle structures installed.
"""

import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import LevelStats
from repro.common.types import TraceRecord
from repro.core.cpu import Core
from repro.core.simulator import simulate
from repro.core.system import System
from repro.experiments.runner import config_for
from repro.fabric import SimJob, job_key
from repro.kernel import DEFAULT_ENGINE, ENGINES, BatchedEngine, resolve_engine
from repro.workloads.base import SyntheticWorkload
from repro.workloads.phased import PhasedWorkload
from repro.workloads.server import ServerWorkload
from repro.workloads.speclike import SpecLikeWorkload

from .stateful.profiles import ACTIVE_PROFILE

ROOT = Path(__file__).resolve().parents[1]

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


def level_slots(stats):
    """Every ``LevelStats`` slot of every level, keyed ``(level, slot)``."""
    return {
        (name, slot): getattr(level, slot)
        for name, level in stats.levels.items()
        for slot in LevelStats.__slots__
    }


def assert_identical(spec_result, batched_result):
    spec, batched = spec_result.stats, batched_result.stats
    assert batched.cycles == spec.cycles
    assert batched.instructions == spec.instructions
    assert level_slots(batched) == level_slots(spec)
    assert batched.counters == spec.counters
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
    def test_default(self):
        assert resolve_engine(None) == DEFAULT_ENGINE == "spec"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("vectorized")


class TestJobKeyEngine:
    def _job(self, engine):
        workload = ServerWorkload("jk", 3)
        return SimJob(config_for("lru"), (workload,), 1_000, 4_000,
                      label="lru", engine=engine)

    def test_engines_get_distinct_cache_keys(self):
        assert job_key(self._job("spec")) != job_key(self._job("batched"))

    def test_none_resolves_to_default_key(self):
        # A job built without an engine must share its cache entry with a
        # job pinning the resolved default explicitly.
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


#: Kernel lines whose removal must break bit-identity, one per effect kind
#: the fast path mirrors: level counters the metric report leaves out
#: (evictions, prefetch fills), line metadata (prefetched, dirty), recency
#: (an L1D touch) and the DRAM bandwidth window of the inline prefetch
#: chain.  Each needle occurs exactly once in ``kernel/batched.py``.
KERNEL_FAULTS = {
    "l1i-evictions": "l1i_stats.evictions += evict_n",
    "l1i-prefetch-fills": "l1i_stats.prefetch_fills += pf_fill",
    "l1d-prefetched-bit": "dline.prefetched = False",
    "l1d-dirty-bit": "dline.dirty = True",
    "l1d-recency": "l1d_stacks[dcs].touch(dcw)",
    "dram-window": "dram._window_accesses += 1",
}

#: The ``split-stlb`` cell of :meth:`TestDifferential.test_topology`, run
#: against whichever ``repro`` package ``PYTHONPATH`` names.
CANARY_CELL = """
import sys
import repro
assert repro.__file__.startswith(sys.argv[1]), repro.__file__
from tests.test_kernel_diff import assert_identical, run_both
assert_identical(*run_both("itp+xptp", "server", 9, topology="split-stlb"))
"""


def run_canary_cell(tmp_path, needle=None):
    """Copy the package, replace the ``needle`` line with ``pass`` and run
    the differential cell on the copy; returns the subprocess result."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if needle is not None:
        target = src / "repro" / "kernel" / "batched.py"
        lines = target.read_text().splitlines(keepends=True)
        hits = [i for i, line in enumerate(lines) if needle in line]
        assert len(hits) == 1, f"needle {needle!r} occurs {len(hits)} times"
        line = lines[hits[0]]
        lines[hits[0]] = line[: len(line) - len(line.lstrip())] + "pass\n"
        target.write_text("".join(lines))
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", CANARY_CELL, str(src)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )


class TestDriftCanary:
    """Each planted kernel fault must fail the differential; the unmutated
    copy is the control that shows the harness itself passes."""

    def test_unmutated_copy_passes(self, tmp_path):
        result = run_canary_cell(tmp_path)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("needle", KERNEL_FAULTS.values(), ids=KERNEL_FAULTS.keys())
    def test_planted_fault_is_caught(self, tmp_path, needle):
        result = run_canary_cell(tmp_path, needle)
        assert result.returncode != 0
        assert "AssertionError" in result.stderr, result.stderr
