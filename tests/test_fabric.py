"""Tests for the execution fabric: dedup, streaming, fault plans.

The runner contract (``ParallelRunner``/``run_jobs``) is pinned by
``test_parallel_runner.py``; this module covers what the fabric adds on
top — dedup of keys named twice in one run, incremental delivery,
per-runner fault plans and workload fingerprints.
"""

import inspect
import threading

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.common.params import scaled_config
from repro.fabric import (
    ParallelRunner,
    SimJob,
    job_key,
    run_iter,
    set_default_runner,
    workload_fingerprint,
)
from repro.fabric.store import ResultCache
from repro.faults import FaultPlan, FaultSpec, install_plan
from repro.faults import plan as fault_plan_mod
from repro.workloads.mixes import smt_mixes
from repro.workloads.phased import PhasedWorkload
from repro.workloads.server import ServerWorkload, server_suite
from repro.workloads.speclike import SpecLikeWorkload, spec_suite

WARMUP = 2_000
MEASURE = 8_000


@pytest.fixture(autouse=True)
def _fresh_fault_state():
    """Isolate each test from installed fault plans and the env-plan cache."""
    install_plan(None)
    fault_plan_mod._env_cache = (None, None)
    yield
    install_plan(None)
    fault_plan_mod._env_cache = (None, None)


def small_workloads(count=2):
    return [ServerWorkload(f"w{i}", seed=i + 1) for i in range(count)]


def jobs_for(labels, workloads=None):
    base = scaled_config()
    return [
        SimJob(base, (wl,), WARMUP, MEASURE, label=label)
        for label in labels
        for wl in (workloads or small_workloads())
    ]


def assert_same_result(a, b):
    assert a.metrics == b.metrics
    assert a.stats.cycles == b.stats.cycles
    assert a.stats.instructions == b.stats.instructions


class TestSimJobWindows:
    @pytest.mark.parametrize("warmup,measure", [(-1, MEASURE), (WARMUP, 0), (WARMUP, -5)])
    def test_empty_or_negative_window_rejected(self, warmup, measure):
        with pytest.raises(ValueError, match="warmup >= 0 and measure > 0"):
            SimJob(scaled_config(), (ServerWorkload("w", 1),), warmup, measure)

    def test_zero_warmup_accepted(self):
        job = SimJob(scaled_config(), (ServerWorkload("w", 1),), 0, MEASURE)
        assert job.warmup == 0


class TestConcurrentDedup:
    """A key named twice in one run simulates once; on two pool workers."""

    def test_overlapping_cells_execute_each_key_once(self):
        workloads = small_workloads(3)
        jobs_a = jobs_for(("lru", "itp"), workloads)  # 6 cells
        jobs_b = jobs_for(("itp", "xptp"), workloads)  # 6 cells, 3 shared
        unique = len({job_key(j) for j in jobs_a + jobs_b})
        assert unique == 9  # the overlap is real

        runner = ParallelRunner(workers=2)
        results = runner.run(jobs_a + jobs_b)

        assert runner.simulations == unique
        # Complete, order-preserved results for every slot.
        assert [r.workload for r in results] == [j.workload_name for j in jobs_a + jobs_b]
        # Duplicate slots settle to the same result object.
        by_key = {}
        for job, result in zip(jobs_a + jobs_b, results):
            assert by_key.setdefault(job_key(job), result) is result
        assert [c.status for c in runner.last_report.cells] == ["ok"] * len(results)

    def test_concurrent_results_bit_identical_to_serial(self):
        jobs_a = jobs_for(("lru", "itp"))
        jobs_b = jobs_for(("itp", "xptp"))
        results = ParallelRunner(workers=2).run(jobs_a + jobs_b)
        serial_a = ParallelRunner(workers=1).run(jobs_a)
        serial_b = ParallelRunner(workers=1).run(jobs_b)
        for got, want in zip(results, serial_a + serial_b):
            assert_same_result(got, want)

    def test_chaos_run_with_duplicates_converges_to_serial(self, tmp_path, monkeypatch):
        """Crashing workers and a torn cache write must not break dedup or
        change any settled result vs a clean serial run."""
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "worker.crash:1:0::lru x w0,cache.torn-write:1:0:1",
        )
        fault_plan_mod._env_cache = (None, None)
        jobs_a = jobs_for(("lru", "itp"))
        jobs_b = jobs_for(("itp", "xptp"))
        runner = ParallelRunner(
            workers=2, cache_dir=tmp_path, max_retries=2, max_pool_restarts=4
        )
        results = runner.run(jobs_a + jobs_b)
        assert runner.simulations == len({job_key(j) for j in jobs_a + jobs_b})
        assert runner.last_report.pool_restarts >= 1  # the crash really fired

        monkeypatch.delenv("REPRO_FAULTS")
        fault_plan_mod._env_cache = (None, None)
        serial_a = ParallelRunner(workers=1).run(jobs_a)
        serial_b = ParallelRunner(workers=1).run(jobs_b)
        for got, want in zip(results, serial_a + serial_b):
            assert_same_result(got, want)

    def test_run_iter_streams_every_index_once_with_duplicates(self):
        jobs = jobs_for(("lru", "itp")) + jobs_for(("itp",))
        runner = ParallelRunner(workers=1)
        rows = {}
        for index, cell, result in runner.run_iter(jobs):
            assert index not in rows
            assert cell is runner.last_report.cells[index]
            rows[index] = result.workload
        assert rows == {index: job.workload_name for index, job in enumerate(jobs)}
        assert runner.simulations == len({job_key(j) for j in jobs})


class TestStreaming:
    def test_yields_every_index_exactly_once(self):
        jobs = jobs_for(("lru", "itp"))
        runner = ParallelRunner(workers=1)
        seen = {}
        for index, cell, result in runner.run_iter(jobs):
            assert index not in seen
            assert cell.cell == jobs[index].cell
            assert result.workload == jobs[index].workload_name
            seen[index] = result
        assert sorted(seen) == list(range(len(jobs)))

    def test_cached_cells_yield_immediately_in_job_order(self, tmp_path):
        runner = ParallelRunner(workers=1, cache_dir=tmp_path)
        warm = jobs_for(("lru",))
        runner.run(warm)
        # Superset matrix: the warm cells must stream out first, in job
        # order, before any fresh cell simulates.
        jobs = warm + jobs_for(("itp",))
        order = [index for index, _cell, _result in runner.run_iter(jobs)]
        assert order[: len(warm)] == list(range(len(warm)))
        statuses = [cell.status for cell in runner.last_report.cells]
        assert statuses[: len(warm)] == ["cached"] * len(warm)
        assert statuses[len(warm):] == ["ok"] * (len(jobs) - len(warm))

    def test_run_iter_module_helper_uses_default_runner(self):
        previous = set_default_runner(ParallelRunner(workers=1))
        try:
            jobs = jobs_for(("lru",))
            rows = list(run_iter(jobs))
            assert len(rows) == len(jobs)
        finally:
            set_default_runner(previous)


class TestPerRunnerFaultPlans:
    def test_concurrent_runners_see_only_their_own_plan(self, tmp_path, monkeypatch):
        """Two runners with different explicit plans, driven at once from
        two threads.  Every cache store rendezvouses with the other thread
        before and after writing, so both runs are provably mid-drive
        together whenever a fault site is consulted."""
        rendezvous = threading.Barrier(2)
        original_store = ResultCache.store

        def store(self, *args):
            rendezvous.wait(timeout=60)
            try:
                original_store(self, *args)
            finally:
                rendezvous.wait(timeout=60)

        monkeypatch.setattr(ResultCache, "store", store)
        plans = {
            "a": FaultPlan([
                FaultSpec("worker.crash", match="lru x w0"),
                FaultSpec("cache.corrupt-write"),
            ]),
            "b": FaultPlan([FaultSpec("worker.crash", match="lru x w1")]),
        }
        runners = {
            name: ParallelRunner(
                workers=1, cache_dir=tmp_path / name, max_retries=1,
                backoff_base=0.0, faults=plan,
            )
            for name, plan in plans.items()
        }
        jobs = jobs_for(("lru",))
        errors = []

        def drive(runner):
            try:
                runner.run(jobs)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(r,)) for r in runners.values()]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors

        cells = {name: runner.last_report.cells for name, runner in runners.items()}
        assert [c.injected for c in cells["a"]] == [
            ("worker.crash", "cache.corrupt-write"), ("cache.corrupt-write",),
        ]
        assert [c.injected for c in cells["b"]] == [(), ("worker.crash",)]
        for name, crashed in (("a", 0), ("b", 1)):
            for index, cell in enumerate(cells[name]):
                retried = [e for e in cell.events if "InjectedWorkerCrash" in e]
                assert len(retried) == (index == crashed), (name, cell)
                assert cell.attempts == (2 if index == crashed else 1)
        # cache.corrupt-write fired for every store of runner a and none of
        # runner b: a fresh read quarantines exactly runner a's entries.
        for name, corrupted in (("a", len(jobs)), ("b", 0)):
            cache = ResultCache(tmp_path / name)
            for job in jobs:
                cache.load(job_key(job))
            assert cache.quarantined == corrupted, name
        # Nothing was installed process-wide, so nothing is left behind.
        assert fault_plan_mod._installed is None
        assert fault_plan_mod.active_plan() is None


#: Hash and canonical-form properties run at the top tier (500 examples).
DETERMINISM_SETTINGS = settings(max_examples=500, deadline=None)

GENERATORS = (ServerWorkload, SpecLikeWorkload, PhasedWorkload)
BASE_ARGS = {"name": "w", "seed": 5}


def _other_value(value):
    """Strategy for a value of ``value``'s type that differs from it."""
    if isinstance(value, str):
        values = st.text(max_size=8)
    elif isinstance(value, int):
        # Lower bound 1: a zero function length never ends the code layout.
        values = st.integers(1, 2 * value + 16)
    else:
        values = st.floats(0.0, 2.0, allow_nan=False)
    return values.filter(lambda v: v != value)


class TestWorkloadFingerprint:
    def test_flat_fingerprint_format_is_unchanged(self):
        # Cached results are keyed by this exact string: the repr of the
        # sorted public attributes.
        workloads = server_suite() + spec_suite()
        workloads += [w for mix in smt_mixes() for w in mix.workloads]
        for wl in workloads:
            public = sorted(
                (k, v) for k, v in vars(wl).items() if not k.startswith("_")
            )
            cls = type(wl)
            assert workload_fingerprint(wl) == (
                f"{cls.__module__}.{cls.__qualname__}{public!r}"
            )

    def test_nested_workload_parameters_change_job_key(self):
        def key(wl):
            return job_key(SimJob(scaled_config(), (wl,), WARMUP, MEASURE))

        a, b = PhasedWorkload("ph", 3), PhasedWorkload("ph", 3)
        assert key(a) == key(b)
        b.quiet.hot_data_pages = 20
        assert key(a) != key(b)

    @DETERMINISM_SETTINGS
    @given(data=st.data())
    def test_changed_constructor_parameter_changes_fingerprint(self, data):
        cls = data.draw(st.sampled_from(GENERATORS))
        params = inspect.signature(cls).parameters
        param = data.draw(st.sampled_from(sorted(params)))
        value = BASE_ARGS.get(param, params[param].default)
        changed = data.draw(_other_value(value))
        try:
            other = cls(**{**BASE_ARGS, param: changed})
        except ValueError:
            reject()
        assert workload_fingerprint(cls(**BASE_ARGS)) != workload_fingerprint(other)

    @DETERMINISM_SETTINGS
    @given(data=st.data())
    def test_changed_nested_attribute_changes_fingerprint(self, data):
        base, other = PhasedWorkload(**BASE_ARGS), PhasedWorkload(**BASE_ARGS)
        sub = data.draw(st.sampled_from(["pressure", "quiet"]))
        public = sorted(k for k in vars(getattr(base, sub)) if not k.startswith("_"))
        attr = data.draw(st.sampled_from(public))
        value = getattr(getattr(base, sub), attr)
        setattr(getattr(other, sub), attr, data.draw(_other_value(value)))
        assert workload_fingerprint(base) != workload_fingerprint(other)
