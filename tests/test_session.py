"""The run session and its engines: one warmup → boundary → measure loop.

Covers the engine-choice rule (:func:`repro.kernel.engine_for`) at every
place a multi-stream run can ask for an engine — the drivers, ``SimJob``,
``job_key`` and the comparison CLI — plus the session's phase contract and
a record-bounded measure cell on either engine.
"""

from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.common.params import scaled_config
from repro.core.simulator import Session, is_smt_run, simulate, simulate_multicore, simulate_smt
from repro.experiments.runner import config_for
from repro.fabric import SimJob, job_key
from repro.kernel import ENGINE_ENV, BatchedEngine, ScalarEngine, engine_for
from repro.topology.presets import make_topology, table1
from repro.workloads.server import ServerWorkload


def small(seed):
    return ServerWorkload(
        f"sess{seed}", seed, code_pages=64, data_pages=2000,
        hot_data_pages=64, warm_pages=500, local_pages=32,
    )


class TestEngineFor:
    def test_one_stream_follows_the_request(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "batched")
        assert engine_for(None, 1) == "batched"
        assert engine_for("spec", 1) == "spec"

    def test_default_with_many_streams_runs_spec(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "batched")
        assert engine_for(None, 2) == "spec"
        assert engine_for(None, 4) == "spec"

    def test_explicit_batched_with_many_streams_raises(self):
        with pytest.raises(ValueError, match="one record stream"):
            engine_for("batched", 2)

    def test_unknown_engine_still_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            engine_for("vectorized", 2)


#: (workload count, topology) pairs that fit no machine.
BAD_SHAPES = [(1, "multicore-2"), (3, "table1"), (3, None), (3, "multicore-2")]


class TestWorkloadCount:
    """``Session`` and ``SimJob`` share one workload-count rule, so a bad
    job fails when it is built, not in a worker after dispatch."""

    @pytest.mark.parametrize("count, topology", BAD_SHAPES)
    def test_simjob_rejects_at_construction(self, count, topology):
        with pytest.raises(ValueError, match="workloads were given|one workload"):
            SimJob(scaled_config(), (small(1),) * count, 100, 1000, topology=topology)

    @pytest.mark.parametrize("count, topology", BAD_SHAPES)
    def test_session_rejects_the_same_shapes(self, count, topology):
        with pytest.raises(ValueError, match="workloads were given|one workload"):
            Session(scaled_config(), [small(1)] * count, topology)

    def test_two_workloads_are_smt_on_one_core_only(self):
        config = scaled_config()
        assert is_smt_run(make_topology("table1", config), 2)
        assert not is_smt_run(make_topology("table1", config), 1)
        assert not is_smt_run(make_topology("multicore-2", config), 2)


class TestMultiStreamEngine:
    def test_simulate_smt_rejects_batched(self):
        with pytest.raises(ValueError, match="one record stream"):
            simulate_smt(scaled_config(), [small(1), small(2)], 100, 200,
                         engine="batched")

    def test_simulate_multicore_rejects_batched(self):
        with pytest.raises(ValueError, match="one record stream"):
            simulate_multicore(scaled_config(), [small(1), small(2)], 100, 200,
                               engine="batched")

    def test_simjob_rejects_batched(self):
        with pytest.raises(ValueError, match="one record stream"):
            SimJob(scaled_config(), (small(1), small(2)), 100, 200,
                   engine="batched")
        with pytest.raises(ValueError, match="one record stream"):
            SimJob(scaled_config(), (small(1), small(2)), 100, 200,
                   topology="multicore-2", engine="batched")

    @pytest.mark.parametrize("topology", [None, "multicore-2"])
    def test_default_under_batched_env_keys_spec(self, monkeypatch, topology):
        pair = (small(1), small(2))
        pinned = SimJob(scaled_config(), pair, 100, 200, topology=topology,
                        engine="spec")
        monkeypatch.setenv(ENGINE_ENV, "batched")
        default = SimJob(scaled_config(), pair, 100, 200, topology=topology)
        assert job_key(default) == job_key(pinned)

    def test_default_under_batched_env_runs_spec(self, monkeypatch):
        spec = simulate_smt(scaled_config(), [small(1), small(2)], 1_000, 4_000)
        monkeypatch.setenv(ENGINE_ENV, "batched")
        default = simulate_smt(scaled_config(), [small(1), small(2)], 1_000, 4_000)
        assert default.metrics == spec.metrics

    def test_cli_exits_2_on_batched_multicore(self, capsys):
        status = cli_main(["--topology", "multicore-2", "--engine", "batched",
                           "--techniques", "lru"])
        assert status == 2
        assert "one record stream" in capsys.readouterr().err


class TestSession:
    @pytest.mark.parametrize("residual", [-1.0, 1.5, float("nan")])
    def test_overlap_residual_outside_unit_interval_rejected(self, residual):
        with pytest.raises(ValueError, match="overlap_residual"):
            Session(scaled_config(), [small(1), small(2)], overlap_residual=residual)
        with pytest.raises(ValueError, match="overlap_residual"):
            simulate_smt(scaled_config(), [small(1), small(2)], 100, 200,
                         overlap_residual=residual)

    @pytest.mark.parametrize("residual", [0.0, 1.0])
    def test_overlap_residual_bounds_accepted(self, residual):
        result = simulate_smt(scaled_config(), [small(1), small(2)], 100, 500,
                              overlap_residual=residual)
        assert result.stats.cycles > 0

    def test_boundary_resets_machine_and_engine(self):
        for engine in ("spec", "batched"):
            session = Session(config_for("lru"), [small(3)], engine=engine)
            session.warmup(2_000)
            assert session.system.stats.instructions == 0
            assert session.engine.total_records == 0

    def test_record_bounded_measure(self):
        for engine, kind in (("spec", ScalarEngine), ("batched", BatchedEngine)):
            session = Session(config_for("lru"), [small(3)], engine=engine)
            assert type(session.engine) is kind
            session.warmup(records=500)
            cycles = session.measure(records=1_500)
            assert session.engine.total_records == 1_500
            assert session.system.stats.cycles == cycles > 0

    def test_batched_delegates_rejected_machines_to_scalar(self):
        # A non-LRU L1I is outside the fast tiers' replay: the batched
        # engine must run the whole window scalar, count every record, and
        # stay bit-identical to spec.
        config = config_for("itp")
        spec = table1(config)
        topology = replace(spec, nodes=tuple(
            replace(n, policy="srrip") if n.name == "l1i" else n
            for n in spec.nodes
        ))
        session = Session(config, [small(4)], topology, "batched")
        session.warmup(records=300)
        session.measure(records=1_200)
        assert session.engine.total_records == 1_200
        assert session.engine.fast_path_coverage == 0.0
        results = [
            simulate(config, small(4), 1_000, 5_000, topology=topology,
                     engine=engine)
            for engine in ("spec", "batched")
        ]
        assert results[0].metrics == results[1].metrics

    def test_single_core_multicore_may_batch(self):
        runs = [
            simulate_multicore(scaled_config(), [small(5)], 1_000, 5_000,
                               engine=engine)
            for engine in ("spec", "batched")
        ]
        assert runs[0].stats.cycles == runs[1].stats.cycles
        assert runs[0].metrics == runs[1].metrics


class TestBenchCell:
    """A record-bounded measure window, run the same on either engine."""

    WARMUP, MEASURE = 600, 2_400

    def _cell(self, engine):
        session = Session(config_for("itp+xptp"), [small(6)], engine=engine)
        session.warmup(records=self.WARMUP)
        cycles = session.measure(records=self.MEASURE)
        stats = session.system.stats
        cell = {"engine": session.engine_name, "instructions": stats.instructions,
                "cycles": cycles, "ipc": stats.ipc}
        if session.engine_name == "batched":
            cell["fast_path_coverage"] = session.engine.fast_path_coverage
        return cell

    def test_engines_agree(self):
        spec, batched = self._cell("spec"), self._cell("batched")
        for key in ("instructions", "cycles", "ipc"):
            assert spec[key] == batched[key], key
        assert spec["engine"] == "spec" and batched["engine"] == "batched"
        assert "fast_path_coverage" not in spec

    def test_coverage_counts_only_the_measure_window(self):
        session = Session(config_for("itp+xptp"), [small(6)], engine="batched")
        session.warmup(records=self.WARMUP)
        session.measure(records=self.MEASURE)
        engine = session.engine
        assert engine.total_records == self.MEASURE
        covered = (engine.fast_records + engine.issue_records) / self.MEASURE
        assert self._cell("batched")["fast_path_coverage"] == covered
