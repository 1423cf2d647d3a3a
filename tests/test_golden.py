"""Golden regression tests.

The simulator is deterministic end to end (seeded RNGs everywhere), so a
fixed workload/config pair must reproduce the same headline metrics on
every run.  These tests freeze a small scenario's outputs with loose
tolerances (±10 %) — wide enough to survive intentional model retuning
only if it is *declared* by updating the constants here, and tight enough
to catch accidental behavioural drift in the substrate.
"""

import hashlib

import pytest

from repro.common.params import TABLE1, scaled_config
from repro.common.recency import NaiveRecencyStack
from repro.core.simulator import simulate, simulate_multicore, simulate_smt
from repro.replacement.lru import LRUPolicy
from repro.tlb.policies.lru import TLBLRUPolicy
from repro.workloads.server import ServerWorkload

GOLDEN_WORKLOAD = dict(
    code_pages=128, data_pages=4000, hot_data_pages=96, warm_pages=1200,
    local_pages=32, seed=2024,
)


@pytest.fixture(scope="module")
def golden_run():
    wl = ServerWorkload("golden", **GOLDEN_WORKLOAD)
    return simulate(scaled_config(), wl, 30_000, 100_000)


class TestGoldenMetrics:
    def test_ipc(self, golden_run):
        assert golden_run.ipc == pytest.approx(0.747, rel=0.10)

    def test_stlb_mpki(self, golden_run):
        assert golden_run.get("stlb.mpki") == pytest.approx(7.7, rel=0.15)

    def test_instruction_share(self, golden_run):
        impki = golden_run.get("stlb.impki")
        dmpki = golden_run.get("stlb.dmpki")
        assert 0.1 < impki / dmpki < 0.8

    def test_llc_mpki_band(self, golden_run):
        assert 5.0 < golden_run.get("llc.mpki") < 40.0

    def test_exact_repeatability(self, golden_run):
        wl = ServerWorkload("golden", **GOLDEN_WORKLOAD)
        again = simulate(scaled_config(), wl, 30_000, 100_000)
        assert again.metrics == golden_run.metrics


class TestStackBitIdentity:
    """The production recency stack must be *bit-identical* to the seed's
    list-based stack: one full (technique, workload) cell run on each
    implementation has to produce exactly the same metric report, not merely
    similar numbers.

    The iTP+xPTP cell is the discriminating one — it exercises every stack
    operation the paper's policies use: ``place_at_depth`` (iTP's MRU-N
    insert), ``place_above_lru`` (iTP's LRU+M data promotion),
    ``ways_from_lru`` (xPTP's victim scan), ``touch`` and eviction cleanup.
    """

    CELL_WORKLOAD = dict(
        code_pages=96, data_pages=3000, hot_data_pages=64, warm_pages=800,
        local_pages=16, seed=7,
    )

    def _run_cell(self):
        cfg = scaled_config().with_policies(stlb="itp", l2c="xptp")
        wl = ServerWorkload("bit_identity", **self.CELL_WORKLOAD)
        return simulate(cfg, wl, 10_000, 40_000)

    def test_linked_stack_cell_matches_naive_reference(self, monkeypatch):
        fast = self._run_cell()
        # Swap the reference model in under every stack-based policy (iTP,
        # xPTP, PTP, CHiRP and problru all subclass the two LRU policies).
        monkeypatch.setattr(LRUPolicy, "stack_cls", NaiveRecencyStack)
        monkeypatch.setattr(TLBLRUPolicy, "stack_cls", NaiveRecencyStack)
        slow = self._run_cell()
        assert slow.metrics == fast.metrics


class TestFullScaleTable1:
    """The unscaled Table 1 system must also run (short smoke)."""

    def test_table1_smoke(self):
        wl = ServerWorkload("full", seed=5)
        result = simulate(TABLE1, wl, 5_000, 20_000)
        assert result.ipc > 0
        # At full scale the structures dwarf the (scaled) workload, so the
        # system is much faster than the scaled golden run.
        assert result.get("stlb.mpki") < 25.0

    def test_table1_with_itp_xptp(self):
        wl = ServerWorkload("full", seed=5)
        cfg = TABLE1.with_policies(stlb="itp", l2c="xptp")
        result = simulate(cfg, wl, 5_000, 20_000)
        assert result.ipc > 0


class TestMultiStreamDigests:
    """SMT and multicore runs, pinned bit for bit.

    Each digest is a sha256 over the sorted metric report of one small run
    (iTP+xPTP so the adaptive and xPTP exports are live).  Unlike the
    tolerance checks above, any change to a multi-stream metric — the SMT
    overlap step, the multicore lock-step rounds, the warmup boundary or
    the exports — must be declared by updating a digest here.
    """

    CONFIG = scaled_config().with_policies(stlb="itp", l2c="xptp")

    @staticmethod
    def _workload(seed):
        return ServerWorkload(
            f"pin{seed}", seed, code_pages=64, data_pages=2000,
            hot_data_pages=64, warm_pages=500, local_pages=32,
        )

    @staticmethod
    def _digest(result):
        report = repr(sorted(result.metrics.items())).encode("utf-8")
        return hashlib.sha256(report).hexdigest()

    def test_smt_digest(self):
        pair = [self._workload(1), self._workload(2)]
        result = simulate_smt(self.CONFIG, pair, 2_000, 12_000)
        assert self._digest(result) == (
            "ee08c51f9dac362c56f1bacda0aaf16812a7405744e3109c8b68d483c1f7a882"
        )

    def test_multicore_digest(self):
        pair = [self._workload(3), self._workload(4)]
        result = simulate_multicore(self.CONFIG, pair, 2_000, 12_000)
        assert self._digest(result) == (
            "0d3c1fa71da0717963f44e198e16ce4039400da550d698989c14c9108b823316"
        )
