"""Unit tests for the experiment harness (runner, reporting)."""

import pytest

from repro.common.stats import SimStats
from repro.core.simulator import SimulationResult
from repro.experiments.reporting import FigureResult, format_figure, format_table
from repro.experiments.runner import (
    Comparison,
    POLICY_MATRIX,
    config_for,
    geomean,
)


def result_with_ipc(ipc, **metrics):
    stats = SimStats()
    stats.instructions = 1000
    stats.cycles = 1000 / ipc
    res = SimulationResult("w", "t", stats)
    res.metrics.update(metrics)
    return res


class TestPolicyMatrix:
    def test_table2_contents(self):
        assert list(POLICY_MATRIX) == [
            "lru", "tdrrip", "ptp", "chirp", "chirp+tdrrip", "chirp+ptp",
            "itp", "itp+tdrrip", "itp+ptp", "itp+xptp",
        ]

    def test_config_for_itp_xptp(self):
        cfg = config_for("itp+xptp")
        assert cfg.stlb_policy == "itp"
        assert cfg.l2c_policy == "xptp"
        assert cfg.llc_policy == "lru"

    def test_config_for_baseline(self):
        cfg = config_for("lru")
        assert cfg.stlb_policy == "lru"
        assert cfg.l2c_policy == "lru"

    def test_config_for_respects_base(self):
        from repro.common.params import scaled_config

        base = scaled_config().with_policies(llc="ship")
        cfg = config_for("itp", base)
        assert cfg.llc_policy == "ship"
        assert cfg.stlb_policy == "itp"

    def test_unknown_technique(self):
        with pytest.raises(ValueError, match="unknown technique"):
            config_for("magic")


class TestGeomean:
    def test_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_single(self):
        assert geomean([1.1]) == pytest.approx(1.1)


class TestComparison:
    def make(self):
        comparison = Comparison(baseline="lru")
        comparison.results["lru"] = {
            "w0": result_with_ipc(1.0, **{"stlb.mpki": 2.0}),
            "w1": result_with_ipc(2.0, **{"stlb.mpki": 4.0}),
        }
        comparison.results["itp"] = {
            "w0": result_with_ipc(1.1, **{"stlb.mpki": 1.0}),
            "w1": result_with_ipc(2.2, **{"stlb.mpki": 3.0}),
        }
        return comparison

    def test_speedups(self):
        comparison = self.make()
        assert comparison.speedups("itp") == pytest.approx([1.1, 1.1])

    def test_geomean_improvement(self):
        comparison = self.make()
        assert comparison.geomean_improvement_percent("itp") == pytest.approx(10.0)
        assert comparison.geomean_improvement_percent("lru") == pytest.approx(0.0)

    def test_mean_metric(self):
        comparison = self.make()
        assert comparison.mean_metric("lru", "stlb.mpki") == pytest.approx(3.0)


class TestReporting:
    def test_figure_result_row_validation(self):
        fig = FigureResult("F", "d", headers=["a", "b"])
        fig.add_row(1, 2)
        with pytest.raises(ValueError):
            fig.add_row(1)

    def test_column_extraction(self):
        fig = FigureResult("F", "d", headers=["a", "b"])
        fig.add_row(1, 2)
        fig.add_row(3, 4)
        assert fig.column("b") == [2, 4]
        assert fig.as_dicts()[0] == {"a": 1, "b": 2}

    def test_format_table_aligned(self):
        text = format_table(["name", "v"], [["x", 1.23456], ["long", 2.0]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.235" in text
        assert len(lines) == 4

    def test_format_figure_includes_notes(self):
        fig = FigureResult("Figure X", "demo", headers=["a"], notes=["hello"])
        fig.add_row(1)
        text = format_figure(fig)
        assert "Figure X" in text
        assert "note: hello" in text


class TestExport:
    def make_figure(self):
        fig = FigureResult("Figure 2", "demo", headers=["a", "b"])
        fig.add_row("x", 1.5)
        fig.add_row("y", 2.5)
        return fig

    def test_csv_roundtrip(self, tmp_path):
        from repro.experiments.export import read_csv, write_csv

        path = write_csv(self.make_figure(), tmp_path)
        assert path.name == "figure_2.csv"
        loaded = read_csv(path)
        assert loaded.headers == ["a", "b"]
        assert loaded.rows == [["x", "1.5"], ["y", "2.5"]]

    def test_json_export(self, tmp_path):
        import json

        from repro.experiments.export import write_json

        path = write_json([self.make_figure()], tmp_path / "out.json")
        payload = json.loads(path.read_text())
        assert payload[0]["figure"] == "Figure 2"
        assert payload[0]["rows"] == [["x", 1.5], ["y", 2.5]]

    def test_cli_csv_dir(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import __main__ as cli
        from repro.experiments.runner import Figure, Plan

        figure = Figure("figtest", lambda: Plan({}), (lambda grid: self.make_figure(),),
                        lambda results: {})
        monkeypatch.setitem(cli.FIGURES, "figtest", figure)
        assert cli.main(["--workers", "1", "--csv-dir", str(tmp_path), "figtest"]) == 0
        assert (tmp_path / "figure_2.csv").exists()

    def test_cli_csv_dir_missing_arg(self, capsys):
        from repro.experiments import __main__ as cli

        assert cli.main(["--csv-dir"]) == 2


class TestComparisonEdgeCases:
    def test_zero_ipc_baseline_skipped(self):
        comparison = Comparison(baseline="lru")
        zero = result_with_ipc(1.0)
        zero.stats.cycles = 0.0
        zero.stats.instructions = 0
        comparison.results["lru"] = {"w0": zero, "w1": result_with_ipc(2.0)}
        comparison.results["itp"] = {"w0": result_with_ipc(1.0), "w1": result_with_ipc(2.2)}
        # The zero-IPC baseline workload is excluded, not a crash.
        assert comparison.speedups("itp") == [pytest.approx(1.1)]

    def test_mean_metric_empty(self):
        comparison = Comparison(baseline="lru")
        comparison.results["lru"] = {}
        assert comparison.mean_metric("lru", "x") == 0.0
