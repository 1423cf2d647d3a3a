"""Unit tests for the repro-compare CLI."""

import pytest

from repro.cli import build_parser, describe, main, make_workload
from repro.common.params import scaled_config
from repro.workloads.phased import PhasedWorkload
from repro.workloads.server import ServerWorkload
from repro.workloads.speclike import SpecLikeWorkload


class TestDescribe:
    def test_contains_structures_and_params(self):
        text = describe(scaled_config())
        for token in ("ITLB", "STLB", "L2C", "LLC", "DRAM", "K=8", "Freq=3b"):
            assert token in text

    def test_reflects_policies(self):
        text = describe(scaled_config().with_policies(stlb="itp", l2c="xptp"))
        assert "itp" in text
        assert "xptp" in text


class TestMakeWorkload:
    def test_kinds(self):
        assert isinstance(make_workload("server", 1), ServerWorkload)
        assert isinstance(make_workload("spec", 1), SpecLikeWorkload)
        assert isinstance(make_workload("phased", 1), PhasedWorkload)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_workload("redis", 1)


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "itp+xptp" in out
        assert "all-LRU baseline" in out

    def test_describe_flag(self, capsys):
        assert main(["--describe"]) == 0
        assert "STLB" in capsys.readouterr().out

    def test_unknown_technique(self, capsys):
        assert main(["--techniques", "belady"]) == 2
        assert "unknown technique" in capsys.readouterr().err

    def test_small_comparison(self, capsys):
        rc = main([
            "--techniques", "lru", "itp",
            "--warmup", "2000", "--measure", "8000", "--seed", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "technique" in out
        assert "itp" in out

    def test_topology_preset_run(self, capsys):
        rc = main([
            "--techniques", "lru", "--topology", "no-llc",
            "--warmup", "1000", "--measure", "5000",
        ])
        assert rc == 0
        assert "topology=no-llc" in capsys.readouterr().out

    @pytest.mark.parametrize("topology,missing,present", [
        ("multicore-2", "l2c_dtmpki", "llc_mpki"),
        ("no-llc", "llc_mpki", "l2c_dtmpki"),
    ])
    def test_metric_without_a_bucket_prints_na(self, capsys, topology, missing, present):
        rc = main([
            "--techniques", "lru", "--topology", topology,
            "--warmup", "1000", "--measure", "4000", "--workers", "1",
        ])
        assert rc == 0
        header, _, row = capsys.readouterr().out.splitlines()[:3]
        cells = dict(zip(header.split(), row.split()))
        assert cells[missing] == "n/a"
        assert cells[present] != "n/a"
        float(cells[present])

    def test_unknown_topology(self, capsys):
        assert main(["--topology", "ring"]) == 2
        assert "unknown topology" in capsys.readouterr().err

    @pytest.mark.parametrize("topology", ["multicore-2", "shared-l2"])
    def test_figure_cli_rejects_multicore_topology(self, capsys, topology):
        """Figure cells run on one core: the figure CLI refuses a multi-core
        preset before any figure runs, naming the single-core ones."""
        from repro.experiments import __main__ as figure_cli

        assert figure_cli.main(["--topology", topology, "fig10"]) == 2
        err = capsys.readouterr().err
        assert f"topology '{topology}' has 2 cores" in err
        assert "single-core presets: table1, split-stlb, no-llc" in err

    def test_energy_column(self, capsys):
        rc = main([
            "--techniques", "lru", "--energy",
            "--warmup", "1000", "--measure", "5000",
        ])
        assert rc == 0
        assert "pj_per_instr" in capsys.readouterr().out

    def test_large_pages_flag(self, capsys):
        rc = main([
            "--techniques", "lru", "--large-pages", "100",
            "--warmup", "1000", "--measure", "5000",
        ])
        assert rc == 0

    @pytest.mark.parametrize("flag,value", [
        ("--measure", "0"), ("--measure", "-5"), ("--warmup", "-1"),
    ])
    def test_empty_or_negative_window_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["--techniques", "lru", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_zero_warmup_runs(self, capsys):
        assert main(["--techniques", "lru", "--warmup", "0", "--measure", "2000",
                     "--workers", "1"]) == 0

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "server"
        assert args.techniques == ["lru", "itp", "itp+xptp"]

    def test_workers_auto(self, capsys):
        # The runner flags are shared with ``python -m repro.experiments``,
        # which has always taken ``auto``.
        assert main(["--techniques", "lru", "--workers", "auto",
                     "--warmup", "1000", "--measure", "4000"]) == 0

    def test_workers_rejects_a_word(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--workers", "many"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
