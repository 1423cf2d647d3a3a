"""Every registry figure at smoke scale, byte for byte.

Each figure runs its full sweep values at smoke scale (one server and
one SPEC workload, one SMT mix per category, 3k + 12k instructions) and
every table it writes must equal the committed CSV under
``tests/data/smoke/``.  The CSVs pin the reducers' arithmetic and row
order, so a refactor of plans or reducers that changes any number fails
here.  The paper's claims are checked at bench scale by ``benchmarks/``;
here they only have to evaluate.  One module-scoped result cache lets
figures that share cells (fig08, fig09, fig10, ...) simulate them once.
"""

import dataclasses
import functools
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import FIGURES
from repro.experiments.export import write_csv
from repro.fabric import ParallelRunner, job_key

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
SMOKE = dict(
    server_count=1, spec_count=1, per_category=1, warmup=3000, measure=12000,
    phase_records=1000,
)


def smoke_scale(figure):
    """The smoke-scale keywords ``figure.plan`` takes."""
    return {k: v for k, v in SMOKE.items() if k in inspect.signature(figure.plan).parameters}


class CountingRunner(ParallelRunner):
    """Counts submissions (``run`` and ``run_iter`` calls)."""

    submissions = 0

    def run_iter(self, jobs):
        self.submissions += 1
        return super().run_iter(jobs)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``name -> (results, submissions, csv paths)``, each figure run once."""
    runner = CountingRunner(workers=1, cache_dir=tmp_path_factory.mktemp("cache"))
    out = tmp_path_factory.mktemp("csv")
    runs = {}

    def run(name):
        if name not in runs:
            figure = FIGURES[name]
            before = runner.submissions
            results = figure.run(runner, **smoke_scale(figure))
            paths = [write_csv(result, out) for result in results]
            runs[name] = (results, runner.submissions - before, paths)
        return runs[name]

    return run


def check(smoke, name):
    results, submissions, paths = smoke(name)
    for path in paths:
        assert path.read_bytes() == (DATA / "smoke" / path.name).read_bytes(), path.name
    verdicts = FIGURES[name].claims(results)
    assert verdicts and all(isinstance(v, bool) for v in verdicts.values())
    return results


class TestRegistry:
    def test_every_figure_makes_one_submission(self, smoke):
        for name in FIGURES:
            assert smoke(name)[1] == 1, name

    def test_every_table_has_a_golden_csv(self, smoke):
        written = {path.name for name in FIGURES for path in smoke(name)[2]}
        assert written == {path.name for path in (DATA / "smoke").glob("*.csv")}

    def test_claims_table_names_every_registry_claim(self, smoke):
        """EXPERIMENTS.md's verdict table lists exactly the registry's
        claims, in registry order (names only; verdicts vary by scale)."""
        text = (ROOT / "EXPERIMENTS.md").read_text()
        table = text.split("## Claims: verdicts", 1)[1].split("\n## ", 1)[0]
        rows = [
            tuple(field.strip().strip("`") for field in line.split("|")[1:3])
            for line in table.splitlines()
            if line.startswith("| `")
        ]
        assert rows == [
            (name, claim) for name in FIGURES for claim in FIGURES[name].claims(smoke(name)[0])
        ]

    def test_plans_submit_no_cell_twice(self):
        for name, figure in FIGURES.items():
            jobs = figure.plan(**smoke_scale(figure)).jobs()
            assert len({job_key(job) for job in jobs}) == len(jobs), name


class TestJobKeys:
    def test_table_is_pinned_under_another_hash_seed(self):
        """Every figure plan (default and bench scale) and every perfbench
        plan keys exactly as committed, in a fresh interpreter with a
        different string-hash seed."""
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "job_keys.py")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert json.loads(out) == json.loads((DATA / "job_keys.json").read_text())


class TestMotivationDrivers:
    def test_fig01(self, smoke):
        check(smoke, "fig01")

    def test_fig02(self, smoke):
        check(smoke, "fig02")

    def test_fig03(self, smoke):
        check(smoke, "fig03")

    def test_fig04(self, smoke):
        check(smoke, "fig04")


class TestEvaluationDrivers:
    def test_fig08(self, smoke):
        single, smt, _by_category = check(smoke, "fig08")
        assert len(single.rows) == len(smt.rows) == 10  # the full Table 2 matrix

    def test_fig09(self, smoke):
        check(smoke, "fig09")

    def test_fig10(self, smoke):
        check(smoke, "fig10")

    def test_fig11(self, smoke):
        check(smoke, "fig11")

    def test_fig12(self, smoke):
        check(smoke, "fig12")

    def test_fig13(self, smoke):
        check(smoke, "fig13")

    def test_fig14(self, smoke):
        check(smoke, "fig14")


class TestAblationDrivers:
    def test_ablation_nm(self, smoke):
        assert check(smoke, "ablation_params")[0].figure == "Ablation N/M"

    def test_ablation_k(self, smoke):
        assert check(smoke, "ablation_params")[1].figure == "Ablation K"

    def test_ablation_adaptive(self, smoke):
        check(smoke, "ablation_adaptive")

    def test_ext_stlb_prefetch(self, smoke):
        check(smoke, "ext_stlb_prefetch")


class TestSMTCategoryBreakdown:
    def test_rows_per_category(self, smoke):
        """A third reducer over fig08's SMT cells: no cells of its own."""
        by_category = check(smoke, "fig08")[2]
        assert {row[0] for row in by_category.rows} == {"intense", "medium", "relaxed"}


def small(name):
    """``FIGURES[name]`` with its plan pinned to smoke scale."""
    figure = FIGURES[name]
    return dataclasses.replace(figure, plan=functools.partial(figure.plan, **smoke_scale(figure)))


class TestCLI:
    def test_main_runs_one_figure(self, capsys, monkeypatch):
        from repro.experiments import __main__ as cli

        monkeypatch.setitem(cli.FIGURES, "fig02", small("fig02"))
        assert cli.main(["--workers", "1", "fig02"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "[claim holds: fig02: server mean iMPKI > 0.5]" in out

    def test_main_rejects_unknown(self, capsys):
        from repro.experiments import __main__ as cli

        assert cli.main(["fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_repeated_workers_takes_the_last(self, capsys, monkeypatch):
        from repro.experiments import __main__ as cli

        monkeypatch.setitem(cli.FIGURES, "fig02", small("fig02"))
        assert cli.main(["--workers", "auto", "--workers", "1", "fig02"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--workers", "abc"], ["--workers"], ["--max-retries", "two"],
        ["--cell-timeout", "soon"], ["--failure-policy", "bogus"], ["--topology", "ring"],
    ])
    def test_bad_runner_flags_are_usage_errors(self, capsys, argv):
        from repro.experiments import __main__ as cli

        assert cli.main(argv + ["fig02"]) == 2
        assert capsys.readouterr().err
