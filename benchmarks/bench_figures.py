"""Every registry figure at its bench scale, with its claims checked.

One benchmark per entry of :data:`repro.experiments.FIGURES`: the figure's
whole plan runs once under pytest-benchmark at ``figure.bench`` scale, its
tables print and go into ``extra_info``, and every named claim (the
paper's orderings, see EXPERIMENTS.md) must hold.
"""

import pytest

from repro.experiments import FIGURES
from repro.experiments.reporting import format_figure


@pytest.mark.parametrize("name", FIGURES)
def test_figure(benchmark, repro_runner, name):
    figure = FIGURES[name]
    results = benchmark.pedantic(
        lambda: figure.run(repro_runner, **figure.bench), rounds=1, iterations=1
    )
    for result in results:
        print()
        print(format_figure(result))
        benchmark.extra_info[result.figure] = result.as_dicts()
    verdicts = figure.claims(results)
    benchmark.extra_info["claims"] = verdicts
    assert all(verdicts.values()), [claim for claim, holds in verdicts.items() if not holds]
