"""The paper's figures as data: one registry entry per figure.

Each module under this package defines one :class:`Figure` entry — its
plan (variants x cells), its reducers (result grid -> ``FigureResult``)
and its named claims — and :data:`FIGURES` lists them in paper order.
Run everything from the command line::

    python -m repro.experiments            # all figures (slow)
    python -m repro.experiments fig08      # one figure

or call ``FIGURES[name].run(**scale)`` from Python.  The benchmark suite
under ``benchmarks/`` checks every entry's claims at its ``bench`` scale.
"""

from . import (
    ablation_adaptive,
    ablation_params,
    ext_stlb_prefetch,
    fig01_itlb_cost,
    fig02_stlb_impki,
    fig03_probabilistic,
    fig04_mpki_breakdown,
    fig08_main_comparison,
    fig09_mpki_latency,
    fig10_stlb_breakdown,
    fig11_llc_sensitivity,
    fig12_itlb_sensitivity,
    fig13_large_pages,
    fig14_split_stlb,
)
from .reporting import FigureResult, format_figure, format_table
from .runner import (
    MEASURE,
    POLICY_MATRIX,
    WARMUP,
    Comparison,
    Figure,
    Plan,
    Sweep,
    config_for,
    geomean,
    run_plan,
)

#: Every figure entry by CLI name, in paper order.
FIGURES = {
    module.FIGURE.name: module.FIGURE
    for module in (
        fig01_itlb_cost,
        fig02_stlb_impki,
        fig03_probabilistic,
        fig04_mpki_breakdown,
        fig08_main_comparison,
        fig09_mpki_latency,
        fig10_stlb_breakdown,
        fig11_llc_sensitivity,
        fig12_itlb_sensitivity,
        fig13_large_pages,
        fig14_split_stlb,
        ablation_params,
        ablation_adaptive,
        ext_stlb_prefetch,
    )
}

__all__ = [
    "Comparison",
    "FIGURES",
    "Figure",
    "FigureResult",
    "MEASURE",
    "POLICY_MATRIX",
    "Plan",
    "Sweep",
    "WARMUP",
    "config_for",
    "format_figure",
    "format_table",
    "geomean",
    "run_plan",
]
