"""Print the content addresses (``job_key``s) of every experiment plan.

The table covers each figure of ``repro.experiments.FIGURES`` at its
default scale and at its benchmark scale, plus ``perfbench/run.py``'s
plans for every workload at seeds 0 and 7919.  Building a plan simulates
nothing, so the table takes a few seconds.  ``tests/data/job_keys.json``
pins it: a refactor that moves a key silently invalidates result caches
and changes what a figure measures.

Usage: ``PYTHONPATH=src python tools/job_keys.py > tests/data/job_keys.json``
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from repro.experiments import FIGURES
from repro.fabric import job_key

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_SEEDS = (0, 7919)
PERFBENCH_WORKLOADS = ("server_fig08", "speclike_hits", "smt_mix")


def _keys(jobs) -> list:
    return sorted({job_key(job) for job in jobs})


def _perfbench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def table() -> dict:
    perfbench = _perfbench()
    return {
        "figures": {name: _keys(f.plan().jobs()) for name, f in FIGURES.items()},
        "bench": {name: _keys(f.plan(**f.bench).jobs()) for name, f in FIGURES.items()},
        "perfbench": {
            f"{workload}@{seed}": sorted(set(perfbench.build_plan(workload, seed).keys))
            for seed in PERFBENCH_SEEDS
            for workload in PERFBENCH_WORKLOADS
        },
    }


if __name__ == "__main__":
    json.dump(table(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
