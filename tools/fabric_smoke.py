"""CI smoke for the execution fabric's per-run dedup and result cache.

Runs two *overlapping* matrices built from the ``ablation_adaptive``
figure's plan as one job list through one two-worker
:class:`repro.fabric.ParallelRunner` with a cache directory, and asserts
the fabric's core invariants:

* each unique ``job_key`` is simulated exactly once, however many slots
  name it (``simulations == unique job_keys``);
* every slot is filled, in job order, and slots that name the same key
  hold the identical result object;
* a second run against the same cache directory is served entirely from
  the store (``simulations == 0``, ``cache_hits == unique job_keys``).

Usage: ``PYTHONPATH=src python tools/fabric_smoke.py [cache_dir]``
"""

from __future__ import annotations

import sys

from repro.experiments import FIGURES
from repro.fabric import ParallelRunner, job_key


def _overlapping_jobs():
    # Matrix B shares lru / always-on / T1 in {1, 2, 4} with matrix A and
    # contributes one novel cell (T1=8).
    plan = FIGURES["ablation_adaptive"].plan
    return plan(t1_values=(0, 1, 2, 4)).jobs() + plan(t1_values=(1, 2, 4, 8)).jobs()


def _run_pass(cache_dir: str, jobs) -> ParallelRunner:
    runner = ParallelRunner(workers=2, cache_dir=cache_dir, progress=True)
    results = runner.run(jobs)
    assert len(results) == len(jobs), (
        f"expected {len(jobs)} results, got {len(results)}"
    )
    by_key = {}
    for job, result in zip(jobs, results):
        assert result.workload == job.workload_name, (
            f"slot for {job.cell} holds {result.workload}: job order lost"
        )
        assert by_key.setdefault(job_key(job), result) is result, (
            f"duplicated cell {job.cell} resolved to two result objects"
        )
    return runner


def main() -> int:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else ".fabric-smoke-cache"
    jobs = _overlapping_jobs()
    unique = len({job_key(j) for j in jobs})

    cold = _run_pass(cache_dir, jobs)
    print(
        f"[fabric-smoke] cold run: {cold.simulations} simulated, "
        f"{cold.cache_hits} cache hits "
        f"({unique} unique job_keys across {len(jobs)} cells)"
    )
    assert cold.simulations == unique, (
        f"dedup invariant violated: {cold.simulations} simulations for "
        f"{unique} unique job_keys"
    )

    warm = _run_pass(cache_dir, jobs)
    print(
        f"[fabric-smoke] warm run: {warm.simulations} simulated, "
        f"{warm.cache_hits} cache hits"
    )
    assert warm.simulations == 0, (
        f"warm run re-simulated {warm.simulations} cell(s)"
    )
    assert warm.cache_hits == unique, (
        f"warm run expected {unique} cache hits, saw {warm.cache_hits}"
    )
    print("[fabric-smoke] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
