"""CI smoke for the execution fabric's cross-submission dedup.

Submits two *overlapping* matrices built from the ``ablation_adaptive``
figure's plan concurrently (two consumer threads, one
:class:`repro.fabric.Scheduler`, one shared cache directory) and asserts
the fabric's core invariants:

* each unique ``job_key`` is simulated exactly once, no matter how many
  submissions name it (``simulations == unique job_keys``);
* every submission still receives a complete, order-preserved result list;
* a second pair of submissions against the same cache directory is served
  entirely from the store (``simulations == 0``).

Usage: ``PYTHONPATH=src python tools/fabric_smoke.py [cache_dir]``
"""

from __future__ import annotations

import sys
import threading
from typing import List, Optional

from repro.core.simulator import SimulationResult
from repro.experiments import FIGURES
from repro.fabric import Scheduler, SchedulerConfig, job_key
from repro.fabric.store import ResultCache


def _overlapping_matrices():
    # Matrix B shares lru / always-on / T1 in {1, 2, 4} with matrix A and
    # contributes one novel cell (T1=8).
    plan = FIGURES["ablation_adaptive"].plan
    return plan(t1_values=(0, 1, 2, 4)).jobs(), plan(t1_values=(1, 2, 4, 8)).jobs()


def _run_pass(cache_dir: str, workers: int = 2) -> Scheduler:
    jobs_a, jobs_b = _overlapping_matrices()
    scheduler = Scheduler(
        SchedulerConfig.from_knobs(workers, True), cache=ResultCache(cache_dir)
    )
    results: List[Optional[List[SimulationResult]]] = [None, None]
    errors: List[BaseException] = []

    def consume(slot: int, jobs) -> None:
        try:
            results[slot] = scheduler.submit(jobs).collect()
        except BaseException as exc:  # surfaced below with a real traceback
            errors.append(exc)

    threads = [
        threading.Thread(target=consume, args=(0, jobs_a)),
        threading.Thread(target=consume, args=(1, jobs_b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]

    for slot, jobs in ((0, jobs_a), (1, jobs_b)):
        got = results[slot]
        assert got is not None and len(got) == len(jobs), (
            f"submission {slot}: expected {len(jobs)} results, got "
            f"{None if got is None else len(got)}"
        )
        assert all(r is not None for r in got), f"submission {slot}: missing cells"
    # Order preservation: overlapping cells must resolve to the same result
    # object in both submissions, at the index their own matrix put them.
    keys_a = [job_key(j) for j in jobs_a]
    keys_b = [job_key(j) for j in jobs_b]
    shared = {k: results[0][i] for i, k in enumerate(keys_a) if k in set(keys_b)}
    for i, k in enumerate(keys_b):
        if k in shared:
            assert results[1][i] is shared[k], (
                f"overlapping cell {jobs_b[i].cell} diverged between submissions"
            )
    scheduler.close()
    return scheduler


def main() -> int:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else ".fabric-smoke-cache"
    jobs_a, jobs_b = _overlapping_matrices()
    unique = len({job_key(j) for j in jobs_a + jobs_b})
    overlap = len(jobs_a) + len(jobs_b) - unique

    cold = _run_pass(cache_dir)
    print(
        f"[fabric-smoke] cold pass: {cold.simulations} simulated, "
        f"{cold.dedup_hits} dedup hits, {cold.cache_hits} cache hits "
        f"({unique} unique job_keys across {len(jobs_a) + len(jobs_b)} cells)"
    )
    assert cold.simulations == unique, (
        f"dedup invariant violated: {cold.simulations} simulations for "
        f"{unique} unique job_keys"
    )
    assert cold.dedup_hits == overlap, (
        f"expected {overlap} dedup hits, saw {cold.dedup_hits}"
    )

    warm = _run_pass(cache_dir)
    print(
        f"[fabric-smoke] warm pass: {warm.simulations} simulated, "
        f"{warm.cache_hits} cache hits"
    )
    assert warm.simulations == 0, (
        f"warm pass re-simulated {warm.simulations} cell(s)"
    )
    assert warm.cache_hits == unique, (
        f"warm pass expected {unique} cache hits, saw {warm.cache_hits}"
    )
    print("[fabric-smoke] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
