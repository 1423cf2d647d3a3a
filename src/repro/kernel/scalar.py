"""Scalar execution engine: the simulator's only scalar record loops.

Every record runs through ``Core.execute``.  Each core is a *lane* that
advances one record per round and sums its own cycles, and a run costs the
slowest lane's sum (multicore lock-step).  Two SMT threads share one lane:
the longer record hides all but ``overlap_residual`` of the shorter one.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from ..common.stats import SimStats

_NO_LIMIT = float("inf")


def _step(core, stream: Iterator) -> Callable[[], float]:
    execute = core.execute
    advance = stream.__next__
    return lambda: execute(advance())


class ScalarEngine:
    """Runs lanes in lock-step rounds; ``total_records`` counts rounds."""

    __slots__ = ("total_records", "_stats", "_lanes")

    def __init__(self, stats: SimStats, cores: Sequence, streams: Sequence[Iterator],
                 overlap_residual: Optional[float] = None) -> None:
        self._stats = stats
        self._lanes = tuple(_step(c, s) for c, s in zip(cores, streams))
        if overlap_residual is not None:
            first, second = self._lanes

            def smt() -> float:
                c0, c1 = first(), second()
                return max(c0, c1) + overlap_residual * min(c0, c1)

            self._lanes = (smt,)
        self.total_records = 0

    def reset_stats(self) -> None:
        self.total_records = 0

    def run_until(self, instruction_limit: float) -> float:
        """Run rounds while ``stats.instructions < instruction_limit``
        (checked before each round); returns this call's cycles."""
        return self._run(instruction_limit, _NO_LIMIT)

    def run_records(self, record_count: int) -> float:
        return self._run(_NO_LIMIT, record_count)

    def _run(self, instruction_limit: float, rounds: float) -> float:
        stats = self._stats
        lanes = tuple(enumerate(self._lanes))
        clocks = [0.0] * len(lanes)
        done = 0
        while done < rounds and stats.instructions < instruction_limit:
            for index, step in lanes:
                clocks[index] += step()
            done += 1
        self.total_records += done
        return max(clocks)
