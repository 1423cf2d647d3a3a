"""Scalar execution engine: the simulator's only scalar record loops.

Every record runs through ``Core.execute``.  Each core is a *lane* that
advances one record per round and sums its own cycles, and a run costs the
slowest lane's sum (multicore lock-step).  Two SMT threads share one lane:
the longer record hides all but ``overlap_residual`` of the shorter one.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..common.stats import SimStats

_NO_LIMIT = float("inf")


class ScalarEngine:
    """Runs lanes in lock-step rounds; ``total_records`` counts rounds."""

    __slots__ = ("total_records", "_stats", "_lanes", "_overlap_residual")

    def __init__(self, stats: SimStats, cores: Sequence, streams: Sequence[Iterator],
                 overlap_residual: Optional[float] = None) -> None:
        self._stats = stats
        #: ``(execute, advance)`` per lane, called directly in ``_run``.
        self._lanes = tuple((c.execute, s.__next__) for c, s in zip(cores, streams))
        self._overlap_residual = overlap_residual
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
        done = 0
        residual = self._overlap_residual
        if residual is not None:
            (execute0, advance0), (execute1, advance1) = self._lanes
            clock = 0.0
            while done < rounds and stats.instructions < instruction_limit:
                c0 = execute0(advance0())
                c1 = execute1(advance1())
                # max(c0, c1) + residual * min(c0, c1), ties to thread 0.
                if c0 < c1:
                    clock += c1 + residual * c0
                else:
                    clock += c0 + residual * c1
                done += 1
            self.total_records += done
            return clock
        lanes = tuple(enumerate(self._lanes))
        clocks = [0.0] * len(lanes)
        while done < rounds and stats.instructions < instruction_limit:
            for index, (execute, advance) in lanes:
                clocks[index] += execute(advance())
            done += 1
        self.total_records += done
        return max(clocks)
