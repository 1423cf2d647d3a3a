"""Access-stream probes: connect the simulator to the offline analyzers.

An :class:`AccessProbe` wraps any memory level (cache or DRAM) and records
the line addresses of the requests flowing into it, optionally filtered by
request type.  The captured stream feeds the offline tools — e.g. compute
the Belady optimality gap of the L2C's replacement policy, or the stack
distance profile of the page-walk reference stream xPTP competes for.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..common.types import MemoryRequest, RequestType
from .belady import BeladyResult, belady_set_assoc
from .stack_distance import StackDistanceAnalyzer, StackDistanceProfile


class AccessProbe:
    """Transparent recorder inserted between two memory levels."""

    def __init__(
        self,
        next_level,
        accept: Optional[Callable[[MemoryRequest], bool]] = None,
        capacity: Optional[int] = None,
    ) -> None:
        self.next_level = next_level
        # Default filter: the allocation-relevant stream the level's
        # replacement policy manages — demand and page-walk requests.
        # Writebacks are absorbed without replacement decisions and
        # prefetch-through requests never allocate (docs/simulator.md).
        self.accept = accept or (
            lambda req: req.req_type
            not in (RequestType.WRITEBACK, RequestType.PREFETCH)
        )
        self.capacity = capacity
        self.line_addresses: List[int] = []
        self.dropped = 0

    def access(self, req: MemoryRequest) -> int:
        if self.accept(req):
            if self.capacity is None or len(self.line_addresses) < self.capacity:
                self.line_addresses.append(req.line_address)
            else:
                self.dropped += 1
        return self.next_level.access(req)

    # ------------------------------------------------------------------ #

    def belady_gap(self, num_sets: int, associativity: int, policy_misses: int) -> float:
        """How far ``policy_misses`` is above the offline optimum (ratio)."""
        optimum = self.optimal(num_sets, associativity).misses
        if optimum == 0:
            return 0.0 if policy_misses == 0 else float("inf")
        return policy_misses / optimum

    def optimal(self, num_sets: int, associativity: int) -> BeladyResult:
        """Offline-optimal hit/miss counts for the captured stream."""
        return belady_set_assoc(self.line_addresses, num_sets, associativity)

    def stack_profile(self) -> StackDistanceProfile:
        """Mattson profile of the captured stream (fully-associative LRU)."""
        return StackDistanceAnalyzer().run(self.line_addresses)


def probe_cache_input(system, level: str = "l2c", **kwargs) -> AccessProbe:
    """Wrap a :class:`repro.core.system.System` level with an input probe.

    ``level`` is one of ``l2c``, ``llc``, ``dram``.  All upstream pointers
    to that level are rewired through the probe, so the captured stream is
    exactly the demand+walk traffic the level's replacement policy sees.
    """
    if level == "l2c":
        probe = AccessProbe(system.l2c, **kwargs)
        system.l1i.next_level = probe
        system.l1d.next_level = probe
        system.walker.memory_level = probe
        return probe
    if level == "llc":
        probe = AccessProbe(system.llc, **kwargs)
        system.l2c.next_level = probe
        return probe
    if level == "dram":
        probe = AccessProbe(system.dram, **kwargs)
        system.llc.next_level = probe
        return probe
    raise ValueError(f"unknown level {level!r}; choose l2c, llc or dram")
