"""Runtime invariant checking — the ``REPRO_CHECK=1`` debug mode.

The hot path rests on hand-maintained invariants: the production list
:class:`~repro.common.recency.RecencyStack` must stay order-identical to the
naive executable specification, the synchronous hierarchy must drain every
MSHR file before a quiescent point, and the Figure 7 ``Type`` bit must
survive MSHR merges.  ``repro.lint`` enforces the *structural* half of those
invariants statically; this module enforces the *behavioural* half at
runtime, differentially, when the ``REPRO_CHECK`` environment variable is
truthy:

* every recency stack built by an LRU-family policy is replaced by
  :class:`CheckedRecencyStack`, which drives the production stack and the
  naive reference model in lockstep and compares their MRU→LRU orders after
  every mutation;
* every MSHR file is replaced by :class:`repro.cache.mshr.CheckedMSHRFile`,
  which keeps a shadow copy of each entry's PTE ``Type`` bits and verifies
  the merge strengthening rule (once data-PTE, always data-PTE) and that
  released entries still carry the bits they were allocated with;
* :meth:`repro.core.system.System.reset_stats` asserts that no MSHR file
  of any core holds a leaked entry at the warmup/measurement boundary (the
  model is synchronous: every ``access`` call releases what it allocates).

The default (``REPRO_CHECK`` unset or ``0``) changes nothing: the factories
return the production classes, so the benchmark gate and the golden
bit-identity guarantees are untouched.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Iterator, List, Type, Union

from .recency import NaiveRecencyStack, RecencyStack

if TYPE_CHECKING:  # pragma: no cover
    from ..core.system import System

#: Environment variable enabling the runtime checks.
ENV_VAR = "REPRO_CHECK"

_FALSEY = ("", "0", "false", "no", "off")


class InvariantViolation(AssertionError):
    """A runtime invariant of the simulator was broken."""


def enabled() -> bool:
    """True iff ``REPRO_CHECK`` is set to a truthy value."""
    return os.environ.get(ENV_VAR, "0").strip().lower() not in _FALSEY


# --------------------------------------------------------------------------- #
# Differential recency stack
# --------------------------------------------------------------------------- #

StackLike = Union[RecencyStack, NaiveRecencyStack, "CheckedRecencyStack"]


class CheckedRecencyStack:
    """Drives :class:`RecencyStack` and :class:`NaiveRecencyStack` in lockstep.

    Reads are served by the production stack; every mutation is applied to
    both implementations and the full MRU→LRU orders are compared, so any
    divergence is caught at the exact operation that introduced it.
    """

    __slots__ = ("_fast", "_ref")

    def __init__(self) -> None:
        self._fast = RecencyStack()
        self._ref = NaiveRecencyStack()

    # -- verification ---------------------------------------------------- #

    def _verify(self, op: str) -> None:
        fast = self._fast.order()
        ref = self._ref.order()
        if fast != ref:
            raise InvariantViolation(
                f"recency stack diverged after {op}: fast={fast} reference={ref}"
            )

    # -- read API (delegates to the production stack) --------------------- #

    def __len__(self) -> int:
        return len(self._fast)

    def __contains__(self, way: int) -> bool:
        return way in self._fast

    def __iter__(self) -> Iterator[int]:
        return iter(self._fast)

    def order(self) -> List[int]:
        return self._fast.order()

    @property
    def mru_way(self) -> int:
        return self._fast.mru_way

    @property
    def lru_way(self) -> int:
        return self._fast.lru_way

    def depth_from_mru(self, way: int) -> int:
        return self._fast.depth_from_mru(way)

    def height_from_lru(self, way: int) -> int:
        return self._fast.height_from_lru(way)

    def ways_from_lru(self) -> Iterator[int]:
        return self._fast.ways_from_lru()

    # -- mutating API (applied to both, then verified) -------------------- #

    def discard(self, way: int) -> None:
        self._fast.discard(way)
        self._ref.discard(way)
        self._verify(f"discard({way})")

    def remove(self, way: int) -> None:
        self._fast.remove(way)
        self._ref.remove(way)
        self._verify(f"remove({way})")

    def touch(self, way: int) -> None:
        self._fast.touch(way)
        self._ref.touch(way)
        self._verify(f"touch({way})")

    def place_at_depth(self, way: int, depth: int) -> None:
        self._fast.place_at_depth(way, depth)
        self._ref.place_at_depth(way, depth)
        self._verify(f"place_at_depth({way}, {depth})")

    def place_above_lru(self, way: int, height: int) -> None:
        self._fast.place_above_lru(way, height)
        self._ref.place_above_lru(way, height)
        self._verify(f"place_above_lru({way}, {height})")


def stack_factory(stack_cls: Type[StackLike]) -> Callable[[], StackLike]:
    """Factory for per-set recency stacks, honouring ``REPRO_CHECK``.

    Only the production :class:`RecencyStack` is wrapped: when a test has
    already substituted the naive reference model (the golden bit-identity
    test does), there is nothing to check it against.
    """
    if enabled() and stack_cls is RecencyStack:
        return CheckedRecencyStack
    return stack_cls


# --------------------------------------------------------------------------- #
# Quiescence checks
# --------------------------------------------------------------------------- #


def check_no_leaked_mshr_entries(system: "System") -> None:
    """Assert every MSHR file — each cache's and each core's STLB's — is
    empty at a quiescent point.

    The hierarchy is synchronous: each ``access``/``translate`` call releases
    the entries it allocates before returning, so a non-empty file at the
    warmup/measurement boundary means an allocate/release pairing bug.
    """
    files = [(cache.config.name, cache.mshrs) for cache in system.caches.values()]
    files += [(f"{core.name} STLB", core.mmu.stlb_mshrs) for core in system.cores]
    for name, mshrs in files:
        # outstanding() counts live and structurally retired entries: a
        # retired entry still awaits its release, so one left over at a
        # quiescent point is just as much a leak as a live one.
        count = mshrs.outstanding()
        if count:
            raise InvariantViolation(
                f"{name} MSHR file holds {count} leaked entr"
                f"{'y' if count == 1 else 'ies'} at a quiescent point"
            )
