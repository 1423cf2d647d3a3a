"""Batched deterministic random sources for trace generators.

Drawing one NumPy random per record is slow, so each helper draws a large
batch at a time and hands the values out one per ``next()`` call.

Batches are stored unboxed in an ``array.array``: ``'d'`` for floats and
the narrowest unsigned typecode that holds ``[0, high)`` for integers, so a
value costs at most 8 bytes instead of a boxed Python object plus a list
slot.  ``next`` is the ``__next__`` of a C-level iterator
(:func:`itertools.chain` over the batches), so no Python frame runs per
draw; the array iterator yields plain ``float``/``int`` objects with the
same values NumPy drew.  ``chain`` drops an exhausted batch before it asks
for the next one, so each helper keeps exactly one batch alive.

The batch sizes (65536, and 16384 for weighted choices) and the refill
moments are part of every trace's identity.  A generator shares one NumPy
``Generator`` among several helpers, so the values a helper receives depend
on when each helper draws: its first batch at construction, every later
batch only when a value past the end of the current one is requested.
Changing a batch size, a draw call or that refill rule changes the values
of every helper sharing the ``Generator`` (``tests/test_rand.py`` pins
them).
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Callable, List

import numpy as np


def _int_code(high: int) -> str:
    """Narrowest unsigned ``array`` typecode holding every value in ``[0, high)``."""
    for code in "BHI":
        if high <= 1 << (8 * array(code).itemsize):
            return code
    return "q"


def _unboxed(values: np.ndarray, code: str) -> array:
    return array(code, values.astype(code, copy=False).tobytes())


def _stream(draw: Callable[[], array]) -> Callable:
    """``next`` of an endless iterator over the values of ``draw()`` batches.

    The first batch is drawn now; each later one when the previous batch is
    exhausted and one more value is requested.
    """
    # The first batch waits here only until ``chain`` takes it, so a helper
    # never keeps a batch it has finished handing out.
    pending: List[array] = [draw()]

    def refill() -> array:
        return pending.pop() if pending else draw()

    return chain.from_iterable(iter(refill, None)).__next__


class BatchedUniform:
    """Stream of U[0,1) floats drawn in batches."""

    __slots__ = ("next",)

    def __init__(self, rng: np.random.Generator, batch: int = 65536) -> None:
        self.next: Callable[[], float] = _stream(
            lambda: _unboxed(rng.random(batch), "d")
        )


class BatchedChoice:
    """Stream of weighted integer choices drawn in batches."""

    __slots__ = ("next",)

    def __init__(
        self, rng: np.random.Generator, count: int, weights, batch: int = 16384
    ) -> None:
        code = _int_code(count)
        self.next: Callable[[], int] = _stream(
            lambda: _unboxed(rng.choice(count, size=batch, p=weights), code)
        )


class BatchedInts:
    """Stream of uniform integers in [0, high)."""

    __slots__ = ("next",)

    def __init__(self, rng: np.random.Generator, high: int, batch: int = 65536) -> None:
        code = _int_code(high)
        self.next: Callable[[], int] = _stream(
            lambda: _unboxed(rng.integers(0, high, size=batch), code)
        )
