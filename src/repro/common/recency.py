"""Recency stack primitive.

Both the paper's policies are defined in terms of an LRU recency stack with
insertions/promotions at arbitrary depths (iTP: ``MRUpos - N`` and
``LRUpos + M``; xPTP: victim selection by distance from ``LRUpos``).  This
module provides that stack once, so every stack-based policy (LRU, iTP,
xPTP, PTP) shares the same, well-tested semantics.

Position conventions:

* *depth from MRU*: 0 is the most recently used slot.
* *height from LRU*: 0 is the least recently used slot (the eviction end).

Two implementations share the same API:

* :class:`RecencyStack` — the production structure: one list of way
  indices, MRU first.  Every structure in the model has 4-16 ways, so a
  move is one C-level ``list.remove`` and one ``list.insert`` over at most
  16 slots; a touch of the way that is already MRU — the common case on
  skewed workloads — is a single comparison.
* :class:`NaiveRecencyStack` — the original list-based model, kept as the
  executable specification.  The property tests drive both with random op
  interleavings and assert order-identical behaviour, and the golden
  bit-identity test runs a whole simulation cell on each.
"""

from __future__ import annotations

from typing import Iterator, List


class RecencyStack:
    """Ordered stack of way indices for a single set, MRU first.

    One Python list, MRU at index 0 (see the module docstring for why a
    list suffices at this associativity).
    """

    __slots__ = ("_order",)

    def __init__(self) -> None:
        self._order: List[int] = []

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, way: int) -> bool:
        return way in self._order

    def __iter__(self) -> Iterator[int]:
        """Iterate ways from MRU to LRU."""
        return iter(self._order)

    def order(self) -> List[int]:
        """Copy of the MRU→LRU ordering (for tests and introspection)."""
        return self._order[:]

    @property
    def mru_way(self) -> int:
        if not self._order:
            raise IndexError("empty recency stack")
        return self._order[0]

    @property
    def lru_way(self) -> int:
        if not self._order:
            raise IndexError("empty recency stack")
        return self._order[-1]

    def depth_from_mru(self, way: int) -> int:
        return self._order.index(way)

    def height_from_lru(self, way: int) -> int:
        order = self._order
        return len(order) - 1 - order.index(way)

    def discard(self, way: int) -> None:
        """Remove ``way`` if present (eviction cleanup)."""
        order = self._order
        if way in order:
            order.remove(way)

    def remove(self, way: int) -> None:
        self._order.remove(way)

    def touch(self, way: int) -> None:
        """Promote ``way`` to the MRU position (classic LRU update).

        A touch of the way that is already MRU (the common case on skewed
        workloads) returns after one comparison.
        """
        order = self._order
        if order and order[0] == way:
            return
        order.remove(way)
        order.insert(0, way)

    def place_at_depth(self, way: int, depth: int) -> None:
        """Insert/move ``way`` to ``depth`` positions below MRU.

        Depth is clamped to the stack size, so ``depth >= len`` inserts at
        the LRU end.  All entries previously at or below that depth move one
        position toward LRU — the paper's step (4) stack update.
        """
        order = self._order
        if way in order:
            order.remove(way)
        # list.insert clamps a large index itself, but counts a negative
        # one from the end.
        order.insert(depth if depth > 0 else 0, way)

    def place_above_lru(self, way: int, height: int) -> None:
        """Insert/move ``way`` to ``height`` positions above the LRU end.

        ``height=0`` is the LRU position itself (next eviction candidate);
        this implements iTP's ``LRUpos + M`` data promotion.
        """
        order = self._order
        if way in order:
            order.remove(way)
        index = len(order) - height
        order.insert(index if index > 0 else 0, way)

    def ways_from_lru(self) -> Iterator[int]:
        """Iterate ways from LRU to MRU (victim-search order)."""
        return reversed(self._order)


class NaiveRecencyStack:
    """Reference list-based recency stack (the original implementation).

    O(associativity) per operation; kept as the executable specification
    :class:`RecencyStack` is property-tested against, and as the
    slow path of the golden bit-identity test.
    """

    __slots__ = ("_order",)

    def __init__(self) -> None:
        self._order: List[int] = []

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, way: int) -> bool:
        return way in self._order

    def __iter__(self) -> Iterator[int]:
        """Iterate ways from MRU to LRU."""
        return iter(self._order)

    def order(self) -> List[int]:
        """Copy of the MRU→LRU ordering (for tests and introspection)."""
        return list(self._order)

    @property
    def mru_way(self) -> int:
        if not self._order:
            raise IndexError("empty recency stack")
        return self._order[0]

    @property
    def lru_way(self) -> int:
        if not self._order:
            raise IndexError("empty recency stack")
        return self._order[-1]

    def depth_from_mru(self, way: int) -> int:
        return self._order.index(way)

    def height_from_lru(self, way: int) -> int:
        return len(self._order) - 1 - self._order.index(way)

    def discard(self, way: int) -> None:
        """Remove ``way`` if present (eviction cleanup)."""
        if way in self._order:
            self._order.remove(way)

    def remove(self, way: int) -> None:
        self._order.remove(way)

    def touch(self, way: int) -> None:
        """Promote ``way`` to the MRU position (classic LRU update)."""
        self._order.remove(way)
        self._order.insert(0, way)

    def place_at_depth(self, way: int, depth: int) -> None:
        """Insert/move ``way`` to ``depth`` positions below MRU."""
        if way in self._order:
            self._order.remove(way)
        depth = max(0, min(depth, len(self._order)))
        self._order.insert(depth, way)

    def place_above_lru(self, way: int, height: int) -> None:
        """Insert/move ``way`` to ``height`` positions above the LRU end."""
        if way in self._order:
            self._order.remove(way)
        index = len(self._order) - max(0, min(height, len(self._order)))
        self._order.insert(index, way)

    def ways_from_lru(self) -> Iterator[int]:
        """Iterate ways from LRU to MRU (victim-search order)."""
        return reversed(self._order)

