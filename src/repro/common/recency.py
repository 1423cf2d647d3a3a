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

* :class:`RecencyStack` — the production structure: an intrusive doubly
  linked list over way indices.  ``touch``/``remove``/``mru_way``/
  ``lru_way`` are O(1); ``place_at_depth``/``place_above_lru`` are O(d) in
  the (small, constant) target depth rather than O(associativity) list
  scans, and a touch of the way that is already MRU — the common case on
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

    Implemented as a doubly linked list threaded through two dicts
    (``way -> neighbour``); ``None`` terminates both ends.  Membership,
    promotion to MRU, removal and end queries are O(1).
    """

    __slots__ = ("_prev", "_next", "_head", "_tail")

    def __init__(self) -> None:
        self._prev = {}  # way -> neighbour toward MRU (None at the head)
        self._next = {}  # way -> neighbour toward LRU (None at the tail)
        self._head = None  # MRU way
        self._tail = None  # LRU way

    def __len__(self) -> int:
        return len(self._next)

    def __contains__(self, way: int) -> bool:
        return way in self._next

    def __iter__(self) -> Iterator[int]:
        """Iterate ways from MRU to LRU."""
        nxt = self._next
        node = self._head
        while node is not None:
            yield node
            node = nxt[node]

    def order(self) -> List[int]:
        """Copy of the MRU→LRU ordering (for tests and introspection)."""
        return list(self)

    @property
    def mru_way(self) -> int:
        if self._head is None:
            raise IndexError("empty recency stack")
        return self._head

    @property
    def lru_way(self) -> int:
        if self._tail is None:
            raise IndexError("empty recency stack")
        return self._tail

    # ------------------------------------------------------------------ #
    # Link management
    # ------------------------------------------------------------------ #

    def _unlink(self, way: int) -> None:
        prev, nxt = self._prev, self._next
        p = prev.pop(way)
        n = nxt.pop(way)
        if p is None:
            self._head = n
        else:
            nxt[p] = n
        if n is None:
            self._tail = p
        else:
            prev[n] = p

    def _link_head(self, way: int) -> None:
        h = self._head
        self._prev[way] = None
        self._next[way] = h
        if h is None:
            self._tail = way
        else:
            self._prev[h] = way
        self._head = way

    def _link_tail(self, way: int) -> None:
        t = self._tail
        self._next[way] = None
        self._prev[way] = t
        if t is None:
            self._head = way
        else:
            self._next[t] = way
        self._tail = way

    def _link_before(self, way: int, ref: int) -> None:
        """Insert ``way`` immediately MRU-side of ``ref``."""
        p = self._prev[ref]
        self._prev[way] = p
        self._next[way] = ref
        self._prev[ref] = way
        if p is None:
            self._head = way
        else:
            self._next[p] = way

    # ------------------------------------------------------------------ #
    # Public operations
    # ------------------------------------------------------------------ #

    def depth_from_mru(self, way: int) -> int:
        if way not in self._next:
            raise ValueError(f"way {way} not in recency stack")
        nxt = self._next
        node = self._head
        depth = 0
        while node != way:
            node = nxt[node]
            depth += 1
        return depth

    def height_from_lru(self, way: int) -> int:
        if way not in self._next:
            raise ValueError(f"way {way} not in recency stack")
        prev = self._prev
        node = self._tail
        height = 0
        while node != way:
            node = prev[node]
            height += 1
        return height

    def discard(self, way: int) -> None:
        """Remove ``way`` if present (eviction cleanup)."""
        prev, nxt = self._prev, self._next
        if way not in nxt:
            return
        p = prev.pop(way)
        n = nxt.pop(way)
        if p is None:
            self._head = n
        else:
            nxt[p] = n
        if n is None:
            self._tail = p
        else:
            prev[n] = p

    def remove(self, way: int) -> None:
        # _unlink inlined, with the membership check folded in.
        prev, nxt = self._prev, self._next
        if way not in nxt:
            raise ValueError(f"way {way} not in recency stack")
        p = prev.pop(way)
        n = nxt.pop(way)
        if p is None:
            self._head = n
        else:
            nxt[p] = n
        if n is None:
            self._tail = p
        else:
            prev[n] = p

    def touch(self, way: int) -> None:
        """Promote ``way`` to the MRU position (classic LRU update)."""
        h = self._head
        if way == h:
            return
        # _unlink + _link_head inlined.  ``way != head`` implies its prev
        # neighbour exists, and the stack stays non-empty after the unlink.
        prev, nxt = self._prev, self._next
        if way not in nxt:
            raise ValueError(f"way {way} not in recency stack")
        p = prev.pop(way)
        n = nxt.pop(way)
        nxt[p] = n
        if n is None:
            self._tail = p
        else:
            prev[n] = p
        prev[way] = None
        nxt[way] = h
        prev[h] = way
        self._head = way

    def place_at_depth(self, way: int, depth: int) -> None:
        """Insert/move ``way`` to ``depth`` positions below MRU.

        Depth is clamped to the stack size, so ``depth >= len`` inserts at
        the LRU end.  All entries previously at or below that depth move one
        position toward LRU — the paper's step (4) stack update.
        """
        nxt = self._next
        if way in nxt:
            self._unlink(way)
        if depth <= 0:
            # _link_head inlined: the on-fill MRU insert is the hot case.
            prev = self._prev
            h = self._head
            prev[way] = None
            nxt[way] = h
            if h is None:
                self._tail = way
            else:
                prev[h] = way
            self._head = way
            return
        if depth >= len(nxt):
            self._link_tail(way)
            return
        ref = self._head
        for _ in range(depth):
            ref = nxt[ref]
        self._link_before(way, ref)

    def place_above_lru(self, way: int, height: int) -> None:
        """Insert/move ``way`` to ``height`` positions above the LRU end.

        ``height=0`` is the LRU position itself (next eviction candidate);
        this implements iTP's ``LRUpos + M`` data promotion.
        """
        if way in self._next:
            self._unlink(way)
        size = len(self._next)
        if height <= 0:
            self._link_tail(way)
            return
        if height >= size:
            self._link_head(way)
            return
        prev = self._prev
        ref = self._tail
        for _ in range(height - 1):
            ref = prev[ref]
        self._link_before(way, ref)

    def ways_from_lru(self) -> Iterator[int]:
        """Iterate ways from LRU to MRU (victim-search order)."""
        prev = self._prev
        node = self._tail
        while node is not None:
            yield node
            node = prev[node]


class NaiveRecencyStack:
    """Reference list-based recency stack (the original implementation).

    O(associativity) per operation; kept as the executable specification
    the O(1) :class:`RecencyStack` is property-tested against, and as the
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

