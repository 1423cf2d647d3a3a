"""Unit + property tests for the recency stack primitive."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.recency import NaiveRecencyStack, RecencyStack


def make_stack(ways):
    stack = RecencyStack()
    for way in ways:
        stack.place_at_depth(way, 0)
    return stack


class TestBasics:
    def test_empty(self):
        stack = RecencyStack()
        assert len(stack) == 0
        with pytest.raises(IndexError):
            _ = stack.lru_way
        with pytest.raises(IndexError):
            _ = stack.mru_way

    def test_mru_insert_order(self):
        stack = make_stack([0, 1, 2])
        assert stack.mru_way == 2
        assert stack.lru_way == 0
        assert stack.order() == [2, 1, 0]

    def test_touch_moves_to_front(self):
        stack = make_stack([0, 1, 2])
        stack.touch(0)
        assert stack.order() == [0, 2, 1]

    def test_contains_and_remove(self):
        stack = make_stack([0, 1])
        assert 0 in stack and 1 in stack
        stack.remove(0)
        assert 0 not in stack
        assert stack.order() == [1]


class TestDepthPlacement:
    def test_place_at_depth_paper_step4(self):
        # Inserting at depth N shifts everything at/below N one toward LRU.
        stack = make_stack([0, 1, 2, 3])  # order [3,2,1,0]
        stack.place_at_depth(4, 2)
        assert stack.order() == [3, 2, 4, 1, 0]

    def test_place_at_depth_clamps(self):
        stack = make_stack([0, 1])
        stack.place_at_depth(2, 99)
        assert stack.lru_way == 2

    def test_place_at_depth_moves_existing(self):
        stack = make_stack([0, 1, 2])   # [2,1,0]
        stack.place_at_depth(0, 0)
        assert stack.order() == [0, 2, 1]

    def test_place_above_lru_zero_is_lru(self):
        stack = make_stack([0, 1, 2])
        stack.place_above_lru(3, 0)
        assert stack.lru_way == 3

    def test_place_above_lru_height(self):
        stack = make_stack([0, 1, 2, 3])  # [3,2,1,0]
        stack.place_above_lru(4, 2)
        # height 2 above LRU end: [3,2,4,1,0]
        assert stack.order() == [3, 2, 4, 1, 0]
        assert stack.height_from_lru(4) == 2

    def test_depth_and_height_are_complementary(self):
        stack = make_stack(range(5))
        for way in range(5):
            assert (
                stack.depth_from_mru(way) + stack.height_from_lru(way)
                == len(stack) - 1
            )

    def test_ways_from_lru_order(self):
        stack = make_stack([0, 1, 2])
        assert list(stack.ways_from_lru()) == [0, 1, 2]


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["touch", "place_depth", "place_above", "remove"]),
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=15),
        ),
        max_size=60,
    )
)
def test_stack_invariants_under_random_ops(ops):
    """The stack is always a permutation of the inserted ways; positions valid."""
    stack = RecencyStack()
    present = set()
    for op, way, arg in ops:
        if op == "touch":
            if way in present:
                stack.touch(way)
        elif op == "place_depth":
            stack.place_at_depth(way, arg)
            present.add(way)
        elif op == "place_above":
            stack.place_above_lru(way, arg)
            present.add(way)
        elif op == "remove":
            if way in present:
                stack.remove(way)
                present.discard(way)
        order = stack.order()
        assert sorted(order) == sorted(present)
        assert len(set(order)) == len(order)
        if present:
            assert stack.order()[0] == stack.mru_way
            assert stack.order()[-1] == stack.lru_way


@settings(max_examples=100, deadline=None)
@given(ways=st.permutations(list(range(8))), depth=st.integers(0, 8))
def test_place_at_depth_lands_at_clamped_depth(ways, depth):
    stack = RecencyStack()
    for way in ways[:-1]:
        stack.place_at_depth(way, 0)
    new_way = ways[-1]
    stack.place_at_depth(new_way, depth)
    assert stack.depth_from_mru(new_way) == min(depth, len(stack) - 1)


# --------------------------------------------------------------------------- #
# Differential tests: the production stack against the naive list-based
# reference model.  Any sequence of public operations must leave both in the
# same MRU->LRU order — this is what licenses the production implementation
# to stand in for the original without changing a single simulation metric.
# --------------------------------------------------------------------------- #

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["touch", "place_depth", "place_above", "remove", "discard"]
        ),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=-2, max_value=15),
    ),
    max_size=80,
)


def _apply(stack, op, way, arg):
    if op == "touch":
        stack.touch(way)
    elif op == "place_depth":
        stack.place_at_depth(way, arg)
    elif op == "place_above":
        stack.place_above_lru(way, arg)
    elif op == "remove":
        stack.remove(way)
    elif op == "discard":
        stack.discard(way)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS)
    def test_linked_stack_matches_naive_reference(self, ops):
        fast, ref = RecencyStack(), NaiveRecencyStack()
        for op, way, arg in ops:
            if op in ("touch", "remove") and way not in ref:
                # Both implementations must reject the missing way.
                with pytest.raises(ValueError):
                    _apply(ref, op, way, arg)
                with pytest.raises(ValueError):
                    _apply(fast, op, way, arg)
                continue
            _apply(ref, op, way, arg)
            _apply(fast, op, way, arg)
            assert fast.order() == ref.order()
            assert len(fast) == len(ref)

    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS)
    def test_derived_queries_agree(self, ops):
        fast, ref = RecencyStack(), NaiveRecencyStack()
        for op, way, arg in ops:
            if op in ("touch", "remove") and way not in ref:
                continue
            _apply(ref, op, way, arg)
            _apply(fast, op, way, arg)
        assert list(fast) == list(ref)
        assert list(fast.ways_from_lru()) == list(ref.ways_from_lru())
        for way in ref.order():
            assert fast.depth_from_mru(way) == ref.depth_from_mru(way)
            assert fast.height_from_lru(way) == ref.height_from_lru(way)
            assert way in fast
        if len(ref):
            assert fast.mru_way == ref.mru_way
            assert fast.lru_way == ref.lru_way
