"""The union-find of both preprocessing scans: one parent list ``up`` and
``bptol.mst.find``, merged by rank here as the Kruskal scan merges."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bptol.mst import find


def _singletons(size):
    """A parent list and ranks for `size` singleton subsets."""
    return list(range(size)), [0] * size


def _merge(up, rank, a, b):
    """Merge the subsets containing a and b by rank, as the Kruskal scan
    does; True if they were distinct."""
    ra, rb = find(up, a), find(up, b)
    if ra == rb:
        return False
    if rank[ra] < rank[rb]:
        ra, rb = rb, ra
    elif rank[ra] == rank[rb]:
        rank[ra] += 1
    up[rb] = ra
    return True


def _subset_count(up, size):
    return len({find(up, x) for x in range(size)})


def test_find_singletons_and_count():
    up, _ = _singletons(3)
    assert [find(up, x) for x in range(3)] == [0, 1, 2]
    assert _subset_count(up, 3) == 3
    with pytest.raises(IndexError):
        find(up, 3)


def test_join_transitivity():
    up, rank = _singletons(4)
    _merge(up, rank, 1, 2)
    _merge(up, rank, 2, 3)
    assert find(up, 1) == find(up, 3)
    assert _subset_count(up, 4) == 2  # {0} and {1, 2, 3}


class NaivePartition:
    """Quadratic reference: a list of Python sets."""

    def __init__(self):
        self.sets: list[set] = []

    def create(self, x):
        self.sets.append({x})

    def set_of(self, x):
        return next(s for s in self.sets if x in s)

    def union(self, a, b):
        sa, sb = self.set_of(a), self.set_of(b)
        if sa is sb:
            return False
        self.sets.remove(sb)
        sa |= sb
        return True

    def same(self, a, b):
        return self.set_of(a) is self.set_of(b)


def test_randomized_equivalence_with_naive_partition():
    # The parent list is sized in advance; elements join the naive partition
    # as the sequence first uses them, and the rest stay singletons.
    rng = random.Random(2024)
    size = 12_000
    up, rank = _singletons(size)
    slow = NaivePartition()
    elements = []
    for op in range(12_000):
        move = rng.random()
        if move < 0.25 or len(elements) < 2:
            x = len(elements)
            elements.append(x)
            slow.create(x)
        elif move < 0.7:
            a, b = rng.choice(elements), rng.choice(elements)
            assert _merge(up, rank, a, b) == slow.union(a, b)
        else:
            a, b = rng.choice(elements), rng.choice(elements)
            assert (find(up, a) == find(up, b)) == slow.same(a, b)
        if op % 997 == 0:
            assert _subset_count(up, size) == len(slow.sets) + size - len(elements)
    assert _subset_count(up, size) == len(slow.sets) + size - len(elements)


@given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
@settings(max_examples=60)
def test_partition_matches_naive_on_any_sequence(ops):
    up, rank = _singletons(20)
    slow = NaivePartition()
    for x in range(20):
        slow.create(x)
    for a, b in ops:
        assert _merge(up, rank, a, b) == slow.union(a, b)
    for a in range(20):
        for b in range(a + 1, 20):
            assert (find(up, a) == find(up, b)) == slow.same(a, b)
    assert _subset_count(up, 20) == len(slow.sets)
