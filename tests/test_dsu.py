import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bptol import DisjointSets


def _merge(sets, a, b):
    """Merge the subsets containing a and b, as the Kruskal scan does with
    find and join; True if they were distinct."""
    ra, rb = sets.find(a), sets.find(b)
    if ra == rb:
        return False
    sets.join(ra, rb)
    return True


def _subset_count(sets, size):
    return len({sets.find(x) for x in range(size)})


def test_find_singletons_and_count():
    s = DisjointSets(3)
    assert [s.find(x) for x in range(3)] == [0, 1, 2]
    assert _subset_count(s, 3) == 3
    with pytest.raises(IndexError):
        s.find(3)


def test_join_canonical_only():
    s = DisjointSets(4)
    merged = s.join(s.find(1), s.find(2))
    assert s.find(1) == s.find(2) == merged
    assert _subset_count(s, 4) == 3
    with pytest.raises(ValueError):
        s.join(s.find(1), s.find(1))          # same subset
    non_canonical = 1 if s.find(1) == 2 else 2
    with pytest.raises(ValueError):
        s.join(non_canonical, s.find(3))


def test_join_transitivity():
    s = DisjointSets(4)
    s.join(s.find(1), s.find(2))
    s.join(s.find(2), s.find(3))
    assert s.find(1) == s.find(3)
    assert _subset_count(s, 4) == 2  # {0} and {1, 2, 3}


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
    # The structure is sized in advance; elements join the naive partition
    # as the sequence first uses them, and the rest stay singletons.
    rng = random.Random(2024)
    size = 12_000
    fast = DisjointSets(size)
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
            assert _merge(fast, a, b) == slow.union(a, b)
        else:
            a, b = rng.choice(elements), rng.choice(elements)
            assert (fast.find(a) == fast.find(b)) == slow.same(a, b)
        if op % 997 == 0:
            assert _subset_count(fast, size) == len(slow.sets) + size - len(elements)
    assert _subset_count(fast, size) == len(slow.sets) + size - len(elements)


@given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
@settings(max_examples=60)
def test_partition_matches_naive_on_any_sequence(ops):
    fast = DisjointSets(20)
    slow = NaivePartition()
    for x in range(20):
        slow.create(x)
    for a, b in ops:
        assert _merge(fast, a, b) == slow.union(a, b)
    for a in range(20):
        for b in range(a + 1, 20):
            assert (fast.find(a) == fast.find(b)) == slow.same(a, b)
    assert _subset_count(fast, 20) == len(slow.sets)
