import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bptol import DisjointSets


def test_create_and_find_singletons():
    s = DisjointSets()
    s.create(1)
    assert s.find(1) == 1
    s.create(2)
    assert s.count == 2
    assert 1 in s and 3 not in s


def test_create_duplicate_rejected():
    s = DisjointSets([1])
    with pytest.raises(ValueError):
        s.create(1)


def test_find_absent_rejected():
    with pytest.raises(KeyError):
        DisjointSets().find(7)


def test_join_canonical_only():
    s = DisjointSets([1, 2, 3])
    merged = s.join(s.find(1), s.find(2))
    assert s.find(1) == s.find(2) == merged
    assert s.count == 2
    with pytest.raises(ValueError):
        s.join(s.find(1), s.find(1))          # same subset
    non_canonical = 1 if s.find(1) == 2 else 2
    with pytest.raises(ValueError):
        s.join(non_canonical, s.find(3))


def test_join_transitivity():
    s = DisjointSets([1, 2, 3])
    s.join(s.find(1), s.find(2))
    s.join(s.find(2), s.find(3))
    assert s.find(1) == s.find(3)
    assert s.count == 1


def test_union_convenience():
    s = DisjointSets([1, 2])
    assert s.union(1, 2) is True
    assert s.union(1, 2) is False


def test_arbitrary_hashable_elements():
    s = DisjointSets(["a", "b", (1, 2)])
    s.union("a", (1, 2))
    assert s.find("a") == s.find((1, 2))
    assert s.find("b") != s.find("a")


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
    rng = random.Random(2024)
    fast = DisjointSets()
    slow = NaivePartition()
    elements = []
    for op in range(12_000):
        move = rng.random()
        if move < 0.25 or len(elements) < 2:
            x = len(elements)
            elements.append(x)
            fast.create(x)
            slow.create(x)
        elif move < 0.7:
            a, b = rng.choice(elements), rng.choice(elements)
            assert fast.union(a, b) == slow.union(a, b)
        else:
            a, b = rng.choice(elements), rng.choice(elements)
            assert (fast.find(a) == fast.find(b)) == slow.same(a, b)
        if op % 997 == 0:
            assert fast.count == len(slow.sets)
    assert fast.count == len(slow.sets)


@given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
@settings(max_examples=60)
def test_partition_matches_naive_on_any_sequence(ops):
    fast = DisjointSets(range(20))
    slow = NaivePartition()
    for x in range(20):
        slow.create(x)
    for a, b in ops:
        assert fast.union(a, b) == slow.union(a, b)
    for a in range(20):
        for b in range(a + 1, 20):
            assert (fast.find(a) == fast.find(b)) == slow.same(a, b)
