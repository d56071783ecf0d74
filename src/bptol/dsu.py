"""Disjoint-set structure with create / find / join and the usual guards.

find uses path halving, join uses union by rank, giving near-constant
amortized operations.  join deliberately takes canonical elements only; the
union convenience wrapper dereferences arbitrary members first.
"""
from __future__ import annotations

from typing import Hashable, Iterable


class DisjointSets:
    def __init__(self, elements: Iterable[Hashable] = ()):
        self._parent: dict = {}
        self._rank: dict = {}
        self._count = 0
        for x in elements:
            self.create(x)

    @property
    def count(self) -> int:
        """Number of current subsets."""
        return self._count

    def __contains__(self, x) -> bool:
        return x in self._parent

    def create(self, x) -> None:
        """Add the singleton {x}.  x must not already be present."""
        if x in self._parent:
            raise ValueError(f"element {x!r} already present")
        self._parent[x] = x
        self._rank[x] = 0
        self._count += 1

    def find(self, x):
        """Canonical element of the subset containing x."""
        parent = self._parent
        if x not in parent:
            raise KeyError(f"element {x!r} not present")
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(self, x, y):
        """Merge the subsets whose canonical elements are x and y (x != y);
        returns the canonical element of the merged subset."""
        parent = self._parent
        if parent.get(x) != x:
            raise ValueError(f"{x!r} is not a canonical element")
        if parent.get(y) != y:
            raise ValueError(f"{y!r} is not a canonical element")
        if x == y:
            raise ValueError(f"join of a subset with itself ({x!r})")
        rank = self._rank
        if rank[x] < rank[y]:
            x, y = y, x
        parent[y] = x
        if rank[x] == rank[y]:
            rank[x] += 1
        self._count -= 1
        return x

    def union(self, a, b) -> bool:
        """Merge the subsets containing a and b; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.join(ra, rb)
        return True
