"""Disjoint sets over the integers 0..size-1, with find / join.

Two Python lists sized up front: ``_parent`` links each element towards its
set's canonical element, and ``_rank`` bounds the height of each canonical
element's tree.  find uses path halving and join uses union by rank, which
give Tarjan's near-constant amortized bound.  join deliberately takes
canonical elements only: the Kruskal and L-table loops have already called
find on both sides.  Callers work on vertex ids 1..n and size the structure
n+1.
"""
from __future__ import annotations


class DisjointSets:
    __slots__ = ("_parent", "_rank")

    def __init__(self, size: int):
        self._parent = list(range(size))
        self._rank = [0] * size

    def find(self, x: int) -> int:
        """Canonical element of the subset containing x."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(self, x: int, y: int) -> int:
        """Merge the subsets whose canonical elements are x and y (x != y);
        returns the canonical element of the merged subset."""
        parent = self._parent
        if parent[x] != x:
            raise ValueError(f"{x} is not a canonical element")
        if parent[y] != y:
            raise ValueError(f"{y} is not a canonical element")
        if x == y:
            raise ValueError(f"join of a subset with itself ({x})")
        rank = self._rank
        if rank[x] < rank[y]:
            x, y = y, x
        parent[y] = x
        if rank[x] == rank[y]:
            rank[x] += 1
        return x
