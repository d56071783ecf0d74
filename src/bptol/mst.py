"""Maximum spanning tree via Kruskal over the (capacity, EdgeId) order.

With pairwise-distinct capacities the maximum spanning tree is unique, so the
result is independent of edge input order.  The scan,
``graphs.descending_edges``, follows the ``capacity_order`` that every capacity
comparison in the library follows, and stops at the (n-1)th tree edge.

The same pass records the merge chain.  Each component keeps its vertices as
one run, which starts at the component's union-find root.  When tree edge f
joins components A and B, union by rank picks the surviving root, say A's;
B's run is appended to A's and f is stored at the junction between them, so
the root still starts the merged run.  Either order of the two runs puts f
at their junction.  The final run lists all n vertices, and between any two
of them the junction of least rank is the minimum-rank edge on their tree
path: f has lower rank than every edge already inside A or B, and every path
from A to B crosses f.  This is the Kruskal reconstruction tree read as a
Cartesian tree over the chain, so one range-minimum table answers every
tree-path minimum (see tree_index).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CapacitatedGraph, descending_edges


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Read-only arrays: ``is_tree_edge``, a bool column of length m+1 (slot
    0 False) that marks the n-1 tree edges; ``chain``, the n vertices in
    merge order; and ``junction[i]``, the tree edge between chain[i] and
    chain[i+1].
    """
    is_tree_edge: np.ndarray
    chain: np.ndarray
    junction: np.ndarray

    @property
    def edge_ids(self) -> frozenset[int]:
        """The tree edge ids, derived from ``is_tree_edge`` on each access."""
        return frozenset(np.flatnonzero(self.is_tree_edge).tolist())

    def __contains__(self, e: int) -> bool:
        return 0 < e < len(self.is_tree_edge) and bool(self.is_tree_edge[e])


def find(up: list[int], x: int) -> int:
    """Root of x's tree in the parent list ``up``, halving the path on the
    way; a root is its own parent."""
    while up[x] != x:
        up[x] = x = up[up[x]]
    return x


def build_max_spanning_tree(g: CapacitatedGraph) -> SpanningTree:
    """Unique maximum spanning tree of a validated (connected) graph."""
    up = list(range(g.n + 1))
    rank = [0] * (g.n + 1)  # union by rank bounds each find at O(log n) steps
    missing = g.n - 1  # tree edges not yet found
    # each component's run goes from its root to last[root] by following
    # succ; via[v] is the tree edge at the junction between v and succ[v]
    last = list(range(g.n + 1))
    succ = [0] * (g.n + 1)
    via = [0] * (g.n + 1)
    for e, u, v in descending_edges(g):
        a, b = find(up, u), find(up, v)
        if a == b:
            continue
        if rank[a] < rank[b]:
            a, b = b, a
        elif rank[a] == rank[b]:
            rank[a] += 1
        up[b] = a
        succ[last[a]] = b
        via[last[a]] = e
        last[a] = last[b]
        missing -= 1
        if not missing:
            break
    if missing:
        raise ValueError("graph is not connected")
    chain = [find(up, 1)]
    for _ in range(g.n - 1):
        chain.append(succ[chain[-1]])
    junction = np.array([via[v] for v in chain[:-1]], dtype=np.int64)
    is_tree_edge = np.zeros(g.m + 1, dtype=bool)
    is_tree_edge[junction] = True  # the n-1 junctions are the tree edges
    chain_arr = np.array(chain, dtype=np.int64)
    for column in (is_tree_edge, chain_arr, junction):
        column.flags.writeable = False
    return SpanningTree(is_tree_edge, chain_arr, junction)
