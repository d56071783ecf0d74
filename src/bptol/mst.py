"""Maximum spanning tree via Kruskal over the (capacity, EdgeId) order.

With pairwise-distinct capacities the maximum spanning tree is unique, so the
result is independent of edge input order.  The descending scan reads the
graph's ``capacity_order``, which every other capacity comparison in the
library follows.

The same pass records the merge chain.  Each component keeps its vertices as
one run; when tree edge f joins components A and B, B's run is appended to
A's and f is stored at the junction between them.  The final run lists all n
vertices, and between any two of them the junction of least rank is the
minimum-rank edge on their tree path: f has lower rank than every edge
already inside A or B, and every path from A to B crosses f.  This is the
Kruskal reconstruction tree read as a Cartesian tree over the chain, so one
range-minimum table answers every tree-path minimum (see tree_index).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsu import DisjointSets
from .graphs import CapacitatedGraph


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
        return bool(self.is_tree_edge[e])


def build_max_spanning_tree(g: CapacitatedGraph) -> SpanningTree:
    """Unique maximum spanning tree of a validated (connected) graph."""
    sets = DisjointSets(g.n + 1)
    find, join = sets.find, sets.join
    chosen = []
    needed = g.n - 1
    edge_u, edge_v = g.edge_u.tolist(), g.edge_v.tolist()
    # each component's run is first[r] .. last[r] by following succ; via[v]
    # is the tree edge at the junction between v and succ[v]
    first = list(range(g.n + 1))
    last = list(range(g.n + 1))
    succ = [0] * (g.n + 1)
    via = [0] * (g.n + 1)
    for e in g.capacity_order[::-1].tolist():
        a, b = find(edge_u[e]), find(edge_v[e])
        if a == b:
            continue
        succ[last[a]] = first[b]
        via[last[a]] = e
        r = join(a, b)
        first[r], last[r] = first[a], last[b]
        chosen.append(e)
        if len(chosen) == needed:
            break
    if len(chosen) != needed:
        raise ValueError("graph is not connected")
    chain = [first[find(1)]]
    for _ in range(needed):
        chain.append(succ[chain[-1]])
    is_tree_edge = np.zeros(g.m + 1, dtype=bool)
    is_tree_edge[chosen] = True
    junction = np.array([via[v] for v in chain[:-1]], dtype=np.int64)
    chain_arr = np.array(chain, dtype=np.int64)
    for column in (is_tree_edge, chain_arr, junction):
        column.flags.writeable = False
    return SpanningTree(is_tree_edge, chain_arr, junction)
