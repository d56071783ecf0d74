"""Replacement edges for every edge of a maximum spanning tree.

Two tables are produced over a graph G with maximum spanning tree T:

* ``U[e]`` for non-tree e=(x,y): the minimum-capacity edge on the tree path
  T(x,y) — the edge that leaves the tree if e's capacity grows enough that
  swapping them improves T.  0 for tree edges.
* ``L[e]`` for tree e: the maximum-capacity non-tree edge whose fundamental
  tree path contains e — the edge that takes over if e's capacity drops
  enough.  0 when no non-tree edge covers e (e is a bridge) and for
  non-tree edges.

Both are read-only int64 columns of length m+1; 0, the unused edge slot,
stands for "no replacement" everywhere.

Capacities are pairwise distinct, so each replacement edge is unique when it
exists.  U costs one O(1) range-minimum query per non-tree edge, made in
batches of ``graphs.CHUNK``.  L needs no LCA; it is the contraction walk of
Tarjan's offline path-compression MST verification.  Scan the non-tree edges
in decreasing capacity order over a union-find of tree vertices whose sets
are subtrees with every internal edge covered; each set is a tree of the
union-find's parent list, rooted at the subtree's top vertex.  For edge
(x,y), repeatedly take the deeper of the two tops, assign the current edge
to its still-uncovered parent edge and hang it under the root of its tree
parent's set, until x and y share a set.  Each tree edge is contracted
exactly once, and the scan is ``graphs.descending_edges`` over the non-tree
edges, so the walk holds lists of n entries only.  It links without rank,
because the top must stay the root, so path halving alone bounds it:
O(m log_{1+m/n} n) (Tarjan & van Leeuwen 1984).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CHUNK, CapacitatedGraph, descending_edges
from .mst import SpanningTree, find
from .tree_index import RootedTreeIndex


@dataclass(frozen=True, eq=False)
class ReplacementTables:
    """U/L tables indexed by EdgeId: read-only int64 columns of length m+1,
    0 where an edge has no replacement and in slot 0."""

    U: np.ndarray
    L: np.ndarray


def compute_upper_replacements(g: CapacitatedGraph, tree: SpanningTree,
                               idx: RootedTreeIndex) -> np.ndarray:
    """U table: per non-tree edge, the min-capacity edge on its tree path.

    Batched path-minimum queries over all non-tree edges, in chunks that
    bound the batch's temporaries.
    """
    table = np.zeros(g.m + 1, dtype=np.int64)
    non_tree = np.flatnonzero(~tree.is_tree_edge[1:]) + 1
    for lo in range(0, len(non_tree), CHUNK):
        chunk = non_tree[lo:lo + CHUNK]
        table[chunk] = idx.path_min_edge_batch(g.edge_u[chunk], g.edge_v[chunk])
    table.flags.writeable = False
    return table


def compute_lower_replacements(g: CapacitatedGraph, tree: SpanningTree,
                               idx: RootedTreeIndex) -> np.ndarray:
    """L table: per tree edge, the max-capacity non-tree edge covering it.

    Non-tree edges are scanned in decreasing capacity.  Each union-find set
    is the vertex set of a subtree of T whose internal edges are all covered,
    and its root in ``up`` is the subtree's top, the shallowest vertex, so no
    map from roots to tops is needed; the top's parent edge is the next
    uncovered edge above the set.  While the ends of edge (x, y) lie in
    different sets, the deeper of the two tops is below lca(x, y), so its
    parent edge is on the path: it is assigned and the top hangs under its
    parent's root.  Without union by rank, path halving bounds the walk at
    O(m log_{1+m/n} n).
    """
    parent_edge = idx.parent_edge
    # a vertex's parent is the other endpoint of its parent edge
    parent = (g.edge_u[parent_edge] + g.edge_v[parent_edge]
              - np.arange(g.n + 1)).tolist()
    depth = idx.depths.tolist()
    cover = [0] * (g.n + 1)  # cover[v]: the L entry of v's parent edge
    up = list(range(g.n + 1))

    for e, x, y in descending_edges(g, ~tree.is_tree_edge):
        x, y = find(up, x), find(up, y)
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            assert cover[x] == 0, "tree edge contracted twice"
            cover[x] = e
            # y stays a root: x's parent's set is either y's, ending the loop,
            # or another set, which x joins
            up[x] = x = find(up, parent[x])
    table = np.zeros(g.m + 1, dtype=np.int64)
    table[parent_edge] = cover  # the root's and slot 0's entries land in slot 0
    table.flags.writeable = False
    return table


def build_replacement_tables(g: CapacitatedGraph, tree: SpanningTree,
                             idx: RootedTreeIndex) -> ReplacementTables:
    return ReplacementTables(U=compute_upper_replacements(g, tree, idx),
                             L=compute_lower_replacements(g, tree, idx))
