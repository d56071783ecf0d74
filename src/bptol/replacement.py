"""Replacement edges for every edge of a maximum spanning tree.

Two tables are produced over a graph G with maximum spanning tree T:

* ``U[e]`` for non-tree e=(x,y): the minimum-capacity edge on the tree path
  T(x,y) — the edge that leaves the tree if e's capacity grows enough that
  swapping them improves T.  None for tree edges.
* ``L[e]`` for tree e: the maximum-capacity non-tree edge whose fundamental
  tree path contains e — the edge that takes over if e's capacity drops
  enough.  None when no non-tree edge covers e (e is a bridge) and for
  non-tree edges.

Capacities are pairwise distinct, so each replacement edge is unique when it
exists.  U costs one O(1) range-minimum query per non-tree edge, made in
batches.  L needs no LCA; it is the contraction walk of Tarjan's offline
path-compression MST verification.  Scan the non-tree edges in decreasing
capacity order over a union-find of tree vertices whose sets are subtrees
with every internal edge covered.  For edge (x,y), repeatedly take the
deeper of the two set tops, assign the current edge to its still-uncovered
parent edge and join its set to the parent's, until x and y share a set.
Each tree edge is contracted exactly once, so the scan is near-linear after
sorting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsu import DisjointSets
from .graphs import CapacitatedGraph
from .mst import SpanningTree
from .tree_index import RootedTreeIndex

_CHUNK = 1 << 13  # non-tree edges per batched tree-index call


@dataclass(frozen=True)
class ReplacementTables:
    """Immutable U/L tables indexed by EdgeId (entry 0 unused, always None)."""

    U: tuple[int | None, ...]
    L: tuple[int | None, ...]


def compute_upper_replacements(g: CapacitatedGraph, tree: SpanningTree,
                               idx: RootedTreeIndex) -> tuple[int | None, ...]:
    """U table: per non-tree edge, the min-capacity edge on its tree path.

    Batched path-minimum queries over all non-tree edges, in chunks that
    bound the batch's temporaries.  Entries reuse the tree's own edge-id
    objects, so the table costs one pointer per edge; fresh ints from the
    batch would add ~14 MB to the peak RSS of ``serve`` at m=500k.
    """
    table: list[int | None] = [None] * (g.m + 1)
    tree_ids: list[int | None] = [None] * (g.m + 1)
    for e in tree.edge_ids:
        tree_ids[e] = e
    non_tree = np.flatnonzero(~tree.is_tree_edge[1:]) + 1
    for lo in range(0, len(non_tree), _CHUNK):
        chunk = non_tree[lo:lo + _CHUNK]
        reps = idx.path_min_edge_batch(g.edge_u[chunk], g.edge_v[chunk])
        for e, rep in zip(chunk.tolist(), reps.tolist()):
            table[e] = tree_ids[rep]
    return tuple(table)


def compute_lower_replacements(g: CapacitatedGraph, tree: SpanningTree,
                               idx: RootedTreeIndex) -> tuple[int | None, ...]:
    """L table: per tree edge, the max-capacity non-tree edge covering it.

    Non-tree edges are scanned in decreasing capacity.  Each union-find set
    is the vertex set of a subtree of T whose internal edges are all covered;
    ``top`` maps a set's canonical element to its shallowest vertex, whose
    parent edge is the next uncovered edge above the set.  While the ends of
    edge (x, y) lie in different sets, the deeper of the two tops is below
    lca(x, y), so its parent edge is on the path: it is assigned and its set
    joins the parent's.
    """
    table: list[int | None] = [None] * (g.m + 1)
    rank = idx.rank
    non_tree = np.flatnonzero(~tree.is_tree_edge[1:]) + 1
    non_tree = non_tree[np.argsort(rank[non_tree])[::-1]]

    sets = DisjointSets(g.n + 1)
    top = list(range(g.n + 1))
    parent = idx.parent
    parent_edge = idx.parent_edge
    depth = idx.depth
    find, join = sets.find, sets.join

    for e, x, y in zip(non_tree.tolist(), g.edge_u[non_tree].tolist(),
                       g.edge_v[non_tree].tolist()):
        rx, ry = find(x), find(y)
        while rx != ry:
            if depth(top[rx]) < depth(top[ry]):
                rx, ry = ry, rx
            v = top[rx]
            te = parent_edge[v]
            assert table[te] is None, "tree edge contracted twice"
            table[te] = e
            rp = find(parent[v])
            new_top = top[rp]
            rx = join(rx, rp)
            top[rx] = new_top
            ry = find(ry)  # ry may have been the parent's set, just joined
    return tuple(table)


def build_replacement_tables(g: CapacitatedGraph, tree: SpanningTree,
                             idx: RootedTreeIndex) -> ReplacementTables:
    return ReplacementTables(U=compute_upper_replacements(g, tree, idx),
                             L=compute_lower_replacements(g, tree, idx))
