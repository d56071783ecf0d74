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
exists.  U costs one path-minimum query per non-tree edge, made in batches.
L runs the classic contraction scheme: split each non-tree edge (x,y) at
z = lca(x,y), found by batched LCA queries, into ancestor--descendant
halves, scan the halves in decreasing capacity order, and walk each half
upward through a union-find over tree vertices, assigning the current
non-tree edge to every not-yet-covered tree edge on the way.  Each tree edge
is contracted exactly once, so the scan is near-linear after sorting.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dsu import DisjointSets
from .graphs import CapacitatedGraph, capacity_ranks
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
    mask = np.array(tree.is_tree_edge, dtype=bool)
    mask[0] = True  # slot 0 is not an edge
    non_tree = np.flatnonzero(~mask)
    us = np.array(g.edge_u, dtype=np.int64)
    vs = np.array(g.edge_v, dtype=np.int64)
    for lo in range(0, len(non_tree), _CHUNK):
        chunk = non_tree[lo:lo + _CHUNK]
        reps = idx.path_min_edge_batch(us[chunk], vs[chunk])
        for e, rep in zip(chunk.tolist(), reps.tolist()):
            table[e] = tree_ids[rep]
    return tuple(table)


def compute_lower_replacements(g: CapacitatedGraph, tree: SpanningTree,
                               idx: RootedTreeIndex) -> tuple[int | None, ...]:
    """L table: per tree edge, the max-capacity non-tree edge covering it.

    Split halves are scanned in decreasing capacity.  Each union-find set is
    the vertex set of a subtree of T whose internal edges are all covered;
    ``top`` maps a set's canonical element to its shallowest vertex, whose
    parent edge is the next uncovered edge above the set.
    """
    table: list[int | None] = [None] * (g.m + 1)
    rank = capacity_ranks(g)
    mask = np.array(tree.is_tree_edge, dtype=bool)
    mask[0] = True  # slot 0 is not an edge
    non_tree = np.flatnonzero(~mask)
    non_tree = non_tree[np.argsort(rank[non_tree])[::-1]]

    sets = DisjointSets(range(1, g.n + 1))
    top = list(range(g.n + 1))
    parent = idx.parent
    parent_edge = idx.parent_edge
    find = sets.find

    for e, x, y, z in _with_lcas(g, idx, non_tree):
        for half in (x, y):
            if half == z:
                continue
            rh = find(half)
            rz = find(z)
            while rh != rz:
                v = top[rh]
                te = parent_edge[v]
                assert table[te] is None, "tree edge contracted twice"
                table[te] = e
                rp = find(parent[v])
                new_top = top[rp]
                sets.join(rh, rp)
                rh = find(rp)
                top[rh] = new_top
                rz = find(z)
    return tuple(table)


def _with_lcas(g: CapacitatedGraph, idx: RootedTreeIndex,
               edges: np.ndarray) -> Iterator[tuple[int, int, int, int]]:
    """(e, x, y, lca(x, y)) for each edge e = (x, y) in the given order, from
    batched LCA queries in chunks that bound the batch's temporaries."""
    us = np.array(g.edge_u, dtype=np.int64)
    vs = np.array(g.edge_v, dtype=np.int64)
    for lo in range(0, len(edges), _CHUNK):
        chunk = edges[lo:lo + _CHUNK]
        xs, ys = us[chunk], vs[chunk]
        yield from zip(chunk.tolist(), xs.tolist(), ys.tolist(),
                       idx.lca_batch(xs, ys).tolist())


def build_replacement_tables(g: CapacitatedGraph, tree: SpanningTree,
                             idx: RootedTreeIndex) -> ReplacementTables:
    return ReplacementTables(U=compute_upper_replacements(g, tree, idx),
                             L=compute_lower_replacements(g, tree, idx))
