"""Rooted-tree index: depths, path membership, O(1) path minima.

Path minima come from the Kruskal pass.  ``build_max_spanning_tree`` lists
the vertices in the order their components merged (``tree.chain``) and puts
each tree edge at the junction where its union joined two runs
(``tree.junction``).  The minimum-capacity edge on the tree path s..t is the
minimum-rank junction between s and t in that chain: the Kruskal
reconstruction tree read as a Cartesian tree (Demaine, Landau & Weimann, "On
Cartesian Trees and Range Minimum Queries", ICALP 2009).  A sparse table
whose row j holds the least capacity rank of every window of 2^j junctions
finds that junction's rank with two lookups, and ``g.capacity_order``, the
one copy of that order, maps it to its edge.  No LCA is needed.
``path_min_edge_batch`` answers many pairs at once; the scalar
``path_min_edge`` calls it.

Linking the Euler tours of the tree edges (Tarjan & Vishkin 1985; Henzinger
& King 1995) roots the tree at vertex 1 with no adjacency list, search or
sort, and yields one read-only numpy column per vertex fact: depth, preorder
interval [tin, tout), and ``parent_edge``, the tree edge to the parent (0 at
the root), whose other endpoint is the parent.  Tree edge e lies on the tree
path between s and t exactly when one of s, t lies in the subtree of e's
child endpoint, the one whose parent edge is e, and the other does not;
``on_path`` tests that for many pairs at once.  Everything is immutable
after construction and safe for concurrent reads.
"""
from __future__ import annotations

import numpy as np

from .graphs import CHUNK, CapacitatedGraph
from .mst import SpanningTree


class RootedTreeIndex:
    __slots__ = ("n", "parent_edge", "depths", "_graph", "_tin", "_tout", "_pos", "_table")

    def __init__(self, g: CapacitatedGraph, tree: SpanningTree, rank: np.ndarray):
        self.n = g.n
        self._graph = g
        self._root_tree(g, tree)
        self._build_range_minima(tree, rank)

    # -- construction -----------------------------------------------------

    def _root_tree(self, g: CapacitatedGraph, tree: SpanningTree) -> None:
        n, arcs, edges = g.n, 2 * (g.n - 1), tree.junction
        # arc 2i runs along edges[i] from edge_u to edge_v, arc 2i+1 back
        heads = np.column_stack((g.edge_v[edges], g.edge_u[edges])).ravel()
        after = [a ^ 1 for a in range(arcs)]  # each edge alone is a 2-cycle
        into = [-1] * (n + 1)
        for a, w in enumerate(heads.tolist()):
            if (b := into[w]) >= 0:  # swapping successors of arcs into w joins tours
                after[a], after[b] = after[b], after[a]
            into[w] = a
        tour = [after[into[1]]] if arcs else []  # the first arc out of the root
        for _ in range(arcs - 1):
            tour.append(after[tour[-1]])
        order = np.array(tour, dtype=np.int64)
        pos = np.empty(arcs, dtype=np.int64)
        pos[order] = np.arange(arcs, dtype=np.int64)
        # the k-th down arc (parent to child), at tour position p, precedes its
        # reverse by 2 * size - 1; its child has preorder k, depth k - (p + 1 - k)
        p = np.flatnonzero(np.arange(arcs) < pos[order ^ 1])
        down = order[p]
        child = heads[down]
        k = np.arange(1, n, dtype=np.int64)
        columns = np.zeros((4, n + 1), dtype=np.int64)
        parent_edge, depths, tin, tout = columns
        parent_edge[child] = edges[down >> 1]
        depths[child] = 2 * k - p - 1
        tin[child] = k
        tout[child] = k + (pos[down ^ 1] - p + 1) // 2
        tout[1] = n
        columns.flags.writeable = False
        self.parent_edge, self.depths, self._tin, self._tout = columns

    def _build_range_minima(self, tree: SpanningTree, rank: np.ndarray) -> None:
        # chain positions (below n) and ranks (below m) fit the smallest unsigned
        # dtype that holds n and m: uint32, half of int64, for m below 2^32
        dtype = np.min_scalar_type(max(self.n, self._graph.m))
        pos = np.zeros(self.n + 1, dtype=dtype)
        pos[tree.chain] = np.arange(self.n)
        # entry i of row j is the least rank of junctions i..i+2^j-1; no lookup
        # reads an entry whose window runs past the last junction
        table = np.tile(rank[tree.junction].astype(dtype),
                        (len(tree.junction).bit_length(), 1))
        for j in range(1, len(table)):
            half = 1 << (j - 1)
            np.minimum(table[j - 1, :-half], table[j - 1, half:], out=table[j, :-half])
        pos.flags.writeable = table.flags.writeable = False
        self._pos, self._table = pos, table

    # -- queries -------------------------------------------------------------

    def path_min_edge(self, s: int, t: int) -> int:
        """EdgeId with minimum capacity on the tree path s..t; O(1)."""
        if s == t:
            raise ValueError("path_min_edge requires two distinct endpoints")
        return int(self.path_min_edge_batch([s], [t])[0])

    def path_min_edge_batch(self, ss: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Vectorized path_min_edge; entries with ss == ts yield sentinel 0,
        and a vertex id outside 1..n raises ValueError.  Works CHUNK pairs at
        a time into one output, so the temporaries do not grow with the batch.

        The path's junctions are chain positions lo..hi-1, covered by two
        windows of 2^j junctions, 2^j the largest power of two not above hi-lo."""
        for xs in (ss, ts):
            if len(xs) and not (1 <= np.min(xs) and np.max(xs) <= self.n):
                raise ValueError(f"vertex ids out of range (n={self.n})")
        edges = np.zeros(len(ss), dtype=np.int64)
        for at in range(0, len(ss), CHUNK):
            ps, pt = self._pos[ss[at:at + CHUNK]], self._pos[ts[at:at + CHUNK]]
            lo, hi = np.minimum(ps, pt), np.maximum(ps, pt)
            live = np.flatnonzero(hi > lo)  # the other paths have no junction: edge 0
            lo, hi = lo[live], hi[live]
            j = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo)), exact below 2^53
            best = np.minimum(self._table[j, lo], self._table[j, hi - (1 << j)])
            edges[at + live] = self._graph.capacity_order[best]
        return edges

    def depth(self, x: int) -> int:
        """Distance from the root; O(1)."""
        if not 1 <= x <= self.n:
            raise ValueError(f"vertex id {x} out of range (n={self.n})")
        return int(self.depths[x])

    def on_path(self, e: int | np.ndarray, s_tin: np.ndarray, t_tin: np.ndarray) -> np.ndarray:
        """For each pair, given as precomputed tins of s and t, whether tree
        edge e lies on the tree path s..t; ValueError for any other edge id.
        A column of B tree edges gives a (B, k) mask, one row per edge."""
        g, es = self._graph, np.asarray(e)
        if not ((1 <= es) & (es <= g.m)).all():
            raise ValueError(f"edge id {e} out of range (m={g.m})")
        u, v = g.edge_u[es], g.edge_v[es]
        child = np.where(self.parent_edge[u] == es, u, v)
        if not (self.parent_edge[child] == es).all():
            raise ValueError(f"edge {e} is not a tree edge")
        lo, hi = self._tin[child][..., None], self._tout[child][..., None]
        return ((lo <= s_tin) & (s_tin < hi)) != ((lo <= t_tin) & (t_tin < hi))

    def edges_above(self, xs: np.ndarray) -> np.ndarray:
        """A bool column over edge ids: whether one of the vertices xs lies in
        the subtree of the edge's child endpoint; False off the tree."""
        below = np.zeros(self.n + 1, dtype=np.int64)  # below[p]: how many xs have tin < p
        np.cumsum(np.bincount(self.tin_of(xs).ravel(), minlength=self.n), out=below[1:])
        above = np.zeros(self._graph.m + 1, dtype=bool)
        above[self.parent_edge[2:]] = below[self._tout[2:]] != below[self._tin[2:]]
        return above

    def tin_of(self, xs: np.ndarray) -> np.ndarray:
        """Preorder numbers of the vertices xs; ValueError for any id outside 1..n."""
        if np.size(xs) and not (1 <= np.min(xs) and np.max(xs) <= self.n):
            raise ValueError(f"vertex ids out of range (n={self.n})")
        return self._tin[xs]


def build_index(tree: SpanningTree, g: CapacitatedGraph,
                rank: np.ndarray) -> RootedTreeIndex:
    """Root the spanning tree at vertex 1 and build its tables, with ``rank``
    from ``capacity_ranks(g)``; O(n log n)."""
    return RootedTreeIndex(g, tree, rank)
