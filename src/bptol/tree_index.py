"""Rooted-tree index: depths, path membership, O(1) path minima.

Path minima come from the Kruskal pass.  ``build_max_spanning_tree`` lists
the vertices in the order their components merged (``tree.chain``) and puts
each tree edge at the junction where its union joined two runs
(``tree.junction``).  The minimum-capacity edge on the tree path s..t is the
minimum-rank junction between s and t in that chain: the Kruskal
reconstruction tree read as a Cartesian tree (Demaine, Landau & Weimann, "On
Cartesian Trees and Range Minimum Queries", ICALP 2009).  One sparse table
over the junctions, where row j holds the minimum-rank edge of every window
of 2^j junctions, answers it with two lookups.  No LCA is needed.

One iterative DFS from vertex 1, the root, records one numpy column per
vertex fact: depth, preorder interval [tin, tout), and ``parent_edge``, the
tree edge to the parent (0 at the root), whose other endpoint is the parent.
Tree edge e lies on the tree path between s and t exactly when one of s, t
lies in the subtree of e's child endpoint, the one whose parent edge is e,
and the other does not; ``on_path`` tests that for many pairs at once.
Everything is immutable after construction and safe for concurrent reads.

``path_min_edge_batch`` takes numpy arrays and is the one implementation;
the scalar ``path_min_edge`` calls it.
"""
from __future__ import annotations

import numpy as np

from .graphs import CapacitatedGraph
from .mst import SpanningTree


class RootedTreeIndex:
    __slots__ = ("n", "rank", "parent_edge", "depths", "_graph", "_tin", "_tout",
                 "_pos", "_table")

    def __init__(self, g: CapacitatedGraph, tree: SpanningTree, rank: np.ndarray):
        self.rank = rank
        self.n = g.n
        self._graph = g
        self._root_tree(g, tree)
        self._build_range_minima(tree)

    # -- construction -----------------------------------------------------

    def _root_tree(self, g: CapacitatedGraph, tree: SpanningTree) -> None:
        n = g.n
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        tree_edges = np.flatnonzero(tree.is_tree_edge)
        for e, u, v in zip(tree_edges.tolist(), g.edge_u[tree_edges].tolist(),
                           g.edge_v[tree_edges].tolist()):
            adj[u].append((v, e))
            adj[v].append((u, e))
        parent = [0] * (n + 1)
        parent_edge = [0] * (n + 1)
        depth = [0] * (n + 1)
        preorder = []
        stack = [1]
        while stack:
            v = stack.pop()
            preorder.append(v)
            p, d = parent[v], depth[v] + 1
            for w, e in adj[v]:
                if w != p:
                    parent[w] = v
                    parent_edge[w] = e
                    depth[w] = d
                    stack.append(w)
        # a stack DFS pops every subtree as one contiguous run of preorder
        size = [1] * (n + 1)
        for v in reversed(preorder[1:]):
            size[parent[v]] += size[v]
        tin = np.zeros(n + 1, dtype=np.int64)
        tin[preorder] = np.arange(n, dtype=np.int64)
        self._tin = tin
        self._tout = tin + np.array(size, dtype=np.int64)
        self.parent_edge = np.array(parent_edge, dtype=np.int64)
        self.depths = np.array(depth, dtype=np.int64)

    def _build_range_minima(self, tree: SpanningTree) -> None:
        n = self.n
        pos = np.zeros(n + 1, dtype=np.int64)
        pos[tree.chain] = np.arange(n, dtype=np.int64)
        self._pos = pos
        rank = self.rank
        # a trailing edge-0 sentinel (highest rank) keeps every lookup of an
        # empty range in bounds
        levels = max(1, (n - 1).bit_length())
        table = np.tile(np.append(tree.junction, 0), (levels, 1))
        for j in range(1, levels):
            half = 1 << (j - 1)
            a = table[j - 1, :-half]
            b = table[j - 1, half:]
            table[j, :-half] = np.where(rank[a] <= rank[b], a, b)
        self._table = table

    # -- queries -------------------------------------------------------------

    def path_min_edge(self, s: int, t: int) -> int:
        """EdgeId with minimum capacity on the tree path s..t; O(1)."""
        if s == t:
            raise ValueError("path_min_edge requires two distinct endpoints")
        return int(self.path_min_edge_batch(np.array([s]), np.array([t]))[0])

    def path_min_edge_batch(self, ss: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Vectorized path_min_edge; entries with ss == ts yield sentinel 0.

        The path's junctions are chain positions lo..hi-1; two windows of
        2^j junctions, with 2^j the largest power of two not above hi-lo,
        cover them.
        """
        ps, pt = self._pos[ss], self._pos[ts]
        lo, hi = np.minimum(ps, pt), np.maximum(ps, pt)
        span = hi - lo
        j = np.maximum(np.frexp(span)[1] - 1, 0)  # floor(log2(span)), exact below 2^53
        a = self._table[j, lo]
        b = self._table[j, hi - (1 << j)]
        best = np.where(self.rank[a] <= self.rank[b], a, b)
        return np.where(span > 0, best, 0)

    def depth(self, x: int) -> int:
        """Distance from the root; O(1)."""
        return int(self.depths[x])

    def on_path(self, e: int, s_tin: np.ndarray, t_tin: np.ndarray) -> np.ndarray:
        """For each pair, given as precomputed tins of s and t, whether tree
        edge e lies on the tree path s..t."""
        u, v = self._graph.endpoints(e)
        child = u if self.parent_edge[u] == e else v
        lo, hi = self._tin[child], self._tout[child]
        return ((lo <= s_tin) & (s_tin < hi)) != ((lo <= t_tin) & (t_tin < hi))

    def tin_of(self, xs: np.ndarray) -> np.ndarray:
        return self._tin[xs]


def build_index(tree: SpanningTree, g: CapacitatedGraph,
                rank: np.ndarray) -> RootedTreeIndex:
    """Root the spanning tree at vertex 1 and build its tables, with ``rank``
    from ``capacity_ranks(g)``; O(n log n)."""
    return RootedTreeIndex(g, tree, rank)
