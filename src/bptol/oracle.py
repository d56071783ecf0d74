"""Preprocess-once tolerance oracle for max-min (bottleneck) path queries.

Given a validated graph and k source--target pairs, stored once as the
read-only (k, 2) int64 array ``pairs`` of (s, t) rows, ``preprocess`` builds
the maximum spanning tree, the rooted-tree index and the replacement tables.
The fixed optimal path for pair i is the tree path T(s_i, t_i); only its
minimum-capacity edge e*_i is stored, as ``bottleneck_edges[i]`` — the path
itself is never materialized.

The kernel answers a block of edges for all k pairs at once by case analysis:

* e on T(s_i, t_i):  upper = +inf;  lower = +inf if e has no replacement
  edge (bridge), else c(e) - min(c(L[e]), c(e*_i)).
* e not on the path: lower = +inf;  upper = +inf unless e's replacement edge
  U[e] is exactly e*_i (which always lies on the path), in which case
  upper = c(e*_i) - c(e).

So only one side of an edge can be finite: lower for a tree edge, upper for
a non-tree edge.  The case analysis is one vectorized function per side over
a block of B edge ids: lower for the tree edges with L[e] != 0 and a pair
endpoint below them (a (B, k) ``index.on_path`` mask), upper for non-tree
edges.  A finite tolerance is a difference of two int64 capacities in
0..2**64-1, so uint64 wrap-around subtraction is exact.  Under the tie-break
of duplicate capacities it can be 0, so finiteness is carried by which pairs
are listed, never by the value.  ``finite_block`` sends each edge of a block
to its side; ``finite_entries`` is its one-edge case, O(k); ``query_edge``
its list view.

A ToleranceOracle is immutable after preprocess; concurrent query calls from
multiple threads are safe (pure reads, no locks).
"""
from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import CapacitatedGraph, capacity_ranks
from .mst import SpanningTree, build_max_spanning_tree
from .replacement import ReplacementTables, build_replacement_tables
from .tree_index import RootedTreeIndex, build_index

INFINITY = math.inf

#: A tolerance is either an exact capacity difference (strictly positive
#: unless capacities tie) or +infinity, represented as math.inf.
Tolerance = int | float


class EdgeTolerances(NamedTuple):
    lower: Tolerance
    upper: Tolerance


_UNBOUNDED = EdgeTolerances(INFINITY, INFINITY)

Entry = tuple[int, Tolerance, Tolerance]  # (pair index, lower, upper)


class ToleranceOracle:
    __slots__ = ("graph", "tree", "index", "tables", "pairs", "bottleneck_edges",
                 "_s_tin", "_t_tin", "_lower", "_estar_cap", "_cap_u", "_estar_cap_u",
                 "__weakref__")

    def __init__(self, graph: CapacitatedGraph, tree: SpanningTree,
                 index: RootedTreeIndex, tables: ReplacementTables,
                 pairs: np.ndarray):
        self.graph = graph
        self.tree = tree
        self.index = index
        self.tables = tables
        self.pairs = pairs
        ss, ts = pairs.T
        self._s_tin, self._t_tin = index.tin_of(pairs.T)
        # a tree edge lies on a pair's path only if a pair endpoint lies below
        # it, as few do; the lower side takes those with a replacement edge
        self._lower = index.edges_above(pairs) & (tables.L != 0)
        #: e*_i, the minimum-capacity edge on the tree path of pair i
        self.bottleneck_edges = index.path_min_edge_batch(ss, ts)
        self.bottleneck_edges.flags.writeable = False
        cap = graph.edge_cap
        self._estar_cap = cap[self.bottleneck_edges]
        # uint64 views of the same buffers, for wrap-around subtraction
        self._cap_u = cap.view(np.uint64)
        self._estar_cap_u = self._estar_cap.view(np.uint64)

    # -- queries -------------------------------------------------------------

    def _lower_side(self, es: np.ndarray) -> tuple[np.ndarray, Iterator[Entry]]:
        """For the tree edges es, all with L != 0: each finite record's row
        into es, and the records, in row then pair order (divmod beats np.nonzero)."""
        rows, cols = divmod(np.flatnonzero(self.index.on_path(es, self._s_tin, self._t_tin)),
                            len(self.pairs))
        es = es[rows]
        floor = np.minimum(self._estar_cap[cols], self.graph.edge_cap[self.tables.L[es]])
        found = self._cap_u[es] - floor.view(np.uint64)
        return rows, zip(cols.tolist(), found.tolist(), repeat(INFINITY))

    def _upper_side(self, es: np.ndarray) -> tuple[np.ndarray, Iterator[Entry]]:
        """``_lower_side`` for the non-tree edges es."""
        rows, cols = divmod(np.flatnonzero(self.tables.U[es][:, None] == self.bottleneck_edges),
                            len(self.pairs))
        found = self._estar_cap_u[cols] - self._cap_u[es[rows]]
        return rows, zip(cols.tolist(), repeat(INFINITY), found.tolist())

    def finite_block(self, es: np.ndarray) -> Iterator[tuple[int, list[Entry]]]:
        """(row into es, ``finite_entries(es[row])`` as a list) for each edge of
        the int64 column es with a finite tolerance, lower side first; O(len(es) k)."""
        if len(es) and not (1 <= es.min() and es.max() <= self.graph.m):
            raise ValueError(f"edge ids out of range (m={self.graph.m})")
        for side, at in ((self._lower_side, self._lower[es]),
                         (self._upper_side, ~self.tree.is_tree_edge[es])):
            where = np.flatnonzero(at)
            rows, records = side(es[where])
            starts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()  # each edge's first
            rows, records = where[rows].tolist(), list(records)
            for a, b in zip(starts, starts[1:] + [len(rows)]):
                yield rows[a], records[a:b]

    def finite_entries(self, e: int) -> Iterator[Entry]:
        """(pair index, lower, upper) as Python ints or INFINITY, for every
        pair with a finite tolerance on edge e, in pair order; O(k).  Only one
        side can be finite: lower for a tree edge on the pair's path, upper
        for a non-tree edge whose U entry is the pair's e*."""
        if not 1 <= e <= self.graph.m:
            raise ValueError(f"edge id {e} out of range (m={self.graph.m})")
        if self._lower[e]:
            return self._lower_side(np.array([e]))[1]
        return iter(()) if self.tree.is_tree_edge[e] else self._upper_side(np.array([e]))[1]

    def query_edge(self, e: int) -> list[EdgeTolerances]:
        """All 2k tolerances of edge e, one (lower, upper) per pair, as Python
        ints or INFINITY; O(k)."""
        answers = [_UNBOUNDED] * len(self.pairs)
        for i, lo, up in self.finite_entries(e):
            answers[i] = EdgeTolerances(lo, up)
        return answers

    def bottleneck_value(self, i: int) -> int:
        """b(s_i, t_i): the max over s_i--t_i paths of the path's min capacity."""
        if not 0 <= i < len(self.pairs):
            raise ValueError(f"pair index {i} out of range (k={len(self.pairs)})")
        return int(self._estar_cap[i])


def preprocess(g: CapacitatedGraph,
               pairs: np.ndarray | Sequence[tuple[int, int]]) -> ToleranceOracle:
    """Build the oracle: MST, tree index, replacement tables, and each pair's
    bottleneck edge.

    ``pairs`` holds (s, t) rows, as tuples or a (k, 2) integer array, kept
    as a read-only int64 view; a vertex id outside 1..n or s = t raises
    ValueError, naming the first such pair.
    """
    try:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
    except OverflowError:
        raise ValueError(f"pair vertex id out of range (n={g.n})") from None
    pairs.flags.writeable = False
    outside = ((pairs < 1) | (pairs > g.n)).any(axis=1)
    bad = np.flatnonzero(outside | (pairs[:, 0] == pairs[:, 1]))
    if len(bad):
        s, t = pairs[bad[0]].tolist()
        raise ValueError(f"pair ({s}, {t}) out of range (n={g.n})" if outside[bad[0]]
                         else f"pair ({s}, {t}) has equal endpoints")
    rank = capacity_ranks(g)
    tree = build_max_spanning_tree(g)
    idx = build_index(tree, g, rank)
    tables = build_replacement_tables(g, tree, idx)
    return ToleranceOracle(g, tree, idx, tables, pairs)
