"""Preprocess-once tolerance oracle for max-min (bottleneck) path queries.

Given a validated graph and k source--target pairs, ``preprocess`` builds the
maximum spanning tree, the rooted-tree index, the replacement tables, and one
``PairContext`` per pair.  The fixed optimal path for pair i is the tree path
T(s_i, t_i); only its minimum-capacity edge e*_i and value are stored — the
path itself is never materialized.

One kernel answers an edge for all k pairs at once by case analysis:

* e on T(s_i, t_i):  upper = +inf;  lower = +inf if e has no replacement
  edge (bridge), else c(e) - min(c(L[e]), c(e*_i)).
* e not on the path: lower = +inf;  upper = +inf unless e's replacement edge
  U[e] is exactly e*_i (which always lies on the path), in which case
  upper = c(e*_i) - c(e).

So only one side of an edge can be finite -- lower for a tree edge, upper for
a non-tree edge -- and the kernel computes that side as one uint64 column
plus a bool mask of the pairs where it is finite.  Every finite tolerance is
a difference of two signed 64-bit capacities that lies in 0..2**64-1, so
wrap-around uint64 subtraction of the capacities is exact over the whole
int64 range.  With pairwise distinct capacities a finite tolerance is at
least 1; under the tie-break of duplicate capacities it can be 0, so
finiteness is carried by the mask, never by the value.

``query_edge_arrays`` returns the kernel's answer as ``EdgeArrays`` (uint64
lower/upper columns, 0 where +inf, and their masks).  ``finite_entries``
lists only the pairs with a finite side, as Python ints and ``INFINITY``;
``query_edge`` and ``query_edge_for_pair`` are thin wrappers over it.  All of
them cost O(k).

A ToleranceOracle is immutable after preprocess; concurrent query calls from
multiple threads are safe (pure reads, no locks).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from .graphs import CapacitatedGraph, QueryPair, capacity_ranks
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


class EdgeArrays(NamedTuple):
    """All 2k tolerances of one edge as length-k columns.  ``lower`` and
    ``upper`` are uint64 and exact where ``lower_finite`` / ``upper_finite``
    is set; elsewhere they are 0 and the tolerance is +inf."""

    lower: np.ndarray
    upper: np.ndarray
    lower_finite: np.ndarray
    upper_finite: np.ndarray


@dataclass(frozen=True)
class PairContext:
    """Per-pair preprocessing result: the bottleneck edge of the tree path."""

    pair: QueryPair
    bottleneck_edge: int
    bottleneck_value: int


class ToleranceOracle:
    __slots__ = ("graph", "tree", "index", "tables", "contexts",
                 "_s_tin", "_t_tin", "_estar", "_estar_cap", "_cap_u",
                 "_estar_cap_u", "_zero", "_none")

    def __init__(self, graph: CapacitatedGraph, tree: SpanningTree,
                 index: RootedTreeIndex, tables: ReplacementTables,
                 contexts: list[PairContext]):
        self.graph = graph
        self.tree = tree
        self.index = index
        self.tables = tables
        self.contexts = contexts
        self._build_query_arrays()

    def _build_query_arrays(self) -> None:
        idx = self.index
        s_arr = np.array([c.pair.s for c in self.contexts], dtype=np.int64)
        t_arr = np.array([c.pair.t for c in self.contexts], dtype=np.int64)
        self._s_tin = idx.tin_of(s_arr)
        self._t_tin = idx.tin_of(t_arr)
        self._estar = np.array([c.bottleneck_edge for c in self.contexts],
                               dtype=np.int64)
        cap = self.graph.edge_cap
        self._estar_cap = cap[self._estar]
        # uint64 views of the same buffers, for wrap-around subtraction
        self._cap_u = cap.view(np.uint64)
        self._estar_cap_u = self._estar_cap.view(np.uint64)
        k = len(self.contexts)
        self._zero = np.zeros(k, dtype=np.uint64)
        self._none = np.zeros(k, dtype=bool)
        self._zero.flags.writeable = self._none.flags.writeable = False

    # -- queries -------------------------------------------------------------

    def _finite_side(self, e: int) -> tuple[bool, np.ndarray, np.ndarray]:
        """(is_lower, values, finite): the one side of edge e that can be
        finite for any pair -- lower on the path, upper off it -- as a uint64
        column that holds the tolerance where the bool mask ``finite`` is
        set and is meaningless elsewhere."""
        self._check_edge(e)
        cap_e = self._cap_u[e]
        if self.tree.is_tree_edge[e]:
            rep = self.tables.L[e]
            if rep == 0:
                return True, self._zero, self._none
            idx = self.index
            y = idx.tree_edge_child[e]
            on = idx.ancestor_mask(y, self._s_tin) != idx.ancestor_mask(y, self._t_tin)
            floor = np.minimum(self._estar_cap, self.graph.edge_cap[rep])
            return True, cap_e - floor.view(np.uint64), on
        return False, self._estar_cap_u - cap_e, self._estar == self.tables.U[e]

    def query_edge_arrays(self, e: int) -> EdgeArrays:
        """All 2k tolerances of edge e as uint64 columns with finite masks;
        O(k).  The columns of the side that is +inf for every pair are
        shared read-only zeros."""
        is_lower, values, finite = self._finite_side(e)
        values = values * finite
        if is_lower:
            return EdgeArrays(values, self._zero, finite, self._none)
        return EdgeArrays(self._zero, values, self._none, finite)

    def finite_entries(self, e: int) -> Iterator[tuple[int, Tolerance, Tolerance]]:
        """(pair index, lower, upper) as Python ints or INFINITY, for every
        pair with a finite tolerance on edge e; O(k)."""
        is_lower, values, finite = self._finite_side(e)
        rows = np.flatnonzero(finite)
        found = values[rows].tolist()
        if is_lower:
            return zip(rows.tolist(), found, repeat(INFINITY))
        return zip(rows.tolist(), repeat(INFINITY), found)

    def query_edge(self, e: int) -> list[EdgeTolerances]:
        """All 2k tolerances of edge e, one (lower, upper) per pair, as Python
        ints or INFINITY; O(k)."""
        answers = [_UNBOUNDED] * len(self.contexts)
        for i, lo, up in self.finite_entries(e):
            answers[i] = EdgeTolerances(lo, up)
        return answers

    def query_edge_for_pair(self, e: int, i: int) -> EdgeTolerances:
        """Tolerances of edge e w.r.t. the fixed optimal path of pair i; O(k)."""
        self._check_edge(e)
        if not 0 <= i < len(self.contexts):
            raise IndexError(f"pair index {i} out of range (k={len(self.contexts)})")
        return self.query_edge(e)[i]

    def bottleneck_value(self, i: int) -> int:
        """b(s_i, t_i): the max over s_i--t_i paths of the path's min capacity."""
        if not 0 <= i < len(self.contexts):
            raise IndexError(f"pair index {i} out of range (k={len(self.contexts)})")
        return self.contexts[i].bottleneck_value

    def _check_edge(self, e: int) -> None:
        if not 1 <= e <= self.graph.m:
            raise IndexError(f"edge id {e} out of range (m={self.graph.m})")


def preprocess(g: CapacitatedGraph, pairs: list[QueryPair]) -> ToleranceOracle:
    """Build the oracle: MST, tree index, replacement tables, pair contexts.

    Accepts plain (s, t) tuples as well as QueryPair values.
    """
    pairs = [p if isinstance(p, QueryPair) else QueryPair(p[0], p[1])
             for p in pairs]
    for p in pairs:
        if not (1 <= p.s <= g.n and 1 <= p.t <= g.n):
            raise ValueError(f"pair ({p.s}, {p.t}) out of range (n={g.n})")
        if p.s == p.t:
            raise ValueError(f"pair ({p.s}, {p.t}) has equal endpoints")
    rank = capacity_ranks(g)
    tree = build_max_spanning_tree(g)
    idx = build_index(tree, g, root=1, rank=rank)
    tables = build_replacement_tables(g, tree, idx)
    ss = np.array([p.s for p in pairs], dtype=np.int64)
    ts = np.array([p.t for p in pairs], dtype=np.int64)
    estars = idx.path_min_edge_batch(ss, ts)
    contexts = [PairContext(pair=p, bottleneck_edge=e_star, bottleneck_value=value)
                for p, e_star, value in zip(pairs, estars.tolist(),
                                            g.edge_cap[estars].tolist())]
    return ToleranceOracle(g, tree, idx, tables, contexts)
