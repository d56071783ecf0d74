"""Brute-force ground truth for bottleneck values and tolerances.

Everything here is deliberately exponential and capped at small n: simple
paths are enumerated exhaustively and the tolerance formulas are evaluated
over the explicit path sets F+e (paths through e) and F-e (paths avoiding e).
The fixed optimal path S* is the s-t path of the unique maximum spanning
tree, recomputed here by reverse-delete so that no code is shared with the
Kruskal-based production pipeline.

``PairAnalysis`` enumerates once per pair and gives two independent
readings of "tolerance":

* formula evaluation over path sets (``tolerances``), and
* the sup-definition, probed by perturbing one capacity and checking
  whether S* still attains the perturbed optimum (``still_optimal``).

Conventions: a minimum over an empty edge set is +inf (a two-vertex direct
path keeps being optimal under arbitrary increases of its only edge exactly
when nothing better exists); an optimum over an empty path set is -inf
("no path avoids e"), which turns the lower tolerance into +inf.

The upper-tolerance guard is "max over F+e of min-excluding-e > b(s,t)"
rather than "> c(e)": the two differ when the best detour through e only
ties the optimum, and the sup-definition (which the perturbation check
realizes) demands the former.  See the G2/f4 regression test.
"""
from __future__ import annotations

import math

from .graphs import CapacitatedGraph
from .oracle import EdgeTolerances

# The guard is on n, but enumeration cost grows with the number of simple
# paths, i.e. with m: one dense graph at n=12, m=56 took ~114 s for four
# PairAnalysis pairs.  Near the limit keep graphs sparse.
MAX_ENUMERATION_N = 12


def _check_enumerable(g: CapacitatedGraph, s: int, t: int) -> None:
    if g.n > MAX_ENUMERATION_N:
        raise ValueError(f"refusing to enumerate paths on {g.n} > {MAX_ENUMERATION_N} vertices")
    if not (1 <= s <= g.n and 1 <= t <= g.n):
        raise ValueError(f"vertex out of range: ({s}, {t})")
    if s == t:
        raise ValueError("source and target must differ")


def _adjacency(g: CapacitatedGraph, edge_ids) -> list[list[tuple[int, int]]]:
    """(neighbour, edge id) lists per vertex over the given edges, in their
    order; the reference builds its own, sharing nothing with the pipeline."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for e in edge_ids:
        u, v = g.endpoints(e)
        adj[u].append((v, e))
        adj[v].append((u, e))
    return adj


def _walk_paths(g: CapacitatedGraph, s: int, t: int):
    """Yield (vertices, edge_ids, bottleneck) for every simple s-t path."""
    cap = g.edge_cap.tolist()
    incident = _adjacency(g, g.edge_ids())
    visited = bytearray(g.n + 1)
    visited[s] = 1
    verts = [s]
    edges: list[int] = []

    def recurse(v: int, cur_min: float):
        if v == t:
            yield tuple(verts), tuple(edges), cur_min
            return
        for w, e in incident[v]:
            if visited[w]:
                continue
            visited[w] = 1
            verts.append(w)
            edges.append(e)
            yield from recurse(w, min(cur_min, cap[e]))
            edges.pop()
            verts.pop()
            visited[w] = 0

    yield from recurse(s, math.inf)


def enumerate_simple_paths(g: CapacitatedGraph, s: int, t: int
                           ) -> list[tuple[tuple[int, ...], int]]:
    """(vertices, bottleneck) of every simple s-t path, by exhaustive DFS."""
    _check_enumerable(g, s, t)
    return [(verts, int(bottleneck)) for verts, _, bottleneck in _walk_paths(g, s, t)]


# -- independent maximum spanning tree (reverse-delete) ----------------------

def brute_max_spanning_tree(g: CapacitatedGraph) -> set[int]:
    """Edge ids of the maximum spanning tree, by reverse-delete.

    Scans edges in increasing capacity and drops each one whose removal
    keeps the graph connected.  Quadratic-ish and independent of the
    Kruskal/union-find route used in production.
    """
    alive = set(g.edge_ids())
    for e in sorted(alive, key=lambda e: (g.capacity(e), e)):
        alive.discard(e)
        if not _connected_using(g, alive):
            alive.add(e)
    return alive


def _connected_using(g: CapacitatedGraph, edge_ids: set[int]) -> bool:
    if g.n == 1:
        return True
    adj = _adjacency(g, edge_ids)
    seen = {1}
    stack = [1]
    while stack:
        for w, _ in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _tree_path(g: CapacitatedGraph, tree_edges: set[int], s: int, t: int
               ) -> tuple[int, ...]:
    """Vertex sequence of the unique s-t path inside the given tree edges."""
    adj = _adjacency(g, tree_edges)
    prev = {s: 0}
    stack = [s]
    while stack and t not in prev:
        v = stack.pop()
        for w, _ in adj[v]:
            if w not in prev:
                prev[w] = v
                stack.append(w)
    path = [t]
    while path[-1] != s:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(path)


def _path_edges(g: CapacitatedGraph, verts: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for u, v in zip(verts, verts[1:]):
        e = g.edge_between(u, v)
        assert e is not None, f"no edge between {u} and {v}"
        out.append(e)
    return tuple(out)


# -- per-pair analysis -------------------------------------------------------

class PairAnalysis:
    """One enumeration pass for a fixed (s, t); O(1) tolerance/perturbation
    checks per edge afterwards.

    ``bottleneck`` is b(s,t) and ``witness`` the fixed optimal path as a
    vertex tuple: the s-t path of the maximum spanning tree unless one is
    passed in, which must itself be optimal.  Stores, per edge e: the number
    of s-t paths through e, the best bottleneck among paths avoiding e, and
    the best min-excluding-e among paths through e.  Together with the
    witness these aggregates determine every tolerance and every single-edge
    perturbation outcome.
    """

    def __init__(self, g: CapacitatedGraph, s: int, t: int,
                 witness: tuple[int, ...] | None = None):
        _check_enumerable(g, s, t)
        self.g = g
        self.s = s
        self.t = t
        self._cap = cap = g.edge_cap.tolist()
        records = []  # (bottleneck, argmin edge, second min, edge set)
        through_best: dict[int, float] = {}
        through_count: dict[int, int] = {}
        for _, edges, bottleneck in _walk_paths(g, s, t):
            caps = [cap[e] for e in edges]
            m1 = min(caps)
            am = edges[caps.index(m1)]
            rest = [c for c in caps if c != m1]
            m2 = min(rest) if rest else math.inf
            records.append((int(bottleneck), am, m2, frozenset(edges)))
            for e in edges:
                excl = m2 if e == am else m1
                if excl > through_best.get(e, -math.inf):
                    through_best[e] = excl
                through_count[e] = through_count.get(e, 0) + 1
        if not records:
            raise ValueError(f"no path between {s} and {t}")
        records.sort(key=lambda r: r[0], reverse=True)
        self._records = records
        self._through_best = through_best
        self._through_count = through_count
        self.bottleneck = records[0][0]
        if witness is None:
            witness = _tree_path(g, brute_max_spanning_tree(g), s, t)
        self.witness = witness
        w_edges = _path_edges(g, witness)
        w_caps = [cap[e] for e in w_edges]
        self._w_min = min(w_caps)
        assert self._w_min == self.bottleneck, "witness is not optimal"
        self._w_argmin = w_edges[w_caps.index(self._w_min)]
        rest = [c for c in w_caps if c != self._w_min]
        self._w_min2 = min(rest) if rest else math.inf
        self._w_edge_set = frozenset(w_edges)
        self._avoid_cache: dict[int, float] = {}

    def _best_avoiding(self, e: int) -> float:
        """Best bottleneck among paths not containing e; -inf if none."""
        cached = self._avoid_cache.get(e)
        if cached is not None:
            return cached
        if self._through_count.get(e, 0) == len(self._records):
            value = -math.inf
        else:
            value = next(r[0] for r in self._records if e not in r[3])
        self._avoid_cache[e] = value
        return value

    def _check_edge(self, e: int) -> None:
        if not 1 <= e <= self.g.m:
            raise ValueError(f"edge id {e} out of range (m={self.g.m})")

    def tolerances(self, e: int) -> EdgeTolerances:
        """(lower, upper) of edge e by formula evaluation w.r.t. the fixed
        witness; ValueError for an edge id outside 1..m."""
        self._check_edge(e)
        if e in self._w_edge_set:
            avoid = self._best_avoiding(e)
            if avoid == -math.inf:
                return EdgeTolerances(math.inf, math.inf)
            return EdgeTolerances(self._cap[e] - avoid, math.inf)
        best_through = self._through_best.get(e, -math.inf)
        if best_through > self.bottleneck:
            return EdgeTolerances(math.inf, self.bottleneck - self._cap[e])
        return EdgeTolerances(math.inf, math.inf)

    def still_optimal(self, e: int, delta: int) -> bool:
        """Does the witness attain the optimum after c(e) += delta?  Injectivity
        may break in the perturbed graph; only value attainment is checked,
        which is exactly the sup-definition's criterion.  ValueError for an
        edge id outside 1..m."""
        self._check_edge(e)
        perturbed = self._cap[e] + delta
        if e in self._w_edge_set:
            excl = self._w_min2 if e == self._w_argmin else self._w_min
            witness_value = min(excl, perturbed)
        else:
            witness_value = self._w_min
        through = min(self._through_best.get(e, -math.inf), perturbed)
        optimum = max(self._best_avoiding(e), through)
        return witness_value == optimum

