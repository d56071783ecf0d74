"""Capacitated graphs: construction, text format, validation, shared fixtures.

Vertices are numbered 1..n and edges 1..m, matching the text format; index 0
of the per-edge arrays is unused.  A graph is only a container here —
:func:`validate` decides whether it satisfies the contract the rest of the
library relies on (simple, connected, pairwise-distinct capacities).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

VertexId = int
EdgeId = int


class ParseError(ValueError):
    """Raised for malformed graph/pairs files.  Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class CapacitatedGraph:
    """Undirected graph whose edges carry 64-bit integer capacities.

    Immutable after construction; all query-side structures treat it as
    read-only, so concurrent reads are safe.
    """

    __slots__ = ("n", "m", "edge_u", "edge_v", "edge_cap", "_adj_indptr",
                 "_adj_neighbor", "_adj_edge", "_endpoint_keys",
                 "_endpoint_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        edge_list = list(edges)
        self.n = n
        self.m = len(edge_list)
        # 1-based edge ids; slot 0 unused
        self.edge_u: list[int] = [0] * (self.m + 1)
        self.edge_v: list[int] = [0] * (self.m + 1)
        self.edge_cap: list[int] = [0] * (self.m + 1)
        for i, (u, v, c) in enumerate(edge_list, start=1):
            self.edge_u[i] = u
            self.edge_v[i] = v
            self.edge_cap[i] = c
        self._build_adjacency()
        # sorted endpoint keys and their edge ids, built by edge_between
        self._endpoint_keys: np.ndarray | None = None
        self._endpoint_edges: np.ndarray | None = None

    def _build_adjacency(self) -> None:
        # CSR layout: incident edges of v are positions indptr[v]..indptr[v+1],
        # sorted by EdgeId within each vertex (i.e. input order)
        n, m = self.n, self.m
        us = np.array(self.edge_u[1:], dtype=np.int64)
        vs = np.array(self.edge_v[1:], dtype=np.int64)
        ids = np.arange(1, m + 1, dtype=np.int64)
        ends = np.concatenate([us, vs])
        other = np.concatenate([vs, us])
        eids = np.concatenate([ids, ids])
        order = np.lexsort((eids, ends))
        counts = np.bincount(ends, minlength=n + 1)
        indptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._adj_indptr = indptr
        self._adj_neighbor = other[order]
        self._adj_edge = eids[order]

    def incident(self, v: int) -> Iterator[tuple[int, int]]:
        """Yield (neighbor, edge_id) for every edge incident to v, in input order."""
        lo, hi = self._adj_indptr[v], self._adj_indptr[v + 1]
        for k in range(lo, hi):
            yield int(self._adj_neighbor[k]), int(self._adj_edge[k])

    def degree(self, v: int) -> int:
        return int(self._adj_indptr[v + 1] - self._adj_indptr[v])

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edge_u[e], self.edge_v[e]

    def capacity(self, e: int) -> int:
        return self.edge_cap[e]

    def edge_ids(self) -> range:
        return range(1, self.m + 1)

    def edge_between(self, u: int, v: int) -> int | None:
        """EdgeId joining u and v, or None.

        Looks the key lo*(n+1)+hi up in a sorted key column built on first
        use; when several edges join u and v, the last one wins.
        """
        lo, hi = (u, v) if u < v else (v, u)
        if not (1 <= lo and hi <= self.n):
            return None
        if self._endpoint_keys is None:
            us = np.array(self.edge_u, dtype=np.int64)
            vs = np.array(self.edge_v, dtype=np.int64)
            keys = np.minimum(us, vs) * (self.n + 1) + np.maximum(us, vs)
            keys[0] = -1  # slot 0 is not an edge
            order = np.argsort(keys, kind="stable")
            self._endpoint_edges = order
            self._endpoint_keys = keys[order]
        key = lo * (self.n + 1) + hi
        pos = int(np.searchsorted(self._endpoint_keys, key, side="right")) - 1
        if self._endpoint_keys[pos] != key:
            return None
        return int(self._endpoint_edges[pos])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CapacitatedGraph):
            return NotImplemented
        return (self.n == other.n and self.edge_u == other.edge_u
                and self.edge_v == other.edge_v and self.edge_cap == other.edge_cap)

    def __repr__(self) -> str:
        return f"CapacitatedGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class QueryPair:
    s: VertexId
    t: VertexId


@dataclass(frozen=True)
class Violation:
    """First violated validity property, with a witness.

    kind is one of "self-loop", "parallel-edges", "disconnected",
    "duplicate-capacity"; witness holds the offending vertex or edge ids.
    """
    kind: str
    message: str
    witness: tuple[int, ...]


def parse_graph(text: str | bytes) -> CapacitatedGraph:
    """Parse the graph text format: "n m" header, then m lines "u v c".

    Rejects structural defects visible line-by-line (bad tokens, out-of-range
    vertex ids, repeated endpoint pairs).  Connectivity and capacity
    injectivity are checked later by :func:`validate`.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input, expected 'n m' header")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(1, f"expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(1, f"non-integer header {lines[0]!r}") from None
    if n < 1:
        raise ParseError(1, f"vertex count must be positive, got {n}")
    if m < 0:
        raise ParseError(1, f"edge count must be nonnegative, got {m}")
    if len(lines) < m + 1:
        raise ParseError(len(lines) + 1, f"expected {m} edge lines, found {len(lines) - 1}")
    edges: list[tuple[int, int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    for i in range(1, m + 1):
        parts = lines[i].split()
        if len(parts) != 3:
            raise ParseError(i + 1, f"expected 'u v c', got {lines[i]!r}")
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(i + 1, f"non-integer field in {lines[i]!r}") from None
        if not (1 <= u <= n):
            raise ParseError(i + 1, f"vertex id {u} out of range 1..{n}")
        if not (1 <= v <= n):
            raise ParseError(i + 1, f"vertex id {v} out of range 1..{n}")
        if not (-(2**63) <= c < 2**63):
            raise ParseError(i + 1, f"capacity {c} outside signed 64-bit range")
        key = (u, v) if u < v else (v, u)
        if u != v and key in seen:
            raise ParseError(i + 1, f"parallel edge {u}-{v} (first on line {seen[key] + 1})")
        seen[key] = i
        edges.append((u, v, c))
    for i in range(m + 1, len(lines)):
        if lines[i].strip():
            raise ParseError(i + 1, f"unexpected trailing content {lines[i]!r}")
    return CapacitatedGraph(n, edges)


def serialize_graph(g: CapacitatedGraph) -> str:
    """Inverse of parse_graph; LF newlines, one trailing newline."""
    out = [f"{g.n} {g.m}"]
    for e in g.edge_ids():
        out.append(f"{g.edge_u[e]} {g.edge_v[e]} {g.edge_cap[e]}")
    return "\n".join(out) + "\n"


def parse_pairs(text: str | bytes, n: int) -> list[QueryPair]:
    """Parse the pairs format: "k" header, then k lines "s t".

    s = t and out-of-range ids are rejected here (no path semantics exist for
    a pair with equal endpoints).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input, expected 'k' header")
    try:
        k = int(lines[0].strip())
    except ValueError:
        raise ParseError(1, f"non-integer pair count {lines[0]!r}") from None
    if k < 0:
        raise ParseError(1, f"pair count must be nonnegative, got {k}")
    if len(lines) < k + 1:
        raise ParseError(len(lines) + 1, f"expected {k} pair lines, found {len(lines) - 1}")
    pairs = []
    for i in range(1, k + 1):
        parts = lines[i].split()
        if len(parts) != 2:
            raise ParseError(i + 1, f"expected 's t', got {lines[i]!r}")
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(i + 1, f"non-integer field in {lines[i]!r}") from None
        if not (1 <= s <= n) or not (1 <= t <= n):
            raise ParseError(i + 1, f"vertex id out of range 1..{n} in {lines[i]!r}")
        if s == t:
            raise ParseError(i + 1, f"source equals target ({s})")
        pairs.append(QueryPair(s, t))
    return pairs


def validate(g: CapacitatedGraph, *, allow_equal_capacities: bool = False) -> Violation | None:
    """Return None if g is simple, connected, and injectively capacitated.

    Otherwise return the first violated property (checked in the order:
    self-loops, parallel edges, connectivity, capacity injectivity) together
    with a witness.  allow_equal_capacities skips the injectivity check; every
    capacity comparison downstream then falls back to (capacity, EdgeId)
    lexicographic order, i.e. results hold for an infinitesimally perturbed
    instance.
    """
    seen: dict[tuple[int, int], int] = {}
    for e in g.edge_ids():
        u, v = g.edge_u[e], g.edge_v[e]
        if u == v:
            return Violation("self-loop", f"edge {e} is a self-loop at vertex {u}", (e,))
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return Violation("parallel-edges",
                             f"edges {seen[key]} and {e} both join {key[0]} and {key[1]}",
                             (seen[key], e))
        seen[key] = e
    unreached = _bfs_unreached(g, start=1)
    if unreached is not None:
        return Violation("disconnected",
                         f"vertices 1 and {unreached} lie in different components",
                         (1, unreached))
    if not allow_equal_capacities:
        order = sorted(g.edge_ids(), key=lambda e: (g.edge_cap[e], e))
        for a, b in zip(order, order[1:]):
            if g.edge_cap[a] == g.edge_cap[b]:
                return Violation("duplicate-capacity",
                                 f"edges {a} and {b} share capacity {g.edge_cap[a]}",
                                 (a, b))
    return None


def _bfs_unreached(g: CapacitatedGraph, start: int) -> int | None:
    """Smallest vertex not reachable from start, or None if all are."""
    seen = bytearray(g.n + 1)
    seen[start] = 1
    frontier = [start]
    reached = 1
    indptr, neighbor = g._adj_indptr, g._adj_neighbor
    while frontier:
        nxt = []
        for v in frontier:
            for k in range(indptr[v], indptr[v + 1]):
                w = int(neighbor[k])
                if not seen[w]:
                    seen[w] = 1
                    reached += 1
                    nxt.append(w)
        frontier = nxt
    if reached == g.n:
        return None
    return next(v for v in range(1, g.n + 1) if not seen[v])


def capacity_ranks(g: CapacitatedGraph) -> np.ndarray:
    """rank[e] = position of edge e in ascending (capacity, EdgeId) order.

    Length m+1 with rank[0] = m, an above-everything sentinel for "no edge".
    Comparing ranks is comparing capacities whenever capacities are injective,
    and realizes the documented lexicographic tie-break otherwise.
    """
    caps = np.array(g.edge_cap[1:], dtype=np.int64)
    order = np.lexsort((np.arange(1, g.m + 1, dtype=np.int64), caps))
    rank = np.full(g.m + 1, g.m, dtype=np.int64)
    rank[order + 1] = np.arange(g.m, dtype=np.int64)
    return rank


# Shared fixture graphs used across demos and tests.

def triangle_example() -> CapacitatedGraph:
    """3-cycle: edges 1-2 (cap 5), 2-3 (cap 3), 1-3 (cap 1)."""
    return CapacitatedGraph(3, [(1, 2, 5), (2, 3, 3), (1, 3, 1)])


def diamond_example() -> CapacitatedGraph:
    """K4 minus the 1-4 edge: 1-2 (10), 2-3 (8), 3-4 (6), 1-3 (4), 2-4 (2)."""
    return CapacitatedGraph(4, [(1, 2, 10), (2, 3, 8), (3, 4, 6), (1, 3, 4), (2, 4, 2)])


def single_edge_example() -> CapacitatedGraph:
    """Two vertices joined by one edge of capacity 7."""
    return CapacitatedGraph(2, [(1, 2, 7)])
