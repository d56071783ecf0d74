"""Capacitated graphs: construction, text format, validation, shared fixtures.

Vertices are numbered 1..n and edges 1..m, matching the text format.  A graph
is three read-only int64 columns of length m+1 (slot 0 unused) that every
stage reads directly, plus its edge ids in capacity order, sorted once; its
accessors return Python ints, because int64 arithmetic wraps silently.  A
graph is only a container here — :func:`validate` decides whether it
satisfies the contract the rest of the library relies on (simple, connected,
pairwise-distinct capacities).  Parsing and validation work on whole columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

VertexId = int
EdgeId = int

#: Largest n for which every endpoint key lo*(n+1)+hi fits in int64.
MAX_VERTICES = math.isqrt(2**63) - 1


class ParseError(ValueError):
    """Raised for malformed graph/pairs files.  Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class CapacitatedGraph:
    """Undirected graph whose edges carry 64-bit integer capacities.

    ``edge_u``, ``edge_v`` and ``edge_cap`` are the whole graph.  Its endpoint
    keys lo*(n+1)+hi, sorted once, serve ``edge_between`` and the parallel-edge
    checks, so n is at most MAX_VERTICES.  ``capacity_order``, sorted once,
    lists the edge ids in ascending (capacity, EdgeId) order; every capacity
    comparison in the library follows it.  Immutable after construction, so
    concurrent reads are safe.
    """

    __slots__ = ("n", "m", "edge_u", "edge_v", "edge_cap", "capacity_order",
                 "_endpoint_keys", "_endpoint_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] | np.ndarray):
        """``edges`` holds (u, v, c) rows, as tuples or an (m, 3) integer
        array; a value outside int64 raises OverflowError."""
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} above {MAX_VERTICES}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        rows = np.asarray(edges, dtype=np.int64).reshape(len(edges), 3)
        self.n = n
        self.m = len(rows)
        columns = np.zeros((3, self.m + 1), dtype=np.int64)
        columns[:, 1:] = rows.T
        columns.flags.writeable = False
        self.edge_u, self.edge_v, self.edge_cap = columns
        us, vs = self.edge_u[1:], self.edge_v[1:]
        keys = np.minimum(us, vs) * (n + 1) + np.maximum(us, vs)
        order = np.argsort(keys, kind="stable")
        self._endpoint_keys = keys[order]
        self._endpoint_edges = order + 1
        self.capacity_order = np.argsort(self.edge_cap[1:], kind="stable") + 1
        self.capacity_order.flags.writeable = False

    def endpoints(self, e: int) -> tuple[int, int]:
        return int(self.edge_u[e]), int(self.edge_v[e])

    def capacity(self, e: int) -> int:
        return int(self.edge_cap[e])

    def edge_ids(self) -> range:
        return range(1, self.m + 1)

    def edge_between(self, u: int, v: int) -> int | None:
        """EdgeId joining u and v, or None.

        Looks the key lo*(n+1)+hi up in the sorted endpoint keys; when
        several edges join u and v, the last one wins.
        """
        lo, hi = (u, v) if u < v else (v, u)
        if not (1 <= lo and hi <= self.n):
            return None
        key = lo * (self.n + 1) + hi
        pos = int(np.searchsorted(self._endpoint_keys, key, side="right")) - 1
        if pos < 0 or self._endpoint_keys[pos] != key:
            return None
        return int(self._endpoint_edges[pos])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CapacitatedGraph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.edge_u, other.edge_u)
                and np.array_equal(self.edge_v, other.edge_v)
                and np.array_equal(self.edge_cap, other.edge_cap))

    def __repr__(self) -> str:
        return f"CapacitatedGraph(n={self.n}, m={self.m})"


def _first_parallel(g: CapacitatedGraph) -> tuple[int, int] | None:
    """(a, b): b is the smallest edge id joining the same two distinct
    vertices as an earlier edge, and a the first edge joining them."""
    keys, edges = g._endpoint_keys, g._endpoint_edges
    repeat = keys[1:] == keys[:-1]
    repeat &= g.edge_u[edges[1:]] != g.edge_v[edges[1:]]  # repeated self-loops parse
    if not repeat.any():
        return None
    pos = np.flatnonzero(repeat) + 1
    b = pos[np.argmin(edges[pos])]
    a = np.searchsorted(keys, keys[b])  # the stable sort put the first edge first
    return int(edges[a]), int(edges[b])


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
    vertex ids, capacities outside int64, repeated endpoint pairs), naming
    the first bad line.  Connectivity and capacity injectivity are checked
    later by :func:`validate`.  The edge lines are converted in bulk; only
    when that fails are they scanned one by one to find the line to report.
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
    if n > MAX_VERTICES:
        raise ParseError(1, f"vertex count {n} above {MAX_VERTICES}")
    if m < 0:
        raise ParseError(1, f"edge count must be nonnegative, got {m}")
    if len(lines) < m + 1:
        raise ParseError(len(lines) + 1, f"expected {m} edge lines, found {len(lines) - 1}")
    body = lines[1:m + 1]
    rows, error = _bulk_rows(body, n), None
    if rows is None:
        rows, error = _scan_rows(body, n)
    g = CapacitatedGraph(n, rows)
    repeat = _first_parallel(g)  # among the rows before the first bad line
    if repeat is not None:
        first, e = repeat
        u, v = g.endpoints(e)
        raise ParseError(e + 1, f"parallel edge {u}-{v} (first on line {first + 1})")
    if error is not None:
        raise error
    for i in range(m + 1, len(lines)):
        if lines[i].strip():
            raise ParseError(i + 1, f"unexpected trailing content {lines[i]!r}")
    return g


def _bulk_rows(body: list[str], n: int) -> np.ndarray | None:
    """The edge lines as an (m, 3) int64 array, or None if any line has a
    defect that _scan_rows reports.  np.array converts each token with
    int(), so both paths accept the same spellings."""
    if {*map(len, map(str.split, body))} - {3}:
        return None
    try:
        rows = np.array(" ".join(body).split(), dtype=np.int64).reshape(-1, 3)
    except (ValueError, OverflowError):
        return None
    return rows if ((rows[:, :2] >= 1) & (rows[:, :2] <= n)).all() else None


def _scan_rows(body: list[str], n: int) -> tuple[list, ParseError | None]:
    """The rows before the first line with a defect, and that line's error."""
    rows = []
    for line_no, line in enumerate(body, start=2):
        parts = line.split()
        if len(parts) != 3:
            return rows, ParseError(line_no, f"expected 'u v c', got {line!r}")
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            return rows, ParseError(line_no, f"non-integer field in {line!r}")
        if not (1 <= u <= n):
            return rows, ParseError(line_no, f"vertex id {u} out of range 1..{n}")
        if not (1 <= v <= n):
            return rows, ParseError(line_no, f"vertex id {v} out of range 1..{n}")
        if not (-(2**63) <= c < 2**63):
            return rows, ParseError(line_no, f"capacity {c} outside signed 64-bit range")
        rows.append((u, v, c))
    return rows, None


def serialize_graph(g: CapacitatedGraph) -> str:
    """Inverse of parse_graph; LF newlines, one trailing newline."""
    rows = zip(g.edge_u[1:].tolist(), g.edge_v[1:].tolist(), g.edge_cap[1:].tolist())
    out = [f"{g.n} {g.m}", *(f"{u} {v} {c}" for u, v, c in rows)]
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
    loops = np.flatnonzero(g.edge_u[1:] == g.edge_v[1:])
    if len(loops):
        e = int(loops[0]) + 1
        return Violation("self-loop", f"edge {e} is a self-loop at vertex {g.endpoints(e)[0]}",
                         (e,))
    repeat = _first_parallel(g)
    if repeat is not None:
        a, b = repeat
        lo, hi = sorted(g.endpoints(b))
        return Violation("parallel-edges", f"edges {a} and {b} both join {lo} and {hi}",
                         (a, b))
    unreached = first_unreached(g.n, g.edge_u[1:], g.edge_v[1:])
    if unreached is not None:
        return Violation("disconnected",
                         f"vertices 1 and {unreached} lie in different components",
                         (1, unreached))
    if not allow_equal_capacities:
        order = g.capacity_order
        caps = g.edge_cap[order]
        tied = np.flatnonzero(caps[1:] == caps[:-1])
        if len(tied):
            a, b = int(order[tied[0]]), int(order[tied[0] + 1])
            return Violation("duplicate-capacity",
                             f"edges {a} and {b} share capacity {g.capacity(a)}", (a, b))
    return None


def first_unreached(n: int, us: np.ndarray, vs: np.ndarray) -> int | None:
    """Smallest vertex of 1..n with no path to vertex 1 over the edges
    (us[i], vs[i]), or None if every vertex has one.

    Labels each vertex with the smallest vertex of its component: labels are
    pointers into a forest whose roots label themselves.  Each round points
    every root that an edge joins to a smaller root at the smallest such
    root, then pointer jumping flattens the forest.  Labels only decrease.
    """
    label = np.arange(n + 1)
    while True:
        lu, lv = label[us], label[vs]
        cross = lu != lv
        if not cross.any():
            break
        us, vs, lu, lv = us[cross], vs[cross], lu[cross], lv[cross]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    unreached = np.flatnonzero(label[1:] != 1)
    return int(unreached[0]) + 1 if len(unreached) else None


def capacity_ranks(g: CapacitatedGraph) -> np.ndarray:
    """rank[e] = position of edge e in ascending (capacity, EdgeId) order.

    Length m+1 with rank[0] = m, an above-everything sentinel for "no edge".
    Comparing ranks is comparing capacities whenever capacities are injective,
    and realizes the documented lexicographic tie-break otherwise.  The
    inverse permutation of ``g.capacity_order``; O(m).
    """
    rank = np.full(g.m + 1, g.m, dtype=np.int64)
    rank[g.capacity_order] = np.arange(g.m, dtype=np.int64)
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
