"""Capacitated graphs: construction, text format, validation, shared fixtures.

Vertices are numbered 1..n and edges 1..m, matching the text format.  A graph
is three read-only int64 columns of length m+1 (slot 0 unused) that every
stage reads directly, plus its edge ids in capacity order, sorted once; its
accessors return Python ints, because int64 arithmetic wraps silently, and
:func:`descending_edges` is the one scan that turns that order into them.  A
graph is only a container here — :func:`validate` decides whether it
satisfies the contract the rest of the library relies on (simple, connected,
pairwise-distinct capacities).  Validation works on whole columns.  Graph and
pairs files share one reader: np.loadtxt converts their bytes in bulk, with
no list of lines.  Input that is not ASCII, holds a line end only
str.splitlines() knows (CR, VT, FF, 0x1c-0x1e), lacks one LF per promised line
or promises none, and any that np.loadtxt refuses, goes to a scan with int()
over the lines instead, which alone decides errors and names the first bad line.
"""
from __future__ import annotations

import contextlib
import io
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

VertexId = int
EdgeId = int

#: Largest n for which every endpoint key lo*(n+1)+hi fits in int64.
MAX_VERTICES = math.isqrt(2**63) - 1
CHUNK = 1 << 13  # edges or pairs per batch converted to Python ints or sent to one call


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
        array; a value outside int64 raises OverflowError, and a vertex id
        outside 1..n ValueError."""
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} above {MAX_VERTICES}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        rows = np.asarray(edges, dtype=np.int64).reshape(len(edges), 3)
        if len(rows) and not (1 <= rows[:, :2].min() and rows[:, :2].max() <= n):
            raise ValueError(f"vertex id out of range 1..{n}")
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

    Rejects line-level defects (bad tokens, out-of-range vertex ids,
    capacities outside int64, repeated endpoint pairs), naming the first bad
    line; :func:`validate` checks connectivity and capacity injectivity.
    """
    source, (n, m) = _header(text, "n m", "edge")
    rows, error = _rows(source, m, n, "u v c", "edge")
    del source  # the file need not outlive its rows
    g = CapacitatedGraph(n, rows)
    repeat = _first_parallel(g)  # among the rows before the first bad line
    if repeat is not None:
        first, e = repeat
        u, v = g.endpoints(e)
        raise ParseError(e + 1, f"parallel edge {u}-{v} (first on line {first + 1})")
    if error is not None:
        raise error
    return g


def serialize_graph(g: CapacitatedGraph) -> str:
    """Inverse of parse_graph; LF newlines, one trailing newline."""
    rows = zip(g.edge_u[1:].tolist(), g.edge_v[1:].tolist(), g.edge_cap[1:].tolist())
    out = [f"{g.n} {g.m}", *(f"{u} {v} {c}" for u, v, c in rows)]
    return "\n".join(out) + "\n"


def parse_pairs(text: str | bytes, n: int) -> np.ndarray:
    """Parse the pairs format: "k" header, then k lines "s t", into a
    read-only (k, 2) int64 array of (s, t) rows.

    Follows the line rules of :func:`parse_graph`.  s = t is rejected here
    (no path semantics exist for a pair with equal endpoints).
    """
    source, (k,) = _header(text, "k", "pair")
    rows, error = _rows(source, k, n, "s t", "pair")
    same = np.flatnonzero(rows[:, 0] == rows[:, 1])  # in the rows before the first bad line
    if len(same):
        raise ParseError(int(same[0]) + 2, f"source equals target ({rows[same[0], 0]})")
    if error is not None:
        raise error
    rows.flags.writeable = False
    return rows


def _header(text: str | bytes, names: str,
            noun: str) -> tuple[bytes | list[str], list[int]]:
    """A graph or pairs file and the integers of its first line, whose fields
    ``names`` names: vertex counts, then the count of ``noun`` lines that
    follow it.  The file comes back as bytes when the bulk path may read it,
    and otherwise as its lines, for the line scan."""
    if not text:
        raise ParseError(1, f"empty input, expected {names!r} header")
    if isinstance(text, str) and text.isascii():
        text = text.encode()
    if isinstance(text, bytes) and _bulk_readable(text):
        source, end = text, text.find(b"\n")
        first = text[:end if end >= 0 else None].decode()
    else:
        source = (text.decode("utf-8") if isinstance(text, bytes) else text).splitlines()
        first = source[0]
    fields = first.split()
    if len(fields) != len(names.split()):
        raise ParseError(1, f"expected {names!r}, got {first!r}")
    try:
        *sizes, count = map(int, fields)
    except ValueError:
        raise ParseError(1, f"non-integer header {first!r}") from None
    for n in sizes:
        if n < 1:
            raise ParseError(1, f"vertex count must be positive, got {n}")
        if n > MAX_VERTICES:
            raise ParseError(1, f"vertex count {n} above {MAX_VERTICES}")
    if count < 0:
        raise ParseError(1, f"{noun} count must be nonnegative, got {count}")
    return source, [*sizes, count]


def _bulk_readable(data: bytes) -> bool:
    """ASCII, and no line end that str.splitlines() sees and np.loadtxt does not."""
    return data.isascii() and not any(
        sep in data for sep in (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e"))


def _rows(source: bytes | list[str], count: int, n: int, fields: str,
          noun: str) -> tuple[np.ndarray, ParseError | None]:
    """Lines 2..count+1 of what :func:`_header` returned, as int64 rows of the
    fields ``fields`` names, the first two vertex ids in 1..n, and the error
    of the first bad line, if any, with only the rows before it.  np.loadtxt
    skips blank lines, so the bytes must hold count LFs before trailing blanks."""
    if isinstance(source, bytes):
        if count and source.count(b"\n", 0, len(source.rstrip(b" \t\n"))) == count:
            with contextlib.suppress(ValueError, Warning), warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(io.BytesIO(source), dtype=np.int64, comments=None,
                                  ndmin=2, skiprows=1, encoding="utf-8")
                if (rows.shape == (count, len(fields.split()))
                        and 1 <= rows[:, :2].min() and rows[:, :2].max() <= n):
                    return rows, None
        source = source.decode().splitlines()
    return _scan_lines(source, count, n, fields, noun)


def _scan_lines(lines: list[str], count: int, n: int, fields: str,
                noun: str) -> tuple[np.ndarray, ParseError | None]:
    """:func:`_rows` line by line with int(): the first bad line is a bad body
    line, a missing ``noun`` line, or a non-blank line after the body."""
    body, width = lines[1:count + 1], len(fields.split())
    extra = next(filter(str.strip, lines[count + 1:]), None)
    error = None if extra is None else ParseError(
        lines.index(extra, count + 1) + 1, f"unexpected trailing content {extra!r}")
    rows = []
    try:
        for line_no, line in enumerate(body, start=2):
            parts = line.split()
            if len(parts) != width:
                raise ParseError(line_no, f"expected {fields!r}, got {line!r}")
            try:
                row = [*map(int, parts)]
            except ValueError:
                raise ParseError(line_no, f"non-integer field in {line!r}") from None
            for u in row[:2]:
                if not 1 <= u <= n:
                    raise ParseError(line_no, f"vertex id {u} out of range 1..{n}")
            for c in row[2:]:
                if not -(2**63) <= c < 2**63:
                    raise ParseError(line_no, f"capacity {c} outside signed 64-bit range")
            rows.append(row)
        if len(body) < count:  # every present line is good
            raise ParseError(len(lines) + 1, f"expected {count} {noun} lines, "
                                             f"found {len(body)}")
    except ParseError as exc:
        error = exc
    return np.array(rows, dtype=np.int64).reshape(-1, width), error


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


def descending_edges(g: CapacitatedGraph,
                     keep: np.ndarray | None = None) -> Iterator[tuple[int, int, int]]:
    """(e, u, v) as Python ints in descending (capacity, EdgeId) order, for
    every edge or those the bool edge column ``keep`` marks.  Converts CHUNK
    edges at a time: a scan holds no m-length list, and stopping ends it."""
    order = g.capacity_order[::-1]
    for lo in range(0, g.m, CHUNK):
        chunk = order[lo:lo + CHUNK]
        if keep is not None:
            chunk = chunk[keep[chunk]]
        yield from zip(chunk.tolist(), g.edge_u[chunk].tolist(), g.edge_v[chunk].tolist())


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
