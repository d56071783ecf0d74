"""Answer checks, sharing no code with ``bptol``.

Two levels:

* ``AnswerChecker`` checks the shape of every answer: exactly k records
  ``i s t lower upper`` echoing the pairs file, each tolerance a positive
  integer or ``inf``, at most one finite per record.
* ``DefinitionChecker`` checks a sample of records against the definition,
  and names records worth sampling whatever the CLI reported for them.
  The fixed optimal path of pair (s, t) is the s-t path in the maximum
  spanning tree, which this module builds with its own Kruskal pass.  A
  record is right when shifting the edge's capacity by the tolerance keeps
  that path optimal and shifting it one further breaks it; an ``inf``
  tolerance must survive a shift past every other capacity.  Optimality
  after a shift is decided by a Kruskal-order union-find: the best
  bottleneck b'(s, t) is the capacity at which s and t first connect when
  edges are added in decreasing shifted capacity.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from instances import Instance

INF = b"inf"


@dataclass
class Record:
    edge: int
    pair: int  # 0-based pair index
    lower: int | None  # None stands for inf
    upper: int | None


@dataclass
class AnswerChecker:
    """Checks answers for one instance.  Keeps their finite records, and the
    records named in `watch` as (edge, 0-based pair) whatever they hold."""

    inst: Instance
    watch: set[tuple[int, int]] = field(default_factory=set)
    finite: list[Record] = field(default_factory=list)
    watched: dict[tuple[int, int], Record] = field(default_factory=dict)

    def __post_init__(self):
        k = self.inst.k
        self._idx = [str(i).encode() for i in range(1, k + 1)]
        self._s = [str(s).encode() for s in self.inst.pair_s.tolist()]
        self._t = [str(t).encode() for t in self.inst.pair_t.tolist()]

    def check_block(self, lines: list[bytes], first_edge: int, edges: int) -> str | None:
        """Check `edges` consecutive answers given as their record lines.

        Returns None when every record is well formed, else what is wrong.
        """
        k = self.inst.k
        if len(lines) != k * edges:
            return f"expected {k * edges} records, got {len(lines)}"
        rows = [line.split(b" ") for line in lines]
        if any(len(r) != 5 for r in rows):
            return "a record does not have exactly 5 fields"
        cols = list(zip(*rows))
        for col, want, name in ((cols[0], self._idx, "pair index"),
                                (cols[1], self._s, "source"),
                                (cols[2], self._t, "target")):
            if list(col) != want * edges:
                return f"{name} column does not echo the pairs file"
        for j, (lo, up) in enumerate(zip(cols[3], cols[4])):
            if lo == INF and up == INF:
                continue
            lower, upper = _tolerance(lo), _tolerance(up)
            if lower is False or upper is False:
                return f"malformed tolerance in record {lines[j]!r}"
            if lower is not None and upper is not None:
                return f"both tolerances finite in record {lines[j]!r}"
            self.finite.append(Record(first_edge + j // k, j % k, lower, upper))
        for edge, pair in self.watch:
            if first_edge <= edge < first_edge + edges:
                j = (edge - first_edge) * k + pair
                self.watched[edge, pair] = Record(edge, pair, _tolerance(cols[3][j]),
                                                  _tolerance(cols[4][j]))
        return None

    def check_answer(self, answer: bytes, edge: int) -> str | None:
        """Check one serve answer: k records then a blank line."""
        if not answer.endswith(b"\n\n"):
            return f"answer does not end with a blank line: {answer[-40:]!r}"
        return self.check_block(answer[:-2].split(b"\n"), edge, 1)


def _tolerance(token: bytes):
    """int for a positive integer, None for inf, False when malformed."""
    if token == INF:
        return None
    if token.isdigit() and token[:1] != b"0":
        return int(token)
    return False


class DefinitionChecker:
    """Checks sampled records against the bottleneck-tolerance definition."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.cap = inst.edge_cap
        self._us, self._vs = inst.edge_u.tolist(), inst.edge_v.tolist()
        self._tree_adj = self._max_spanning_tree()

    def _kruskal(self, cap: np.ndarray, stop: tuple[int, int] | None):
        """Add edges in decreasing `cap`; yield each edge that joins two sets.
        With `stop`, return as soon as its two vertices are connected."""
        parent = list(range(self.inst.n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        us, vs = self._us, self._vs
        for e0 in np.argsort(-cap, kind="stable").tolist():
            a, b = find(us[e0]), find(vs[e0])
            if a == b:
                continue
            parent[a] = b
            yield e0
            if stop is not None and find(stop[0]) == find(stop[1]):
                return

    def _max_spanning_tree(self) -> list[list[tuple[int, int]]]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.inst.n + 1)]
        for e0 in self._kruskal(self.cap, None):
            u, v = self._us[e0], self._vs[e0]
            adj[u].append((v, e0))
            adj[v].append((u, e0))
        return adj

    def tree_path(self, s: int, t: int) -> list[int]:
        """0-based edge indices of the maximum-spanning-tree path s..t."""
        via = {s: -1}
        stack = [s]
        while t not in via:
            v = stack.pop()
            for w, e0 in self._tree_adj[v]:
                if w not in via:
                    via[w] = e0
                    stack.append(w)
        path, v = [], t
        while v != s:
            e0 = via[v]
            path.append(e0)
            v = self._us[e0] if self._us[e0] != v else self._vs[e0]
        return path

    def targets(self, pair: int) -> list[int]:
        """Edge ids whose record for `pair` the sample must hold: the
        bottleneck edge e* of the pair's tree path, whose lower tolerance is
        finite unless e* is a bridge, and its replacement, the largest edge
        that reconnects the tree without e*.  Chosen from this module's own
        tree, so a CLI that reports them as `inf` by mistake is caught."""
        s, t = int(self.inst.pair_s[pair]), int(self.inst.pair_t[pair])
        bottleneck = min(self.tree_path(s, t), key=lambda e0: self.cap[e0])
        side = np.zeros(self.inst.n + 1, dtype=bool)  # s's side without e*
        side[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w, e0 in self._tree_adj[v]:
                if e0 != bottleneck and not side[w]:
                    side[w] = True
                    stack.append(w)
        crossing = side[self.inst.edge_u] != side[self.inst.edge_v]
        crossing[bottleneck] = False
        out = [bottleneck + 1]
        if crossing.any():
            out.append(int(np.argmax(np.where(crossing, self.cap, 0))) + 1)
        return out

    def _optimal(self, path: list[int], s: int, t: int, e0: int, delta: int) -> bool:
        cap = self.cap.copy()
        cap[e0] += delta
        *_, last = self._kruskal(cap, (s, t))
        return int(cap[path].min()) == int(cap[last])

    def check(self, rec: Record) -> str | None:
        """None when the record matches the definition, else what is wrong."""
        s = int(self.inst.pair_s[rec.pair])
        t = int(self.inst.pair_t[rec.pair])
        e0 = rec.edge - 1
        path = self.tree_path(s, t)
        c = int(self.cap[e0])
        # a shift past every other capacity stands in for an unbounded one
        far_down = int(self.cap.min()) - c - 1
        far_up = int(self.cap.max()) - c + 1
        for side, tol, sign, far in (("lower", rec.lower, -1, far_down),
                                     ("upper", rec.upper, +1, far_up)):
            if tol is None:
                if not self._optimal(path, s, t, e0, far):
                    return f"edge {rec.edge} pair {rec.pair + 1}: {side} inf is bounded"
            elif not self._optimal(path, s, t, e0, sign * tol):
                return f"edge {rec.edge} pair {rec.pair + 1}: {side} {tol} breaks the path"
            elif self._optimal(path, s, t, e0, sign * (tol + 1)):
                return f"edge {rec.edge} pair {rec.pair + 1}: {side} {tol} is not tight"
        return None
