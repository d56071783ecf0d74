"""Seeded instance generator for the benchmark.

Everything here is a pure function of the seed and shares no code with
``bptol``: the benchmark writes the text files the CLI reads, and keeps the
same arrays in memory to check the answers.

Two graph families:

* ``uniform``: a random recursive spanning tree over a random vertex
  permutation, plus chords drawn uniformly from all absent vertex pairs.
  Capacities are a random permutation of 1..m.  No vertex id is favoured.
* ``deep``: a random Hamiltonian path (the backbone) carries the n-1 largest
  capacities and random chords carry the rest, so the maximum spanning tree
  is that path and the rooted tree is about as deep as it can be.

Unlike ``bptol.randgraph.random_benchmark_graph``, chords are kept in the
order they were drawn, not in ``np.unique`` key order (see README.md).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Instance:
    """A graph and its query pairs as int64 arrays (ids are 1-based)."""

    n: int
    edge_u: np.ndarray  # edge_u[e-1], edge_v[e-1], edge_cap[e-1] for edge e
    edge_v: np.ndarray
    edge_cap: np.ndarray
    pair_s: np.ndarray
    pair_t: np.ndarray

    @property
    def m(self) -> int:
        return len(self.edge_u)

    @property
    def k(self) -> int:
        return len(self.pair_s)

    def edge_keys(self) -> np.ndarray:
        """Sorted lo*(n+1)+hi key of every edge, for adjacency tests."""
        lo = np.minimum(self.edge_u, self.edge_v)
        hi = np.maximum(self.edge_u, self.edge_v)
        return np.sort(lo * (self.n + 1) + hi)

    def write(self, graph_path: Path, pairs_path: Path) -> None:
        _write_rows(graph_path, f"{self.n} {self.m}",
                    self.edge_u, self.edge_v, self.edge_cap)
        _write_rows(pairs_path, f"{self.k}", self.pair_s, self.pair_t)


def _write_rows(path: Path, header: str, *columns: np.ndarray) -> None:
    fmt = " ".join(["{}"] * len(columns)).format
    rows = map(fmt, *(c.tolist() for c in columns))
    path.write_text("\n".join([header, *rows]) + "\n", encoding="ascii")


def _fresh_chords(gen: np.random.Generator, n: int, taken: np.ndarray,
                  count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` distinct vertex pairs absent from the sorted key array `taken`,
    uniform over all such pairs and in the order they were drawn."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        draw = 2 * (count - len(keys)) + 64
        a = gen.integers(1, n + 1, size=draw)
        b = gen.integers(1, n + 1, size=draw)
        a, b = a[a != b], b[a != b]
        cand = np.concatenate([keys, np.minimum(a, b) * (n + 1) + np.maximum(a, b)])
        _, first = np.unique(cand, return_index=True)
        cand = cand[np.sort(first)]  # drop repeats, keep draw order
        pos = np.searchsorted(taken, cand).clip(max=len(taken) - 1)
        keys = cand[taken[pos] != cand][:count]
    return keys // (n + 1), keys % (n + 1)


def _pairs(gen: np.random.Generator, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    s = gen.integers(1, n + 1, size=k)
    t = (s - 1 + gen.integers(1, n, size=k)) % n + 1  # uniform over t != s
    return s, t


def _shuffled(gen, n, tree_u, tree_v, tree_cap, chord_u, chord_v, chord_cap, k):
    u = np.concatenate([tree_u, chord_u])
    v = np.concatenate([tree_v, chord_v])
    cap = np.concatenate([tree_cap, chord_cap])
    order = gen.permutation(len(u))
    flip = gen.random(len(u)) < 0.5
    u, v = np.where(flip, v, u)[order], np.where(flip, u, v)[order]
    s, t = _pairs(gen, n, k)
    return Instance(n, u.astype(np.int64), v.astype(np.int64),
                    cap[order].astype(np.int64), s, t)


def _keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.sort(np.minimum(u, v) * (n + 1) + np.maximum(u, v))


def uniform_instance(n: int, m: int, k: int, seed: int) -> Instance:
    """Random recursive tree plus uniform chords; capacities a permutation."""
    gen = np.random.default_rng([seed, 1])
    perm = gen.permutation(n) + 1
    parent_pos = (gen.random(n - 1) * np.arange(1, n)).astype(np.int64)
    tree_u, tree_v = perm[1:], perm[parent_pos]
    chord_u, chord_v = _fresh_chords(gen, n, _keys(n, tree_u, tree_v), m - (n - 1))
    caps = gen.permutation(m) + 1
    return _shuffled(gen, n, tree_u, tree_v, caps[: n - 1],
                     chord_u, chord_v, caps[n - 1:], k)


def deep_instance(n: int, m: int, k: int, seed: int) -> Instance:
    """Hamiltonian-path backbone holding the n-1 top capacities, plus chords."""
    gen = np.random.default_rng([seed, 2])
    path = gen.permutation(n) + 1
    tree_u, tree_v = path[:-1], path[1:]
    chord_u, chord_v = _fresh_chords(gen, n, _keys(n, tree_u, tree_v), m - (n - 1))
    chords = m - (n - 1)
    return _shuffled(gen, n, tree_u, tree_v, gen.permutation(n - 1) + chords + 1,
                     chord_u, chord_v, gen.permutation(chords) + 1, k)


INVALID_FORMS = ("edge 0", "edge {m1}", "0 {u}", "{u} {n1}", "edge x", "ping")


@dataclass
class Request:
    line: bytes
    edge: int  # 1-based edge id the request names, 0 when it names none


def request_script(inst: Instance, count: int, endpoint_share: float,
                   invalid_share: float, seed: int) -> list[Request]:
    """`count` serve requests: uniform edges, some in endpoint form, a few
    invalid.  The first request always uses the endpoint form."""
    gen = np.random.default_rng([seed, 3])
    edges = gen.integers(1, inst.m + 1, size=count)
    endpoint = gen.random(count) < endpoint_share
    invalid = gen.random(count) < invalid_share
    endpoint[0], invalid[0] = True, False
    keys = inst.edge_keys()
    out = []
    for i, e in enumerate(edges.tolist()):
        u, v = int(inst.edge_u[e - 1]), int(inst.edge_v[e - 1])
        if invalid[i]:
            out.append(Request(_invalid_line(gen, inst, keys), 0))
        elif endpoint[i]:
            a, b = (u, v) if gen.random() < 0.5 else (v, u)
            out.append(Request(f"{a} {b}\n".encode(), e))
        else:
            out.append(Request(f"edge {e}\n".encode(), e))
    return out


def _invalid_line(gen: np.random.Generator, inst: Instance, keys: np.ndarray) -> bytes:
    """A request naming no edge: a non-adjacent vertex pair, or a malformed
    or out-of-range line."""
    n = inst.n
    if gen.random() < 0.5:
        while True:
            a, b = (int(x) for x in gen.integers(1, n + 1, size=2))
            key = min(a, b) * (n + 1) + max(a, b)
            pos = min(int(np.searchsorted(keys, key)), len(keys) - 1)
            if a != b and keys[pos] != key:
                return f"{a} {b}\n".encode()
    form = INVALID_FORMS[int(gen.integers(len(INVALID_FORMS)))]
    u = int(gen.integers(1, n + 1))
    return (form.format(m1=inst.m + 1, n1=n + 1, u=u) + "\n").encode()
