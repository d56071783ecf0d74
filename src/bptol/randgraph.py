"""Deterministic random instance generators.

Two families: small exact instances for verification (plain `random.Random`,
n capped, capacities possibly negative), and large sparse instances for
benchmarking (numpy generator, capacities a permutation of 1..m).  Both are
pure functions of their seeds; verification runs must be reproducible from
the command line.
"""
from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np

from .graphs import CapacitatedGraph, first_unreached


def random_connected_graph(rng: random.Random, max_n: int) -> CapacitatedGraph:
    """Connected simple graph with distinct integer capacities, n in 2..max_n.

    A random spanning tree is laid down first, then extra edges are sampled
    uniformly from the remaining vertex pairs; edge ids end up in shuffled
    order so tree edges are not clustered at the front.
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    n = rng.randint(2, max_n)
    max_m = n * (n - 1) // 2
    m = rng.randint(n - 1, max_m)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    chosen: list[tuple[int, int]] = []
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = perm[i], perm[j]
        chosen.append((u, v) if u < v else (v, u))
    tree_keys = set(chosen)
    remaining = [p for p in combinations(range(1, n + 1), 2) if p not in tree_keys]
    chosen.extend(rng.sample(remaining, m - (n - 1)))
    caps = rng.sample(range(-3 * m, 3 * m + 1), m)
    edges = [(u, v, c) for (u, v), c in zip(chosen, caps)]
    rng.shuffle(edges)
    return CapacitatedGraph(n, edges)


def sample_pairs(rng: random.Random, n: int, count: int) -> np.ndarray:
    """Up to `count` distinct source-target pairs, uniform without replacement
    at every n, each in random orientation, as a read-only (k, 2) int64 array
    of (s, t) rows.  Positions in the lexicographic list of the pairs s < t
    are drawn without building it, and decoded in the combinatorial number
    system (Knuth, TAOCP 4A, 7.2.1.3)."""
    total = n * (n - 1) // 2
    pairs = []
    for i in rng.sample(range(total), min(count, total)):
        j = total - 1 - i  # counted back from the last pair (n-1, n)
        r = (math.isqrt(8 * j + 1) - 1) // 2  # the largest r with r(r+1)/2 <= j
        s, t = n - 1 - r, n - (j - r * (r + 1) // 2)
        pairs.append((t, s) if rng.random() < 0.5 else (s, t))
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    pairs.flags.writeable = False
    return pairs


def all_connected_graphs(n: int, rng: random.Random):
    """Yield every connected labeled graph on n vertices, with random
    distinct capacities.  Exponential in n; intended for n <= 5."""
    possible = np.array(list(combinations(range(1, n + 1), 2)),
                        dtype=np.int64).reshape(-1, 2)
    for bits in range(1 << len(possible)):
        subset = possible[[i for i in range(len(possible)) if bits >> i & 1]]
        if len(subset) < n - 1 or first_unreached(n, subset[:, 0], subset[:, 1]) is not None:
            continue
        caps = rng.sample(range(-3 * len(subset), 3 * len(subset) + 1), len(subset))
        yield CapacitatedGraph(n, np.column_stack((subset, caps)))


def random_benchmark_graph(n: int, m: int, seed: int) -> CapacitatedGraph:
    """Large connected graph for timing runs: random attachment tree plus
    extra edges drawn uniformly from the absent vertex pairs, kept in the
    order they were drawn so that no vertex id is favoured; capacities are a
    permutation of 1..m."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"m={m} infeasible for n={n}")
    gen = np.random.default_rng(seed)
    kids = np.arange(2, n + 1, dtype=np.int64)
    parents = gen.integers(1, kids)  # uniform in 1..i-1 for vertex i
    lo = np.minimum(kids, parents)
    hi = np.maximum(kids, parents)
    tree_keys = lo * (n + 1) + hi
    need = m - (n - 1)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < need:
        draw = 2 * (need - len(keys)) + 16
        a = gen.integers(1, n + 1, size=draw)
        b = gen.integers(1, n + 1, size=draw)
        keep = a != b
        a, b = a[keep], b[keep]
        cand = np.concatenate([keys, np.minimum(a, b) * (n + 1) + np.maximum(a, b)])
        _, first = np.unique(cand, return_index=True)
        cand = cand[np.sort(first)]  # drop repeats, keep draw order
        keys = cand[~np.isin(cand, tree_keys)][:need]
    u_all = np.concatenate([lo, keys // (n + 1)])
    v_all = np.concatenate([hi, keys % (n + 1)])
    order = gen.permutation(m)
    u_all, v_all = u_all[order], v_all[order]
    caps = gen.permutation(m) + 1
    return CapacitatedGraph(n, np.column_stack((u_all, v_all, caps)))


def random_query_edges(m: int, count: int, seed: int) -> np.ndarray:
    """Deterministic stream of `count` edge ids in 1..m for query timing."""
    gen = np.random.default_rng(seed)
    return gen.integers(1, m + 1, size=count)
