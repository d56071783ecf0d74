"""Acceptance gate: one test per shipping requirement, run with `pytest -v
tests/test_acceptance.py` for a pass/fail line per criterion.

Budgets are wall-clock seconds on commodity hardware; each test asserts its
own budget so a regression in speed fails loudly, not silently.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

from bptol.graphs import capacity_ranks, diamond_example
from bptol.mst import build_max_spanning_tree
from bptol.oracle import INFINITY, preprocess
from bptol.randgraph import random_connected_graph, sample_pairs
from bptol.reference import PairAnalysis, enumerate_simple_paths
from bptol.replacement import build_replacement_tables
from bptol.tree_index import build_index

from naive import (
    naive_lower_replacements,
    naive_upper_replacements,
    spanning_tree_edge_sets,
    tree_capacity_sum,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bptol.cli", *args],
        capture_output=True,
        timeout=300,
    )


def test_criterion_1_oracle_equivalence_500_instances():
    """verify 8 500 42: fast oracle == reference on every edge and pair."""
    start = time.perf_counter()
    r = run_cli("verify", "8", "500", "42")
    elapsed = time.perf_counter() - start
    out = r.stdout.decode()
    assert r.returncode == 0, out + r.stderr.decode()
    assert "result PASS" in out
    assert elapsed <= 60, f"verify took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_unbounded_increase_on_shadowed_edge():
    """All three routes agree on the diamond's edge 4 for pair (1,4).

    Every detour through edge 4 is already capped at the current optimum by
    its other edges, so no finite capacity increase dethrones the fixed
    path: the supremum definition, a perturbation sweep, and the oracle's
    case analysis all answer (inf, inf).
    """
    g = diamond_example()
    # Route 1: closed-form via the per-pair aggregates.
    analysis = PairAnalysis(g, 1, 4)
    assert analysis.tolerances(4) == (INFINITY, INFINITY)
    # Route 2: sup-definition sweep -- increases never break optimality.
    for delta in (1, 2, 4, 10, 1_000, 10**9):
        assert analysis.still_optimal(4, delta) is True
        assert analysis.still_optimal(4, -delta) is True
    # Route 3: the oracle's query.
    o = preprocess(g, [(1, 4)])
    assert o.query_edge(4) == [(INFINITY, INFINITY)]


def test_criterion_3_tree_path_minimum_is_bottleneck():
    """500 random graphs (n <= 8): MST-path min == enumerated optimum."""
    start = time.perf_counter()
    rng = random.Random(1003)
    for _ in range(500):
        g = random_connected_graph(rng, 8)
        tree = build_max_spanning_tree(g)
        idx = build_index(tree, g, rank=capacity_ranks(g))
        for s in range(1, g.n + 1):
            for t in range(s + 1, g.n + 1):
                e = idx.path_min_edge(s, t)
                paths = enumerate_simple_paths(g, s, t)
                assert g.edge_cap[e] == max(b for _, b in paths)
    elapsed = time.perf_counter() - start
    assert elapsed <= 30, f"sweep took {elapsed:.1f}s (budget 30s)"


def test_criterion_4_replacement_tables():
    """U/L match naive definitions (500 randoms, n <= 8); swaps yield the
    best spanning tree containing/avoiding the queried edge (n <= 6)."""
    start = time.perf_counter()
    rng = random.Random(1004)
    for _ in range(500):
        g = random_connected_graph(rng, 8)
        tree = build_max_spanning_tree(g)
        idx = build_index(tree, g, rank=capacity_ranks(g))
        tables = build_replacement_tables(g, tree, idx)
        assert tables.U.tolist() == naive_upper_replacements(g, tree)
        assert tables.L.tolist() == naive_lower_replacements(g, tree)
    for _ in range(60):
        g = random_connected_graph(rng, 6)
        tree = build_max_spanning_tree(g)
        idx = build_index(tree, g, rank=capacity_ranks(g))
        tables = build_replacement_tables(g, tree, idx)
        all_trees = spanning_tree_edge_sets(g)
        for e in range(1, g.m + 1):
            if e in tree:
                if tables.L[e] == 0:
                    assert all(e in t for t in all_trees)
                    continue
                swapped = (tree.edge_ids - {e}) | {int(tables.L[e])}
                best = max(tree_capacity_sum(g, t)
                           for t in all_trees if e not in t)
                assert tree_capacity_sum(g, swapped) == best
            else:
                swapped = (tree.edge_ids - {int(tables.U[e])}) | {e}
                best = max(tree_capacity_sum(g, t)
                           for t in all_trees if e in t)
                assert tree_capacity_sum(g, swapped) == best
    elapsed = time.perf_counter() - start
    assert elapsed <= 60, f"sweep took {elapsed:.1f}s (budget 60s)"


def test_criterion_5_perturbation_semantics():
    """100 instances: shifting capacity by a finite tolerance keeps the
    fixed path optimal; one more unit breaks it."""
    start = time.perf_counter()
    rng = random.Random(1005)
    for _ in range(100):
        g = random_connected_graph(rng, 8)
        pairs = sample_pairs(rng, g.n, min(4, g.n * (g.n - 1) // 2))
        o = preprocess(g, pairs)
        answers = {e: o.query_edge(e) for e in range(1, g.m + 1)}
        for i, (s, t) in enumerate(pairs.tolist()):
            analysis = PairAnalysis(g, s, t)
            for e in range(1, g.m + 1):
                lo, up = answers[e][i]
                if lo is not INFINITY:
                    assert analysis.still_optimal(e, -lo) is True
                    assert analysis.still_optimal(e, -(lo + 1)) is False
                if up is not INFINITY:
                    assert analysis.still_optimal(e, up) is True
                    assert analysis.still_optimal(e, up + 1) is False
    elapsed = time.perf_counter() - start
    assert elapsed <= 60, f"sweep took {elapsed:.1f}s (budget 60s)"


def test_criterion_6_query_time_independent_of_graph_size():
    """bench at m in {250k, 500k, 1M} (n=100k, k=1000, 1e5 queries):
    mean per-query time varies < 2x; preprocessing at m=500k <= 10 s."""
    means = {}
    preprocess_at_500k = None
    for m in (250_000, 500_000, 1_000_000):
        r = run_cli("bench", "100000", str(m), "1000", "100000", "7")
        out = r.stdout.decode()
        assert r.returncode == 0, out + r.stderr.decode()
        values = dict(line.split() for line in out.splitlines())
        means[m] = float(values["query_mean_seconds"])
        if m == 500_000:
            preprocess_at_500k = float(values["preprocess_seconds"])
    ratio = max(means.values()) / min(means.values())
    assert ratio < 2.0, f"query means {means} vary by {ratio:.2f}x"
    assert preprocess_at_500k <= 10, (
        f"preprocess took {preprocess_at_500k:.1f}s at m=500k (budget 10s)"
    )


def test_criterion_7_full_dump_is_deterministic():
    """cmd_all output is byte-identical across runs and matches the
    committed golden files."""
    for graph, pairs, golden in (
        ("g1.txt", "g1_pairs.txt", "g1_all.txt"),
        ("g2.txt", "g2_pairs.txt", "g2_all.txt"),
    ):
        args = ("all", str(DATA / graph), str(DATA / pairs))
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout == (GOLDEN / golden).read_bytes()


def test_criterion_8_finite_tolerances_positive_and_exclusive():
    """Across a verification sweep, every finite tolerance is > 0 and no
    (edge, pair) ever has both sides finite."""
    rng = random.Random(1008)
    checked = 0
    for _ in range(150):
        g = random_connected_graph(rng, 8)
        pairs = sample_pairs(rng, g.n, min(5, g.n * (g.n - 1) // 2))
        o = preprocess(g, pairs)
        for e in range(1, g.m + 1):
            for lo, up in o.query_edge(e):
                assert lo is INFINITY or (isinstance(lo, int) and lo > 0)
                assert up is INFINITY or (isinstance(up, int) and up > 0)
                assert math.isinf(lo) or math.isinf(up)
                checked += 1
    assert checked > 5000
