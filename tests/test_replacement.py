"""Replacement tables: best swap partners for tree and non-tree edges."""

import random
from itertools import combinations

from bptol.graphs import (
    CapacitatedGraph,
    capacity_ranks,
    diamond_example,
    single_edge_example,
    triangle_example,
)
from bptol.mst import build_max_spanning_tree
from bptol.randgraph import random_benchmark_graph, random_connected_graph
from bptol.replacement import (
    build_replacement_tables,
    compute_lower_replacements,
    compute_upper_replacements,
)
from bptol.tree_index import build_index

from naive import (
    naive_lca,
    naive_lower_replacements,
    naive_upper_replacements,
    spanning_tree_edge_sets,
    tree_capacity_sum,
    tree_parents,
)


def _tables(g):
    rank = capacity_ranks(g)
    tree = build_max_spanning_tree(g, rank=rank)
    idx = build_index(tree, g, rank=rank)
    return tree, build_replacement_tables(g, tree, idx)


def test_triangle_tables():
    g = triangle_example()
    _, tables = _tables(g)
    # Edge 3 (capacity 1) is the only non-tree edge; its fundamental cycle
    # 1-2-3 has minimum tree edge 2.
    assert tables.U == (None, None, None, 2)
    assert tables.L == (None, 3, 3, None)


def test_diamond_tables():
    g = diamond_example()
    _, tables = _tables(g)
    assert tables.U == (None, None, None, None, 2, 3)
    assert tables.L == (None, 4, 4, 5, None, None)


def test_single_edge_tables():
    g = single_edge_example()
    _, tables = _tables(g)
    assert tables.U == (None, None)
    assert tables.L == (None, None)


def test_tree_input_has_no_upper_entries():
    # A graph that is already a tree: U is all None and so is L.
    g = CapacitatedGraph(4, [(1, 2, 5), (2, 3, 7), (2, 4, 2)])
    _, tables = _tables(g)
    assert tables.U == (None,) * 4
    assert tables.L == (None,) * 4


def test_bridge_edges_have_no_lower_entry():
    # Two triangles joined by a bridge: the bridge is covered by no cycle.
    g = CapacitatedGraph(
        6,
        [
            (1, 2, 10),
            (2, 3, 9),
            (1, 3, 1),
            (3, 4, 20),  # bridge
            (4, 5, 8),
            (5, 6, 7),
            (4, 6, 2),
        ],
    )
    tree, tables = _tables(g)
    assert 4 in tree
    assert tables.L[4] is None
    # Non-bridge tree edges all have a covering non-tree edge.
    for e in tree.edge_ids:
        if e != 4:
            assert tables.L[e] is not None


def test_matches_naive_definitions_on_random_graphs():
    rng = random.Random(5150)
    for _ in range(150):
        g = random_connected_graph(rng, 10)
        rank = capacity_ranks(g)
        tree = build_max_spanning_tree(g, rank=rank)
        idx = build_index(tree, g, rank=rank)
        U = compute_upper_replacements(g, tree, idx)
        L = compute_lower_replacements(g, tree, idx)
        assert U == naive_upper_replacements(g, tree)
        assert L == naive_lower_replacements(g, tree)


def test_tables_agree_with_spanning_tree_exchange():
    # U[e] for non-tree e: swapping e in for U[e] yields the heaviest
    # spanning tree containing e.  L[e] for tree e: swapping L[e] in for e
    # yields the heaviest spanning tree avoiding e.
    rng = random.Random(6021)
    for _ in range(40):
        g = random_connected_graph(rng, 6)
        rank = capacity_ranks(g)
        tree = build_max_spanning_tree(g, rank=rank)
        idx = build_index(tree, g, rank=rank)
        tables = build_replacement_tables(g, tree, idx)
        all_trees = spanning_tree_edge_sets(g)
        for e in range(1, g.m + 1):
            if e in tree:
                rep = tables.L[e]
                competitors = [t for t in all_trees if e not in t]
                if rep is None:
                    assert not competitors
                    continue
                swapped = (tree.edge_ids - {e}) | {rep}
                assert swapped in competitors
                best = max(tree_capacity_sum(g, t) for t in competitors)
                assert tree_capacity_sum(g, swapped) == best
            else:
                rep = tables.U[e]
                assert rep is not None
                swapped = (tree.edge_ids - {rep}) | {e}
                competitors = [t for t in all_trees if e in t]
                assert swapped in competitors
                best = max(tree_capacity_sum(g, t) for t in competitors)
                assert tree_capacity_sum(g, swapped) == best


def test_each_tree_edge_assigned_at_most_once():
    # The contraction walk must touch every tree edge exactly once; the
    # visible consequence is that L never points a tree edge at a
    # lighter cover than the true maximum, checked above, and that
    # repeated builds are deterministic.
    rng = random.Random(33)
    g = random_connected_graph(rng, 30)
    first = _tables(g)[1]
    second = _tables(g)[1]
    assert first == second
    assert first.U == second.U and first.L == second.L


def test_lower_entries_point_at_covering_edges():
    rng = random.Random(8080)
    for _ in range(50):
        g = random_connected_graph(rng, 12)
        tree, tables = _tables(g)
        idx = build_index(tree, g, rank=capacity_ranks(g))
        for e in tree.edge_ids:
            rep = tables.L[e]
            if rep is None:
                continue
            assert rep not in tree
            u, v = g.endpoints(rep)
            assert idx.edge_on_path(e, u, v)


def test_tables_span_several_batches():
    # ~18k non-tree edges cross the batch boundaries of the U table, and on
    # this sparse graph thousands of L entries come from the later edges of
    # the scan.  Both tables must equal a plain walk of each fundamental
    # path up to its naive LCA: U its minimum-rank edge, L the first cover
    # in decreasing capacity order.
    g = random_benchmark_graph(17_000, 35_000, seed=5)
    rank = capacity_ranks(g)
    tree = build_max_spanning_tree(g, rank=rank)
    idx = build_index(tree, g, rank=rank)
    parent, parent_edge, depth = tree_parents(g, tree.edge_ids, 1)
    upper = [None] * (g.m + 1)
    lower = [None] * (g.m + 1)
    non_tree = [e for e in g.edge_ids() if e not in tree]
    for f in sorted(non_tree, key=lambda e: rank[e], reverse=True):
        x, y = g.endpoints(f)
        z = naive_lca(parent, depth, x, y)
        path = []
        for v in (x, y):
            while v != z:
                path.append(parent_edge[v])
                v = parent[v]
        upper[f] = min(path, key=lambda e: rank[e])
        for te in path:
            if lower[te] is None:
                lower[te] = f
    assert list(compute_upper_replacements(g, tree, idx)) == upper
    assert list(compute_lower_replacements(g, tree, idx)) == lower
