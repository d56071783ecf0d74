"""Replacement tables: best swap partners for tree and non-tree edges."""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

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
    naive_unreached,
    naive_upper_replacements,
    spanning_tree_edge_sets,
    tree_capacity_sum,
    tree_parents,
    tree_path_edges,
)


def _tables(g):
    tree = build_max_spanning_tree(g)
    idx = build_index(tree, g, rank=capacity_ranks(g))
    return tree, build_replacement_tables(g, tree, idx)


def test_triangle_tables():
    g = triangle_example()
    _, tables = _tables(g)
    # Edge 3 (capacity 1) is the only non-tree edge; its fundamental cycle
    # 1-2-3 has minimum tree edge 2.
    assert tables.U.tolist() == [0, 0, 0, 2]
    assert tables.L.tolist() == [0, 3, 3, 0]


def test_diamond_tables():
    g = diamond_example()
    _, tables = _tables(g)
    assert tables.U.tolist() == [0, 0, 0, 0, 2, 3]
    assert tables.L.tolist() == [0, 4, 4, 5, 0, 0]


def test_single_edge_tables():
    g = single_edge_example()
    _, tables = _tables(g)
    assert tables.U.tolist() == [0, 0]
    assert tables.L.tolist() == [0, 0]


def test_tree_input_has_no_upper_entries():
    # A graph that is already a tree: U is all 0 ("none") and so is L.
    g = CapacitatedGraph(4, [(1, 2, 5), (2, 3, 7), (2, 4, 2)])
    _, tables = _tables(g)
    assert tables.U.tolist() == [0] * 4
    assert tables.L.tolist() == [0] * 4


def _bridged_triangles():
    # Two triangles joined by a bridge: the bridge is covered by no cycle.
    return CapacitatedGraph(
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


def test_bridge_edges_have_no_lower_entry():
    g = _bridged_triangles()
    tree, tables = _tables(g)
    assert 4 in tree
    assert tables.L[4] == 0
    # Non-bridge tree edges all have a covering non-tree edge.
    for e in tree.edge_ids:
        if e != 4:
            assert tables.L[e] != 0


def test_tables_are_read_only_int64_columns_with_0_for_none():
    # U is 0 exactly on tree edges; L exactly on non-tree edges and on tree
    # edges whose removal disconnects the graph.  Slot 0 is 0 in both.
    rng = random.Random(2024)
    graphs = [random_connected_graph(rng, 10) for _ in range(60)]
    bridges = 0
    for g in graphs + [_bridged_triangles()]:
        tree, tables = _tables(g)
        for column in (tables.U, tables.L):
            assert column.dtype == np.int64 and column.shape == (g.m + 1,)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[1] = 1
        is_bridge = [False] * (g.m + 1)
        for e in tree.edge_ids:
            rest = [(*g.endpoints(f), g.capacity(f)) for f in g.edge_ids() if f != e]
            is_bridge[e] = naive_unreached(CapacitatedGraph(g.n, rest)) is not None
        bridges += sum(is_bridge)
        assert (tables.U == 0).tolist() == [e == 0 or e in tree for e in range(g.m + 1)]
        assert (tables.L == 0).tolist() == [e == 0 or e not in tree or is_bridge[e]
                                            for e in range(g.m + 1)]
    assert bridges > 0


def test_matches_naive_definitions_on_random_graphs():
    rng = random.Random(5150)
    for _ in range(150):
        g = random_connected_graph(rng, 10)
        tree = build_max_spanning_tree(g)
        idx = build_index(tree, g, rank=capacity_ranks(g))
        U = compute_upper_replacements(g, tree, idx)
        L = compute_lower_replacements(g, tree, idx)
        assert U.tolist() == naive_upper_replacements(g, tree)
        assert L.tolist() == naive_lower_replacements(g, tree)


def test_tables_agree_with_spanning_tree_exchange():
    # U[e] for non-tree e: swapping e in for U[e] yields the heaviest
    # spanning tree containing e.  L[e] for tree e: swapping L[e] in for e
    # yields the heaviest spanning tree avoiding e.
    rng = random.Random(6021)
    for _ in range(40):
        g = random_connected_graph(rng, 6)
        tree, tables = _tables(g)
        all_trees = spanning_tree_edge_sets(g)
        for e in range(1, g.m + 1):
            if e in tree:
                rep = int(tables.L[e])
                competitors = [t for t in all_trees if e not in t]
                if rep == 0:
                    assert not competitors
                    continue
                swapped = (tree.edge_ids - {e}) | {rep}
                assert swapped in competitors
                best = max(tree_capacity_sum(g, t) for t in competitors)
                assert tree_capacity_sum(g, swapped) == best
            else:
                rep = int(tables.U[e])
                assert rep != 0
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
    assert np.array_equal(first.U, second.U) and np.array_equal(first.L, second.L)


def test_lower_entries_point_at_covering_edges():
    rng = random.Random(8080)
    for _ in range(50):
        g = random_connected_graph(rng, 12)
        tree, tables = _tables(g)
        for e in tree.edge_ids:
            rep = int(tables.L[e])
            if rep == 0:
                continue
            assert rep not in tree
            u, v = g.endpoints(rep)
            assert e in tree_path_edges(g, tree.edge_ids, u, v)


def test_tables_span_several_batches():
    # ~18k non-tree edges cross the batch boundaries of the U table, and on
    # this sparse graph thousands of L entries come from the later edges of
    # the scan.  Both tables must equal a plain walk of each fundamental
    # path up to its naive LCA: U its minimum-rank edge, L the first cover
    # in decreasing capacity order.
    g = random_benchmark_graph(17_000, 35_000, seed=5)
    rank = capacity_ranks(g)
    tree = build_max_spanning_tree(g)
    idx = build_index(tree, g, rank=rank)
    parent, parent_edge, depth = tree_parents(g, tree.edge_ids, 1)
    upper = [0] * (g.m + 1)
    lower = [0] * (g.m + 1)
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
            if lower[te] == 0:
                lower[te] = f
    assert compute_upper_replacements(g, tree, idx).tolist() == upper
    assert compute_lower_replacements(g, tree, idx).tolist() == lower


def _traced_peak(fn, *args) -> int:
    """Peak bytes that fn(*args) allocates, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_union_find_scans_hold_no_edge_length_lists():
    # One list of m Python ints alone takes ~6.9 MB here; what the scans
    # keep is n-sized, plus the bool and int64 columns they return.
    g = random_benchmark_graph(10_000, 200_000, seed=5)
    tree = build_max_spanning_tree(g)
    idx = build_index(tree, g, rank=capacity_ranks(g))
    assert _traced_peak(build_max_spanning_tree, g) < 8_000_000
    assert _traced_peak(compute_lower_replacements, g, tree, idx) < 8_000_000
