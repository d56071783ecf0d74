import random

import pytest

from bptol import (CapacitatedGraph, brute_max_spanning_tree,
                   build_max_spanning_tree, diamond_example,
                   random_connected_graph, single_edge_example,
                   triangle_example)

from naive import naive_path_min_edge, spanning_tree_edge_sets, tree_capacity_sum


def test_fixture_trees():
    assert build_max_spanning_tree(triangle_example()).edge_ids == {1, 2}
    assert build_max_spanning_tree(diamond_example()).edge_ids == {1, 2, 3}
    assert build_max_spanning_tree(single_edge_example()).edge_ids == {1}


def test_membership_flags_and_contains():
    t = build_max_spanning_tree(diamond_example())
    assert t.is_tree_edge.tolist() == [False, True, True, True, False, False]
    assert 2 in t and 5 not in t


def test_disconnected_rejected():
    g = CapacitatedGraph(4, [(1, 2, 5), (3, 4, 2)])
    with pytest.raises(ValueError):
        build_max_spanning_tree(g)


def test_matches_reverse_delete_on_randoms():
    rng = random.Random(7)
    for _ in range(150):
        g = random_connected_graph(rng, 8)
        assert build_max_spanning_tree(g).edge_ids == brute_max_spanning_tree(g)


def test_maximum_among_all_spanning_trees():
    rng = random.Random(21)
    for _ in range(40):
        g = random_connected_graph(rng, 6)
        tree = build_max_spanning_tree(g)
        best = max(tree_capacity_sum(g, s) for s in spanning_tree_edge_sets(g))
        assert tree_capacity_sum(g, tree.edge_ids) == best


def test_independent_of_edge_input_order():
    rng = random.Random(3)
    for _ in range(30):
        g = random_connected_graph(rng, 7)
        rows = [(g.edge_u[e], g.edge_v[e], g.edge_cap[e]) for e in g.edge_ids()]
        tree_rows = {rows[e - 1] for e in build_max_spanning_tree(g).edge_ids}
        shuffled = rows[:]
        rng.shuffle(shuffled)
        g2 = CapacitatedGraph(g.n, shuffled)
        tree_rows2 = {shuffled[e - 1] for e in build_max_spanning_tree(g2).edge_ids}
        assert tree_rows == tree_rows2  # unique tree, as capacities are distinct


@pytest.mark.parametrize("coarsen", [1, 8])
def test_chain_junctions_are_path_minima(coarsen):
    # Each junction is the minimum-capacity edge on the tree path between
    # the two chain neighbours it separates; coarsened capacities tie, and
    # ties go to the smaller edge id, as g.capacity_order orders them.
    rng = random.Random(91 + coarsen)
    ties = 0
    for _ in range(60):
        g = random_connected_graph(rng, 40)
        g = CapacitatedGraph(g.n, [(g.edge_u[e], g.edge_v[e], g.edge_cap[e] // coarsen)
                                   for e in g.edge_ids()])
        ties += g.m - len(set(g.edge_cap[1:]))
        tree = build_max_spanning_tree(g)
        chain, junction = tree.chain.tolist(), tree.junction.tolist()
        assert sorted(chain) == list(range(1, g.n + 1))
        assert sorted(junction) == sorted(tree.edge_ids)
        for a, b, e in zip(chain, chain[1:], junction):
            assert e == naive_path_min_edge(g, tree.edge_ids, a, b)
    assert (ties > 0) == (coarsen > 1)
