"""Reference oracle: path enumeration, brute-force tolerances, perturbations."""

import math
import random

import pytest

from bptol.graphs import (
    CapacitatedGraph,
    diamond_example,
    single_edge_example,
    triangle_example,
)
from bptol.mst import build_max_spanning_tree
from bptol.oracle import preprocess
from bptol.randgraph import random_connected_graph, sample_pairs
from bptol.reference import (
    MAX_ENUMERATION_N,
    PairAnalysis,
    brute_max_spanning_tree,
    enumerate_simple_paths,
)

INF = math.inf


def test_enumeration_counts():
    assert len(enumerate_simple_paths(triangle_example(), 1, 3)) == 2
    assert len(enumerate_simple_paths(single_edge_example(), 1, 2)) == 1
    assert len(enumerate_simple_paths(diamond_example(), 1, 4)) == 4


def test_enumeration_rejects_large_graphs():
    n = MAX_ENUMERATION_N + 1
    g = CapacitatedGraph(n, [(i, i + 1, i) for i in range(1, n)])
    with pytest.raises(ValueError):
        enumerate_simple_paths(g, 1, n)
    with pytest.raises(ValueError):
        PairAnalysis(g, 1, n)


def test_enumeration_rejects_bad_endpoints():
    g = triangle_example()
    with pytest.raises(ValueError):
        enumerate_simple_paths(g, 1, 1)
    with pytest.raises(ValueError):
        enumerate_simple_paths(g, 0, 2)


def test_brute_bottleneck_fixtures():
    analysis = PairAnalysis(triangle_example(), 1, 3)
    assert analysis.bottleneck == 3
    assert analysis.witness == (1, 2, 3)

    analysis = PairAnalysis(diamond_example(), 1, 4)
    assert analysis.bottleneck == 6
    assert analysis.witness == (1, 2, 3, 4)

    analysis = PairAnalysis(single_edge_example(), 1, 2)
    assert analysis.bottleneck == 7
    assert analysis.witness == (1, 2)


def test_brute_tolerances_fixtures():
    analysis = PairAnalysis(triangle_example(), 1, 3)
    assert analysis.tolerances(2) == (2, INF)
    assert analysis.tolerances(3) == (INF, 2)
    assert analysis.tolerances(1) == (4, INF)

    analysis = PairAnalysis(diamond_example(), 1, 4)
    assert analysis.tolerances(3) == (4, INF)
    assert analysis.tolerances(5) == (INF, 4)


def test_brute_tolerances_rejects_bad_edge():
    analysis = PairAnalysis(triangle_example(), 1, 3)
    with pytest.raises(ValueError):
        analysis.tolerances(0)
    with pytest.raises(ValueError):
        analysis.tolerances(4)


def test_check_perturbation_fixture():
    analysis = PairAnalysis(triangle_example(), 1, 3)
    # Lower tolerance of the bottleneck edge for (1,3) is 2.
    assert analysis.still_optimal(2, 0) is True
    assert analysis.still_optimal(2, -2) is True
    assert analysis.still_optimal(2, -3) is False
    # Upper tolerance of the off-path edge 3 is 2.
    assert analysis.still_optimal(3, 2) is True
    assert analysis.still_optimal(3, 3) is False


def test_reverse_delete_matches_kruskal():
    rng = random.Random(424)
    for _ in range(100):
        g = random_connected_graph(rng, 10)
        assert brute_max_spanning_tree(g) == set(
            build_max_spanning_tree(g).edge_ids
        )


def test_single_path_graph_has_unbounded_drops():
    # On a path graph every edge is essential: no detour exists, so
    # capacity decreases never dethrone the only path.
    analysis = PairAnalysis(CapacitatedGraph(4, [(1, 2, 9), (2, 3, 4), (3, 4, 6)]), 1, 4)
    for e in (1, 2, 3):
        assert analysis.tolerances(e) == (INF, INF)


def test_off_path_edge_capped_by_its_detours():
    # Edge 4 of the diamond is off the optimal 1-4 path, and the best any
    # route through it can reach -- ignoring its own capacity -- already
    # equals the optimum.  Raising it therefore never strictly improves on
    # the fixed path: both tolerances are unbounded, even though a finite
    # "difference to the bottleneck" might seem like the obvious answer.
    g = diamond_example()
    analysis = PairAnalysis(g, 1, 4)
    assert analysis.tolerances(4) == (INF, INF)
    # Agreement with the fast oracle.
    o = preprocess(g, [(1, 4)])
    assert o.query_edge(4) == [(INF, INF)]


def test_tied_minimum_keeps_its_twin_in_the_second_minimum():
    # The witness path 4-1 is edge 1 alone, but a path's second minimum must
    # drop only the argmin's position: with edges tying the minimum, dropping
    # every one of them overstated what raising an off-path edge could win.
    # Raising edge 5 (4-5, capacity -2) never beats the witness's value 2.
    g = CapacitatedGraph(5, [(1, 4, 2), (1, 5, -2), (2, 4, -2), (1, 3, -1),
                             (4, 5, -2), (3, 4, 2), (3, 5, 2), (2, 3, 0)])
    analysis = PairAnalysis(g, 4, 1)
    assert analysis.tolerances(5) == (INF, INF)
    for delta in (4, 5, 100):
        assert analysis.still_optimal(5, delta)
    assert preprocess(g, [(4, 1)]).query_edge(5) == [(INF, INF)]
    # The witness's own second minimum: on a path whose two least capacities
    # tie, raising the argmin edge 1 leaves the value 2 to its twin, edge 2.
    path = PairAnalysis(CapacitatedGraph(4, [(1, 2, 2), (2, 3, 2), (3, 4, 5)]), 1, 4)
    assert all(path.still_optimal(e, delta) for e in (1, 2, 3) for delta in (-1, 3, 100))


FORK = CapacitatedGraph(
    5, [(1, 2, 7), (2, 3, 5), (3, 4, 6), (3, 5, 9), (5, 4, 8)]
)


def test_classification_depends_on_witness_path():
    # Pair (1,4) has two optimal paths: 1-2-3-4 and 1-2-3-5-4, both with
    # bottleneck 5.  Edge 3 (the 3-4 link) lies on the first but not the
    # second, and its lower tolerance is finite only when the first is the
    # fixed path.  Finite *values* never disagree between witnesses; which
    # side is finite can.
    analysis = PairAnalysis(FORK, 1, 4)
    assert analysis.bottleneck == 5
    assert analysis.witness == (1, 2, 3, 5, 4)  # the spanning-tree route
    assert analysis.tolerances(3) == (INF, INF)
    assert PairAnalysis(FORK, 1, 4, witness=(1, 2, 3, 4)).tolerances(3) == (1, INF)
    # The fast oracle answers for the same pinned witness as the default.
    o = preprocess(FORK, [(1, 4)])
    assert o.query_edge(3) == [(INF, INF)]


def _optimal_witnesses(g, s, t):
    paths = enumerate_simple_paths(g, s, t)
    best = max(b for _, b in paths)
    return [p for p, b in paths if b == best]


def test_finite_values_agree_across_witnesses():
    rng = random.Random(606)
    checked = 0
    for _ in range(60):
        g = random_connected_graph(rng, 7)
        for s, t in sample_pairs(rng, g.n, 2).tolist():
            analyses = [PairAnalysis(g, s, t, witness=w)
                        for w in _optimal_witnesses(g, s, t)]
            for e in range(1, g.m + 1):
                lows = set()
                ups = set()
                for analysis in analyses:
                    lo, up = analysis.tolerances(e)
                    if lo != INF:
                        lows.add(lo)
                    if up != INF:
                        ups.add(up)
                assert len(lows) <= 1, (g, s, t, e, lows)
                assert len(ups) <= 1, (g, s, t, e, ups)
                checked += 1
    assert checked > 500


def test_still_optimal_agrees_with_recomputation():
    # still_optimal(e, delta) must equal: perturb c(e), re-enumerate, and
    # compare the witness bottleneck against the fresh optimum.
    rng = random.Random(888)
    for _ in range(40):
        g = random_connected_graph(rng, 6)
        (s, t), = sample_pairs(rng, g.n, 1).tolist()
        analysis = PairAnalysis(g, s, t)
        witness = analysis.witness
        for e in range(1, g.m + 1):
            for delta in (-5, -1, 0, 1, 5):
                edges = [
                    (g.edge_u[i], g.edge_v[i],
                     g.edge_cap[i] + (delta if i == e else 0))
                    for i in range(1, g.m + 1)
                ]
                perturbed = CapacitatedGraph(g.n, edges)
                optimum = max(b for _, b in enumerate_simple_paths(perturbed, s, t))
                w_min = min(
                    perturbed.edge_cap[perturbed.edge_between(a, b)]
                    for a, b in zip(witness, witness[1:])
                )
                assert analysis.still_optimal(e, delta) == (w_min == optimum)
