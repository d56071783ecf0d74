"""Tolerance oracle: preprocessing, the O(k) query kernel, invariants."""

import random
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bptol.graphs import (
    CapacitatedGraph,
    diamond_example,
    parse_pairs,
    single_edge_example,
    triangle_example,
)
from bptol.oracle import INFINITY, EdgeTolerances, preprocess
from bptol.randgraph import (all_connected_graphs, random_benchmark_graph,
                             random_connected_graph, sample_pairs)
from bptol.reference import PairAnalysis

from naive import naive_tolerances

INF = INFINITY


def test_preprocess_contexts():
    # Each pair's bottleneck edge e* is stored once, as a read-only column.
    o = preprocess(diamond_example(), [(1, 4)])
    assert o.pairs.tolist() == [[1, 4]]
    assert o.pairs.dtype == np.int64 and not o.pairs.flags.writeable
    assert o.bottleneck_edges.tolist() == [3]
    assert o.bottleneck_value(0) == 6
    assert type(o.bottleneck_value(0)) is int  # an int64 would wrap in arithmetic
    with pytest.raises(ValueError):
        o.bottleneck_edges[0] = 1

    o = preprocess(triangle_example(), [(1, 3)])
    assert o.bottleneck_edges.tolist() == [2]
    assert o.bottleneck_value(0) == 3

    o = preprocess(single_edge_example(), [(1, 2)])
    assert o.bottleneck_edges.tolist() == [1]
    assert o.bottleneck_value(0) == 7

    o = preprocess(triangle_example(), [(1, 2)])
    assert o.bottleneck_value(0) == 5


def test_triangle_queries():
    # Pair (1,3): optimal path 1-2-3 with bottleneck edge 2 (capacity 3).
    o = preprocess(triangle_example(), [(1, 3)])
    assert o.query_edge(2) == [(2, INF)]
    assert o.query_edge(3) == [(INF, 2)]
    assert o.query_edge(1) == [(4, INF)]


def test_diamond_queries():
    # Pair (1,4): optimal path 1-2-3-4 with bottleneck edge 3 (capacity 6).
    o = preprocess(diamond_example(), [(1, 4)])
    assert o.query_edge(4) == [(INF, INF)]
    assert o.query_edge(5) == [(INF, 4)]
    assert o.query_edge(3) == [(4, INF)]


def test_query_edge_maps_over_pairs():
    o = preprocess(triangle_example(), [(1, 3)])
    assert o.query_edge(2) == [EdgeTolerances(2, INF)]

    o = preprocess(diamond_example(), [(1, 4), (1, 4)])
    answers = o.query_edge(5)
    assert answers == [EdgeTolerances(INF, 4)] * 2

    o = preprocess(diamond_example(), [(1, 4), (2, 3)])
    first, second = o.query_edge(1)
    # Edge 1 sits on the (1,4) path; dropping it to the best detour floor.
    assert first == (6, INF)
    # For (2,3) the path is just edge 2; edge 1 is off-path with no
    # non-tree replacement entry, so both tolerances are unbounded.
    assert second == (INF, INF)


def test_out_of_range_arguments():
    # Every public entry point raises ValueError for an id out of range, so
    # one `except ValueError` guards them all.
    with pytest.raises(ValueError):
        CapacitatedGraph(3, [(1, 2, 2), (2, 4, 3)])
    o = preprocess(triangle_example(), [(1, 3)])
    for e in (0, 4, -1):
        with pytest.raises(ValueError):
            o.query_edge(e)
        with pytest.raises(ValueError):
            o.finite_entries(e)
    for i in (1, -1, 5):
        with pytest.raises(ValueError):
            o.bottleneck_value(i)
    # vertex ids outside 1..n, which numpy would otherwise wrap or accept
    g = diamond_example()
    idx = preprocess(g, [(1, 4)]).index
    for s, t in ((0, 3), (-1, 3), (3, -1), (3, 5)):
        with pytest.raises(ValueError):
            idx.path_min_edge(s, t)
        with pytest.raises(ValueError):
            preprocess(g, [(s, t)])
        with pytest.raises(ValueError):  # numpy would read -1 as vertex 4
            idx.path_min_edge_batch(np.array([1, s]), np.array([4, t]))
    empty = np.array([], dtype=np.int64)
    assert idx.path_min_edge_batch(empty, empty).tolist() == []
    analysis = PairAnalysis(g, 1, 4)
    for e in (0, g.m + 1):
        with pytest.raises(ValueError):
            analysis.tolerances(e)
        with pytest.raises(ValueError):
            analysis.still_optimal(e, 1)
    for x in (0, -1, 5):
        with pytest.raises(ValueError):
            idx.depth(x)
        with pytest.raises(ValueError):  # numpy would read -1 as vertex 4, 0 as slot 0
            idx.tin_of(np.array([1, x]))
    assert idx.tin_of(empty).tolist() == []
    tins = idx.tin_of(np.array([1, 4]))
    for e in (0, -1, 6):
        with pytest.raises(ValueError):
            idx.on_path(e, tins[:1], tins[1:])


def test_preprocess_rejects_invalid_pairs():
    g = triangle_example()
    with pytest.raises(ValueError):
        preprocess(g, [(1, 1)])
    with pytest.raises(ValueError):
        preprocess(g, [(0, 2)])
    with pytest.raises(ValueError):
        preprocess(g, [(1, 4)])
    with pytest.raises(ValueError):  # np.asarray alone raises OverflowError
        preprocess(g, [(1, 2**70)])
    with pytest.raises(ValueError):
        preprocess(g, [(-2**70, 1)])
    # the column checks name the first bad pair, as the per-pair loop does
    rng = random.Random(5)
    for _ in range(300):
        pairs = [(rng.randint(-1, 4), rng.randint(-1, 4)) for _ in range(rng.randint(1, 4))]
        messages = [f"pair ({s}, {t}) out of range (n=3)" if not (1 <= s <= 3 and 1 <= t <= 3)
                    else f"pair ({s}, {t}) has equal endpoints"
                    for s, t in pairs if not (1 <= s <= 3 and 1 <= t <= 3 and s != t)]
        if messages:
            with pytest.raises(ValueError, match=re.escape(messages[0])):
                preprocess(g, pairs)
        else:
            assert preprocess(g, pairs).pairs.tolist() == [list(p) for p in pairs]


def test_pair_side_of_preprocess_holds_no_per_pair_objects():
    # The 200k parsed pairs are one 3.2 MB int64 array.  What preprocess adds
    # is a few k-length int64 columns and the path-minimum batch's
    # CHUNK-sized temporaries (7.1 MB peak on numpy 2.4); one Python object
    # per pair took the peak to 22.4 MB, and one unchunked batch to 16.2 MB.
    # With no pairs the peak is 1.35 MB.
    n, k = 2000, 200_000
    g = random_benchmark_graph(n, 8000, seed=3)
    gen = np.random.default_rng(1)
    s = gen.integers(1, n + 1, size=k)
    t = (s + gen.integers(1, n, size=k) - 1) % n + 1  # never s
    text = "".join(f"{a} {b}\n" for a, b in zip(s.tolist(), t.tolist()))
    pairs = parse_pairs(f"{k}\n{text}", n)
    tracemalloc.start()
    try:
        o = preprocess(g, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(o.pairs, pairs)  # kept, not copied
    assert peak < 10_000_000


def test_path_min_edge_batch_temporaries_stay_bounded():
    # The 200k-pair answer is a 1.6 MB int64 column; the temporaries are
    # CHUNK pairs long (2.3 MB peak in all on numpy 2.4), where one
    # unchunked batch peaked at 12.3 MB.
    n, k = 2000, 200_000
    idx = preprocess(random_benchmark_graph(n, 8000, seed=3), []).index
    gen = np.random.default_rng(2)
    ss, ts = gen.integers(1, n + 1, size=(2, k))
    tracemalloc.start()
    try:
        edges = idx.path_min_edge_batch(ss, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000
    for j in range(0, k, 9973):
        s, t = int(ss[j]), int(ts[j])
        assert edges[j] == (0 if s == t else idx.path_min_edge(s, t))


def test_no_pairs_is_allowed():
    o = preprocess(triangle_example(), [])
    assert o.query_edge(1) == []


def test_query_purity():
    o = preprocess(diamond_example(), [(1, 4), (2, 3)])
    for e in range(1, 6):
        first = o.query_edge(e)
        for _ in range(3):
            assert o.query_edge(e) == first


def _check_kernel(o, g, pairs):
    expected = [naive_tolerances(g, o.tree, s, t) for s, t in pairs.tolist()]
    for e in range(1, g.m + 1):
        want = [per_edge[e] for per_edge in expected]
        got = o.query_edge(e)
        assert got == want
        # finite_entries lists exactly the pairs with a finite side, in pair
        # order, as Python ints: a finite 0 is listed, +inf never is.
        listed = list(o.finite_entries(e))
        assert listed == [(i, lo, up) for i, (lo, up) in enumerate(want)
                          if lo is not INF or up is not INF]
        for _, lo, up in listed:
            assert (lo is INF) != (up is INF)
            assert type(up if lo is INF else lo) is int


def test_batch_matches_scalar():
    # The uint64 kernel, through query_edge and finite_entries, against the
    # naive closed form, which walks explicit tree paths over
    # definition-level U/L tables.
    # These instances reach n=12 with dense edges, beyond what PairAnalysis
    # can enumerate.
    rng = random.Random(314)
    for _ in range(60):
        g = random_connected_graph(rng, 12)
        pairs = sample_pairs(rng, g.n, rng.randint(1, 6))
        _check_kernel(preprocess(g, pairs), g, pairs)


def test_batch_matches_scalar_with_tied_capacities():
    # Coarsened capacities tie often, so finite tolerances of 0 occur and
    # must stay apart from +inf.
    rng = random.Random(2718)
    zeros = 0
    for _ in range(60):
        g = random_connected_graph(rng, 10)
        g = CapacitatedGraph(g.n, [(g.edge_u[e], g.edge_v[e], g.edge_cap[e] // 8)
                                   for e in g.edge_ids()])
        pairs = sample_pairs(rng, g.n, rng.randint(1, 6))
        o = preprocess(g, pairs)
        _check_kernel(o, g, pairs)
        for e in g.edge_ids():
            zeros += sum(x == 0 for answer in o.query_edge(e) for x in answer)
    assert zeros > 0


def test_zero_tolerance_under_ties_is_finite():
    # Edges 2 and 3 tie at 3; the tie-break puts edge 3 in the tree, so a
    # shift of 1 on either edge changes which path is optimal.
    g = CapacitatedGraph(3, [(1, 2, 5), (2, 3, 3), (1, 3, 3)])
    o = preprocess(g, [(1, 3)])
    assert o.query_edge(1) == [(INF, INF)]
    assert o.query_edge(2) == [(INF, 0)]
    assert o.query_edge(3) == [(0, INF)]
    assert type(o.query_edge(2)[0].upper) is int
    assert list(o.finite_entries(1)) == []
    assert list(o.finite_entries(2)) == [(0, INF, 0)]
    assert list(o.finite_entries(3)) == [(0, 0, INF)]


def test_exact_near_2_62():
    # Path 1-2-3 with bottleneck edge 2; a float64 kernel rounds both
    # unit-sized answers here to 0.
    g = CapacitatedGraph(3, [(1, 2, 2**62 + 2), (2, 3, 2**62 + 1), (1, 3, 2**62)])
    o = preprocess(g, [(1, 3)])
    assert o.query_edge(1) == [(2, INF)]
    assert o.query_edge(2) == [(1, INF)]
    assert o.query_edge(3) == [(INF, 1)]
    assert list(o.finite_entries(2)) == [(0, 1, INF)]
    assert list(o.finite_entries(3)) == [(0, INF, 1)]
    analysis = PairAnalysis(g, 1, 3)
    for e in (1, 2, 3):
        assert o.query_edge(e) == [analysis.tolerances(e)]


def test_exact_over_full_int64_range():
    # Differences of int64 capacities reach 2**64 - 1, still exact.
    g = CapacitatedGraph(3, [(1, 2, 2**63 - 1), (2, 3, 2**63 - 2), (1, 3, -2**63)])
    o = preprocess(g, [(1, 3)])
    assert o.query_edge(1) == [(2**64 - 1, INF)]
    assert o.query_edge(2) == [(18446744073709551614, INF)]
    assert o.query_edge(3) == [(INF, 18446744073709551614)]
    for e in (1, 2, 3):
        (lo, up), = o.query_edge(e)
        assert type(lo if up is INF else up) is int
    assert list(o.finite_entries(3)) == [(0, INF, 18446744073709551614)]
    analysis = PairAnalysis(g, 1, 3)
    for e in (1, 2, 3):
        assert o.query_edge(e) == [analysis.tolerances(e)]


def test_parallel_queries_agree_with_serial():
    rng = random.Random(999)
    g = random_connected_graph(rng, 20)
    pairs = sample_pairs(rng, g.n, 8)
    o = preprocess(g, pairs)
    edges = list(range(1, g.m + 1))
    serial = [o.query_edge(e) for e in edges]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(o.query_edge, edges))
    assert parallel == serial


def _assert_matches_reference(g, pairs, o):
    answers = {e: o.query_edge(e) for e in range(1, g.m + 1)}
    checked = 0
    for i, (s, t) in enumerate(pairs.tolist()):
        analysis = PairAnalysis(g, s, t)
        for e in range(1, g.m + 1):
            expected = analysis.tolerances(e)
            got = answers[e][i]
            assert got == expected, (g.n, g.m, s, t, e, got, expected)
            lo, up = got
            if lo is not INF:
                assert lo > 0
            if up is not INF:
                assert up > 0
            assert lo is INF or up is INF
            checked += 1
    return checked


def test_matches_reference_on_random_graphs():
    rng = random.Random(20260)
    total = 0
    for _ in range(120):
        g = random_connected_graph(rng, 8)
        pairs = sample_pairs(rng, g.n, min(4, g.n * (g.n - 1) // 2))
        o = preprocess(g, pairs)
        total += _assert_matches_reference(g, pairs, o)
    assert total > 2000


def test_matches_reference_exhaustively_on_small_graphs():
    # Every connected labelled graph on up to 5 vertices, one random
    # distinct-capacity assignment each, every pair, every edge.
    rng = random.Random(8128)
    total = 0
    for n in range(2, 6):
        for g in all_connected_graphs(n, rng):
            pairs = [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)]
            o = preprocess(g, pairs)
            answers = {e: o.query_edge(e) for e in range(1, g.m + 1)}
            for i, (s, t) in enumerate(pairs):
                analysis = PairAnalysis(g, s, t)
                for e in range(1, g.m + 1):
                    assert answers[e][i] == analysis.tolerances(e)
                    total += 1
    assert total > 40000


def test_tree_edges_never_have_finite_upper():
    rng = random.Random(151)
    for _ in range(40):
        g = random_connected_graph(rng, 10)
        pairs = sample_pairs(rng, g.n, 3)
        o = preprocess(g, pairs)
        for e in range(1, g.m + 1):
            for lo, up in o.query_edge(e):
                if e in o.tree:
                    assert up is INF
                else:
                    assert lo is INF
