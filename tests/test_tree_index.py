"""Rooted-tree index: depths, path minima, path membership."""

import random

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
from bptol.randgraph import random_connected_graph
from bptol.replacement import compute_lower_replacements
from bptol.tree_index import build_index

from naive import (
    naive_lower_replacements,
    naive_path_min_edge,
    tree_parents,
    tree_path_edges,
)


def _indexed(g):
    tree = build_max_spanning_tree(g)
    return tree, build_index(tree, g, capacity_ranks(g))


def _on_path(idx, e, s, t):
    """The query kernel's on-path rule for one tree edge and one pair."""
    return bool(idx.on_path(e, idx.tin_of(np.array([s])), idx.tin_of(np.array([t])))[0])


def test_depths_on_diamond_chain():
    g = diamond_example()
    _, idx = _indexed(g)
    # Tree is the chain 1-2-3-4.
    assert [idx.depth(x) for x in (1, 2, 3, 4)] == [0, 1, 2, 3]


def test_depths_on_single_edge():
    g = single_edge_example()
    _, idx = _indexed(g)
    assert idx.depth(1) == 0
    assert idx.depth(2) == 1


def test_root_depth_is_zero():
    for g in (triangle_example(), diamond_example(), single_edge_example()):
        _, idx = _indexed(g)
        assert idx.depth(1) == 0


def test_path_min_edge_examples():
    g = diamond_example()
    _, idx = _indexed(g)
    assert idx.path_min_edge(1, 4) == 3

    g1 = triangle_example()
    _, idx1 = _indexed(g1)
    assert idx1.path_min_edge(1, 3) == 2

    k2 = single_edge_example()
    _, idxk = _indexed(k2)
    assert idxk.path_min_edge(1, 2) == 1

    # one vertex: no junction, and an empty capacity order to map ranks back
    _, idx1v = _indexed(CapacitatedGraph(1, []))
    assert idx1v.path_min_edge_batch(np.array([1]), np.array([1])).tolist() == [0]


def test_path_min_edge_rejects_equal_endpoints():
    _, idx = _indexed(diamond_example())
    with pytest.raises(ValueError):
        idx.path_min_edge(2, 2)


def test_on_path_examples():
    g = diamond_example()
    tree, idx = _indexed(g)
    assert _on_path(idx, 2, 1, 4) is True
    assert _on_path(idx, 3, 1, 3) is False
    # An edge always lies on the path between its own endpoints.
    for e in tree.edge_ids:
        u, v = g.endpoints(e)
        assert _on_path(idx, e, u, v) is True
    # Every tree edge, and no other, is the parent edge of one non-root
    # vertex, so the rule refuses the non-tree edges 4 and 5, edge slot 0 and
    # the ids 6 and -1 outside 1..m.
    assert sorted(idx.parent_edge[2:].tolist()) == sorted(tree.edge_ids)
    for e in (4, 5, 0, 6, -1):
        with pytest.raises(ValueError):
            _on_path(idx, e, 1, 4)
    # membership answers only for edge ids 1..m
    assert 4 not in tree and -3 not in tree and 6 not in tree


def test_index_columns_are_read_only():
    g = diamond_example()
    tree, idx = _indexed(g)
    for column in (idx.parent_edge, idx.depths, idx._tin, idx._tout, idx._pos,
                   idx._table):
        with pytest.raises(ValueError):
            column[(0,) * column.ndim] = 5
    # The table holds capacity ranks and the graph's capacity_order maps them
    # back to edges, so the index holds no column indexed by edge id.  On the
    # diamond m+1 = 6, n+1 = 5 and the table is 3 junctions wide.
    held = [getattr(idx, name) for name in type(idx).__slots__ if name != "_graph"]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert len(arrays) == 6 and all(g.m + 1 not in a.shape for a in arrays)
    assert np.array_equal(idx._table[0], capacity_ranks(g)[tree.junction])
    # ranks and chain positions are stored in the smallest unsigned dtype
    assert idx._table.dtype == idx._pos.dtype == np.uint8


def _random_tree_graph(rng, max_n):
    """A graph that is itself a tree, with distinct capacities."""
    n = rng.randint(2, max_n)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    caps = rng.sample(range(-3 * n, 3 * n + 1), n - 1)
    edges = []
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((u, v, caps[i - 1]))
    rng.shuffle(edges)
    return CapacitatedGraph(n, edges)


def test_matches_naive_answers_on_random_trees():
    rng = random.Random(4171)
    for _ in range(120):
        g = _random_tree_graph(rng, 64)
        tree, idx = _indexed(g)
        _, parent_edge, depth = tree_parents(g, tree.edge_ids, 1)
        verts = range(1, g.n + 1)
        for x in verts:
            assert idx.depth(x) == depth[x]
            assert idx.parent_edge[x] == parent_edge[x]
        for _ in range(30):
            s = rng.randint(1, g.n)
            t = rng.randint(1, g.n)
            if s == t:
                continue
            expected = naive_path_min_edge(g, tree.edge_ids, s, t)
            assert idx.path_min_edge(s, t) == expected
            assert idx.path_min_edge(t, s) == expected
            path = tree_path_edges(g, tree.edge_ids, s, t)
            for e in tree.edge_ids:
                assert _on_path(idx, e, s, t) == (e in path)


def test_matches_naive_answers_on_random_graphs():
    # Same checks when the tree is a proper subgraph and non-tree edges exist.
    rng = random.Random(902)
    for _ in range(60):
        g = random_connected_graph(rng, 24)
        tree, idx = _indexed(g)
        for _ in range(20):
            s, t = rng.randint(1, g.n), rng.randint(1, g.n)
            if s != t:
                assert idx.path_min_edge(s, t) == naive_path_min_edge(
                    g, tree.edge_ids, s, t
                )


def test_batch_path_min_matches_scalar():
    rng = random.Random(78)
    g = random_connected_graph(rng, 40)
    tree = build_max_spanning_tree(g)
    rank = capacity_ranks(g)
    idx = build_index(tree, g, rank=rank)
    pairs = [(rng.randint(1, g.n), rng.randint(1, g.n)) for _ in range(400)]
    ss = np.array([p[0] for p in pairs], dtype=np.int64)
    ts = np.array([p[1] for p in pairs], dtype=np.int64)
    got = idx.path_min_edge_batch(ss, ts)
    for j, (s, t) in enumerate(pairs):
        if s == t:
            assert got[j] == 0  # sentinel for an empty path
        else:
            assert got[j] == idx.path_min_edge(s, t)
            assert got[j] == naive_path_min_edge(g, tree.edge_ids, s, t)


def test_on_path_matches_tree_paths():
    # The kernel's form: one tree edge against the tins of many pairs at once.
    rng = random.Random(79)
    g = random_connected_graph(rng, 32)
    tree, idx = _indexed(g)
    pairs = [(s, t) for s, t in ((rng.randint(1, g.n), rng.randint(1, g.n))
                                 for _ in range(50)) if s != t]
    s_tin = idx.tin_of(np.array([s for s, _ in pairs]))
    t_tin = idx.tin_of(np.array([t for _, t in pairs]))
    paths = [tree_path_edges(g, tree.edge_ids, s, t) for s, t in pairs]
    for e in tree.edge_ids:
        on = idx.on_path(e, s_tin, t_tin)
        assert on.tolist() == [e in path for path in paths]


def _shaped_graph(rng, n, shape, chords, ties=False):
    """A path-shaped (vertex 1 at one end) or star-shaped maximum spanning
    tree holding the n-1 largest capacities, plus random chords below it.
    With ``ties`` the tree capacities take n//20 values, so they tie."""
    others = list(range(2, n + 1))
    rng.shuffle(others)
    if shape == "path":
        order = [1] + others
        tree_pairs = list(zip(order, order[1:]))
    else:  # star around a centre other than the root, so the root is a leaf
        centre = others.pop()
        tree_pairs = [(centre, v) for v in others + [1]]
    taken = {frozenset(p) for p in tree_pairs}
    chord_pairs = []
    while len(chord_pairs) < chords:
        u, v = rng.sample(range(1, n + 1), 2)
        if frozenset((u, v)) not in taken:
            taken.add(frozenset((u, v)))
            chord_pairs.append((u, v))
    caps = rng.sample(range(-10 * n, 10 * n), n - 1 + chords)
    caps.sort(reverse=True)
    if ties:  # still above every chord, so the tree is the same
        caps[:n - 1] = [10 * n + rng.randrange(n // 20) for _ in range(n - 1)]
    rows = [(u, v, c) if rng.random() < 0.5 else (v, u, c)
            for (u, v), c in zip(tree_pairs + chord_pairs, caps)]
    rng.shuffle(rows)
    return CapacitatedGraph(n, rows)


@pytest.mark.parametrize("shape, height, ties", [
    pytest.param("path", 1999, False, id="path-1999"),
    pytest.param("star", 2, False, id="star-2"),
    pytest.param("path", 1999, True, id="path-1999-tied"),
    pytest.param("star", 2, True, id="star-2-tied"),
])
def test_path_minima_and_lower_table_on_extreme_shapes(shape, height, ties):
    # Height n-1 makes every tree-path walk long and, in the L scan, makes
    # the deeper set-top climb into the other end's set, whose canonical
    # element must then be looked up again.  Tied tree capacities make the
    # table's rank minima, not capacities, pick each path's edge.
    rng = random.Random((31 if shape == "path" else 32) + 2 * ties)
    n = 2000
    g = _shaped_graph(rng, n, shape, chords=600, ties=ties)
    tree = build_max_spanning_tree(g)
    idx = build_index(tree, g, rank=capacity_ranks(g))
    assert max(idx.depth(v) for v in range(1, n + 1)) == height
    pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(150)]
    pairs += [(v, v) for v in rng.sample(range(1, n + 1), 10)]
    got = idx.path_min_edge_batch(np.array([p[0] for p in pairs]),
                                  np.array([p[1] for p in pairs]))
    for (s, t), e in zip(pairs, got.tolist()):
        expected = 0 if s == t else naive_path_min_edge(g, tree.edge_ids, s, t)
        assert e == expected
    assert compute_lower_replacements(g, tree, idx).tolist() == naive_lower_replacements(g, tree)


@pytest.mark.parametrize("shape", ["path", "star"])
def test_rooting_at_scale_on_path_and_star(shape):
    # n-1 = 299999 tree edges and no chords, so the graph is its own
    # spanning tree.  Path: edge e joins n-e and n-e+1, so vertex v > 1 hangs
    # from v-1 by edge n-v+1 at depth v-1.  Star centred at n: edge e joins e
    # and n, so n hangs from the root by edge 1 and every other v > 1 from n
    # by edge v, at depth 2.  Orientations alternate.  The preorder interval
    # [tin, tout) of a vertex is as long as its subtree.
    n = 300_000
    gen = np.random.default_rng(11)
    e = np.arange(1, n)
    u, v = (n - e, n - e + 1) if shape == "path" else (e, np.full(n - 1, n))
    flip = e % 2 == 1
    rows = np.stack([np.where(flip, v, u), np.where(flip, u, v),
                     gen.permutation(n - 1)], axis=1)
    g = CapacitatedGraph(n, rows)
    _, idx = _indexed(g)
    vs = np.arange(n + 1)
    if shape == "path":
        parent_edge, depth = np.where(vs > 1, n - vs + 1, 0), np.maximum(vs - 1, 0)
        size = n + 1 - vs
    else:
        parent_edge, depth = np.where(vs > 1, vs, 0), np.where(vs > 1, 2, 0)
        parent_edge[n], depth[n] = 1, 1
        size = np.ones(n + 1, dtype=np.int64)
        size[1], size[n] = n, n - 1
    assert np.array_equal(idx.parent_edge[1:], parent_edge[1:])
    assert np.array_equal(idx.depths[1:], depth[1:])
    assert np.array_equal((idx._tout - idx._tin)[1:], size[1:])
    picks = gen.integers(1, n, size=20)
    # pair ends drawn among the picked ids, so star leaf edges lie on paths
    ends = np.concatenate([picks, [1, n], gen.integers(1, n + 1, size=20)])
    ss, ts = gen.choice(ends, size=200), gen.choice(ends, size=200)
    s_tin, t_tin = idx.tin_of(ss), idx.tin_of(ts)
    for edge in picks.tolist():
        if shape == "path":
            child = n - edge + 1  # the edge joins child-1 and child
            expected = (np.minimum(ss, ts) < child) & (child <= np.maximum(ss, ts))
        else:
            expected = (ss == edge) != (ts == edge)
        assert np.array_equal(idx.on_path(edge, s_tin, t_tin), expected)
