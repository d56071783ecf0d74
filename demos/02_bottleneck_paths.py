"""
Bottleneck paths live on the maximum spanning tree
==================================================

The best achievable minimum capacity between s and t (the max-min or
"widest path" value) is realized by the unique path of the maximum
spanning tree.  This demo checks that against brute-force enumeration
of every simple path.
"""

import random

from bptol import (
    build_index,
    build_max_spanning_tree,
    capacity_ranks,
    enumerate_simple_paths,
    random_connected_graph,
)

rng = random.Random(7)
g = random_connected_graph(rng, 8)
print(f"random connected graph: n={g.n}, m={g.m}")

tree = build_max_spanning_tree(g)
idx = build_index(tree, g, capacity_ranks(g))
print("tree edges:", sorted(tree.edge_ids))

# For every pair: the minimum capacity along the tree path equals the
# maximum over all simple paths of the per-path minimum.
for s in range(1, g.n + 1):
    for t in range(s + 1, g.n + 1):
        e = idx.path_min_edge(s, t)
        tree_value = g.capacity(e)
        best = max(b for _, b in enumerate_simple_paths(g, s, t))
        assert tree_value == best
        print(f"  b({s},{t}) = {tree_value:4d}   critical edge {e}")

print("tree-path minima match enumeration for all pairs")
