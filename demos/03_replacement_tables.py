"""
Replacement tables: the best swap for every edge
================================================

Two tables drive all tolerance answers.  For a non-tree edge e, U[e] is
the cheapest tree edge on the tree path between e's endpoints -- the edge
e would evict if it ever entered the tree.  For a tree edge e, L[e] is
the most expensive non-tree edge whose tree path covers e -- the edge
that would step in if e left.
"""

from bptol import (
    build_index,
    build_max_spanning_tree,
    build_replacement_tables,
    capacity_ranks,
    diamond_example,
)

g = diamond_example()
tree = build_max_spanning_tree(g)
idx = build_index(tree, g, capacity_ranks(g))
tables = build_replacement_tables(g, tree, idx)

print("graph: 4 vertices, capacities 10, 8, 6 on the chain 1-2-3-4,")
print("       plus chords 1-3 (capacity 4) and 2-4 (capacity 2)")
print("tree edges:", sorted(tree.edge_ids))
print()

for e in range(1, g.m + 1):
    u, v = g.endpoints(e)
    if e in tree:
        rep = tables.L[e]
        kind = "tree     L"
    else:
        rep = tables.U[e]
        kind = "non-tree U"
    shown = rep if rep != 0 else "-"
    print(f"edge {e} ({u}-{v}, c={g.capacity(e):2d})  {kind}[{e}] = {shown}")

# Reading the table: chord 4 spans 1..3, whose tree path is edges 1 and 2;
# the cheaper of those is edge 2, so U[4] = 2.  Tree edge 3 is covered
# only by chord 5 (the 2-4 chord's path is 2-3-4), so L[3] = 5.
assert tables.U[4] == 2
assert tables.L[3] == 5
