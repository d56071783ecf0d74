"""
Per-edge tolerances for k source-target pairs
=============================================

After one preprocessing pass, the oracle answers "how far can this
edge's capacity move before the chosen optimal path for pair i stops
being optimal?" -- for all k pairs of one edge -- in O(k).

A lower tolerance bounds decreases, an upper tolerance bounds
increases; "inf" means no finite change ever matters.  One side is
always inf: a path-edge only fears shrinking, an off-path edge only
fears growing.
"""

from bptol import INFINITY, diamond_example, preprocess

g = diamond_example()
oracle = preprocess(g, [(1, 4), (2, 3)])

print("pair 1 = (1,4): optimal path 1-2-3-4, bottleneck", oracle.bottleneck_value(0))
print("pair 2 = (2,3): optimal path 2-3,     bottleneck", oracle.bottleneck_value(1))
print()


def show(value):
    return "inf" if value is INFINITY else str(value)


print("edge (u-v, cap)     pair1 lower/upper    pair2 lower/upper")
for e in range(1, g.m + 1):
    (l1, u1), (l2, u2) = oracle.query_edge(e)
    u, v = g.endpoints(e)
    print(f"  {e} ({u}-{v}, c={g.capacity(e):2d})      "
          f"{show(l1):>5} / {show(u1):<5}        "
          f"{show(l2):>5} / {show(u2):<5}")

# Highlights for pair (1,4):
#  * Edge 3 carries the bottleneck (6).  It can lose up to 4 units --
#    down to the best detour's value -- before the path is beaten.
#  * Chord 5 (capacity 2) is off the path; raising it above 6 would beat
#    the path, so its upper tolerance is 6 - 2 = 4.
#  * Chord 4 can grow forever: every route through it is already capped
#    at 6 by its neighbours, so (inf, inf).
assert oracle.query_edge(3)[0] == (4, INFINITY)
assert oracle.query_edge(5)[0] == (INFINITY, 4)
assert oracle.query_edge(4)[0] == (INFINITY, INFINITY)

# finite_entries is the kernel behind query_edge: it lists only the pairs
# with a finite side, as (pair index, lower, upper).  The CLI formats these
# and copies an all-inf record for every other pair.
assert list(oracle.finite_entries(3)) == [(0, 4, INFINITY)]
assert list(oracle.finite_entries(4)) == [(1, INFINITY, 4)]  # pair 2 only
