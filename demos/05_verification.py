"""
Cross-checking the fast oracle against brute force
==================================================

The package carries an independent reference implementation that
enumerates every simple path.  On small random graphs we can compare
the oracle's O(k)-per-edge answers against it exhaustively, and additionally
confirm the perturbation meaning of each finite tolerance: shifting
the capacity by the tolerance keeps the chosen path optimal, one more
unit breaks it.
"""

import random

from bptol import (
    INFINITY,
    PairAnalysis,
    preprocess,
    random_connected_graph,
    sample_pairs,
)

rng = random.Random(42)
instances = 60
comparisons = 0

for _ in range(instances):
    g = random_connected_graph(rng, 8)
    pairs = sample_pairs(rng, g.n, 3)
    oracle = preprocess(g, pairs)
    answers = {e: oracle.query_edge(e) for e in range(1, g.m + 1)}  # all k per edge
    for i, (s, t) in enumerate(pairs.tolist()):
        analysis = PairAnalysis(g, s, t)   # the brute-force side
        for e in range(1, g.m + 1):
            fast = answers[e][i]
            slow = analysis.tolerances(e)
            assert fast == slow, (g, s, t, e, fast, slow)

            lower, upper = fast
            if lower is not INFINITY:
                assert analysis.still_optimal(e, -lower)
                assert not analysis.still_optimal(e, -(lower + 1))
            if upper is not INFINITY:
                assert analysis.still_optimal(e, upper)
                assert not analysis.still_optimal(e, upper + 1)
            comparisons += 1

print(f"checked {comparisons} (edge, pair) queries over {instances} graphs")
print("fast oracle == brute force, and every finite tolerance is tight")
