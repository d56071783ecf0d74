"""
Query time does not depend on graph size
========================================

Preprocessing pays the graph-dependent cost once; afterwards an edge
query is a handful of table lookups per pair.  Each query here is
``finite_entries``, the one kernel behind ``query_edge`` and the CLI.  Doubling m should move
preprocessing time but leave per-query time flat.  This demo uses
modest sizes so it runs in a few seconds; the bench subcommand scales
the same experiment to millions of edges.
"""

import time

from bptol import preprocess, random_benchmark_graph, random_query_edges, sample_pairs
import random

n = 20_000
k = 200
queries = 20_000

for m in (40_000, 80_000, 160_000):
    g = random_benchmark_graph(n, m, seed=7)
    pairs = sample_pairs(random.Random(7), n, k)

    t0 = time.perf_counter()
    oracle = preprocess(g, pairs)
    built = time.perf_counter() - t0

    edges = random_query_edges(m, queries, seed=11)
    t0 = time.perf_counter()
    for e in edges.tolist():
        list(oracle.finite_entries(e))
    per_query = (time.perf_counter() - t0) / queries

    print(f"m={m:7d}  preprocess {built:6.2f} s   "
          f"query mean {per_query * 1e6:7.2f} us")
