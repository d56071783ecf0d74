"""Online tolerance queries for bottleneck (max-min) paths.

Preprocess an edge-capacitated connected graph together with k source-target
pairs, then ask, for any edge, how far its capacity may drop or grow before
the fixed optimal path of some pair stops being optimal — all 2k answers in
O(k) per edge.
"""
from .graphs import (CapacitatedGraph, EdgeId, ParseError, VertexId,
                     Violation, capacity_ranks, diamond_example,
                     parse_graph, parse_pairs, serialize_graph,
                     single_edge_example, triangle_example, validate)
from .mst import SpanningTree, build_max_spanning_tree
from .tree_index import RootedTreeIndex, build_index
from .replacement import (ReplacementTables, build_replacement_tables,
                          compute_lower_replacements,
                          compute_upper_replacements)
from .oracle import (INFINITY, EdgeTolerances, Tolerance, ToleranceOracle,
                     preprocess)
from .reference import (PairAnalysis, brute_max_spanning_tree,
                        enumerate_simple_paths)
from .randgraph import (all_connected_graphs, random_benchmark_graph,
                        random_connected_graph, random_query_edges,
                        sample_pairs)

__version__ = "0.1.0"

__all__ = [
    "CapacitatedGraph", "EdgeId", "ParseError", "VertexId",
    "Violation", "capacity_ranks", "parse_graph", "parse_pairs",
    "serialize_graph", "validate", "triangle_example", "diamond_example",
    "single_edge_example",
    "SpanningTree", "build_max_spanning_tree",
    "RootedTreeIndex", "build_index",
    "ReplacementTables", "build_replacement_tables",
    "compute_upper_replacements", "compute_lower_replacements",
    "INFINITY", "EdgeTolerances", "Tolerance", "ToleranceOracle", "preprocess",
    "PairAnalysis", "brute_max_spanning_tree", "enumerate_simple_paths",
    "all_connected_graphs", "random_benchmark_graph",
    "random_connected_graph", "random_query_edges", "sample_pairs",
    "__version__",
]
