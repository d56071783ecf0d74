"""Small quadratic reference implementations used only by tests.

Deliberately dumb: walk-up LCA, explicit path scans, definition-level
replacement edges, exhaustive spanning-tree enumeration, and reachability by
breadth-first search.  Nothing here
shares code with the structures under test.
"""
from __future__ import annotations

import math
from itertools import combinations

from bptol import CapacitatedGraph, SpanningTree


def tree_adjacency(g: CapacitatedGraph, edge_ids) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, g.n + 1)}
    for e in edge_ids:
        u, v = g.endpoints(e)
        adj[u].append((v, e))
        adj[v].append((u, e))
    return adj


def tree_parents(g: CapacitatedGraph, edge_ids, root: int = 1):
    """(parent, parent_edge, depth) maps by DFS from root."""
    adj = tree_adjacency(g, edge_ids)
    parent = {root: 0}
    parent_edge = {root: 0}
    depth = {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        for w, e in adj[v]:
            if w not in parent:
                parent[w] = v
                parent_edge[w] = e
                depth[w] = depth[v] + 1
                stack.append(w)
    return parent, parent_edge, depth


def naive_lca(parent: dict, depth: dict, x: int, y: int) -> int:
    while depth[x] > depth[y]:
        x = parent[x]
    while depth[y] > depth[x]:
        y = parent[y]
    while x != y:
        x = parent[x]
        y = parent[y]
    return x


def tree_path_edges(g: CapacitatedGraph, edge_ids, s: int, t: int) -> list[int]:
    """Edge ids along the unique s-t path in the tree, by BFS."""
    adj = tree_adjacency(g, edge_ids)
    prev: dict[int, tuple[int, int]] = {s: (0, 0)}
    queue = [s]
    while queue:
        nxt = []
        for v in queue:
            for w, e in adj[v]:
                if w not in prev:
                    prev[w] = (v, e)
                    nxt.append(w)
        queue = nxt
    edges = []
    v = t
    while v != s:
        v, e = prev[v]
        edges.append(e)
    return edges


def naive_path_min_edge(g: CapacitatedGraph, edge_ids, s: int, t: int) -> int:
    return min(tree_path_edges(g, edge_ids, s, t),
               key=lambda e: (g.edge_cap[e], e))


def naive_upper_replacements(g: CapacitatedGraph, tree: SpanningTree) -> list[int]:
    """Definition-level U: min-capacity tree edge on each fundamental path;
    0 for tree edges and slot 0."""
    table = [0] * (g.m + 1)
    for e in g.edge_ids():
        if e not in tree:
            u, v = g.endpoints(e)
            table[e] = naive_path_min_edge(g, tree.edge_ids, u, v)
    return table


def naive_lower_replacements(g: CapacitatedGraph, tree: SpanningTree) -> list[int]:
    """Definition-level L: max-capacity non-tree edge covering each tree
    edge; 0 for bridges, non-tree edges and slot 0."""
    table = [0] * (g.m + 1)
    for e in g.edge_ids():
        if e not in tree:
            u, v = g.endpoints(e)
            for te in tree_path_edges(g, tree.edge_ids, u, v):
                best = table[te]
                if best == 0 or (g.edge_cap[e], e) > (g.edge_cap[best], best):
                    table[te] = e
    for e in g.edge_ids():
        if e not in tree:
            table[e] = 0
    return table


def naive_tolerances(g: CapacitatedGraph, tree: SpanningTree, s: int, t: int):
    """(lower, upper) per edge id for pair (s, t), math.inf when unbounded.

    The closed-form case analysis evaluated over an explicit tree path and
    the definition-level U/L tables above, in Python integers; slot 0 unused.
    """
    path = tree_path_edges(g, tree.edge_ids, s, t)
    e_star = min(path, key=lambda e: (g.edge_cap[e], e))
    upper_rep = naive_upper_replacements(g, tree)
    lower_rep = naive_lower_replacements(g, tree)
    cap = g.edge_cap.tolist()
    out = [None]
    for e in g.edge_ids():
        if e in path:
            rep = lower_rep[e]
            lower = math.inf if rep == 0 else cap[e] - min(cap[rep], cap[e_star])
            out.append((lower, math.inf))
        elif upper_rep[e] == e_star:
            out.append((math.inf, cap[e_star] - cap[e]))
        else:
            out.append((math.inf, math.inf))
    return out


def spanning_tree_edge_sets(g: CapacitatedGraph):
    """Every spanning tree of g, as a frozenset of edge ids.  Exponential."""
    out = []
    for subset in combinations(g.edge_ids(), g.n - 1):
        if _is_spanning_tree(g, subset):
            out.append(frozenset(subset))
    return out


def _is_spanning_tree(g: CapacitatedGraph, edge_ids) -> bool:
    parent = {v: v for v in range(1, g.n + 1)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edge_ids:
        u, v = g.endpoints(e)
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def tree_capacity_sum(g: CapacitatedGraph, edge_ids) -> int:
    return sum(g.capacity(e) for e in edge_ids)


def naive_unreached(g: CapacitatedGraph) -> int | None:
    """Smallest vertex with no path to vertex 1, by breadth-first search."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for e in g.edge_ids():
        u, v = g.endpoints(e)
        adj[u].add(v)
        adj[v].add(u)
    seen = {1}
    frontier = [1]
    while frontier:
        reached = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        frontier = reached
    return next((v for v in range(1, g.n + 1) if v not in seen), None)
