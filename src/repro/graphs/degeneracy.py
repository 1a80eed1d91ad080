"""Degeneracy orderings and bounded-outdegree orientations.

Proposition 2.1 of the paper converts edge-labeled proof labeling schemes
into vertex-labeled ones at a factor-``d`` cost on ``d``-degenerate graphs:
orient every edge acyclically with outdegree at most ``d`` and move each
edge label to the tail.  Bounded-pathwidth graphs are ``O(k)``-degenerate,
so the overhead is O(1) for fixed ``k``.
"""

from __future__ import annotations

from repro.graphs.graph import Graph, edge_key


def degeneracy_ordering(graph: Graph) -> tuple:
    """Return ``(ordering, degeneracy)`` via repeated minimum-degree removal.

    ``ordering`` lists the vertices in removal order; the degeneracy is the
    maximum, over removals, of the removed vertex's remaining degree.  Runs
    in O(n + m) with a bucket queue over the CSR core — dense indices in,
    names out, no per-vertex set copies.  (CSR index order is sorted name
    order, so the min-index tie-break below matches the historical
    min-name one.)
    """
    csr = graph.csr
    n = csr.n
    remaining_degree = list(csr.degrees)
    max_deg = max(remaining_degree, default=0)
    buckets: list = [set() for _ in range(max_deg + 1)]
    for i, d in enumerate(remaining_degree):
        buckets[d].add(i)
    removed = [False] * n
    ordering = []
    degeneracy = 0
    cursor = 0
    indptr, neighbors = csr.indptr, csr.neighbors
    for _ in range(n):
        while cursor <= max_deg and not buckets[cursor]:
            cursor += 1
        i = min(buckets[cursor])  # deterministic tie-break
        buckets[cursor].discard(i)
        degeneracy = max(degeneracy, remaining_degree[i])
        ordering.append(csr.vertices[i])
        removed[i] = True
        for p in range(indptr[i], indptr[i + 1]):
            j = neighbors[p]
            if removed[j]:
                continue
            d = remaining_degree[j]
            buckets[d].discard(j)
            remaining_degree[j] = d - 1
            buckets[d - 1].add(j)
            if d - 1 < cursor:
                cursor = d - 1
    return ordering, degeneracy


def orient_by_degeneracy(graph: Graph) -> tuple:
    """Return ``(orientation, outdegree_bound)`` per Proposition 2.1.

    ``orientation`` maps each canonical edge key to its oriented pair
    ``(tail, head)``; every vertex has outdegree at most the graph's
    degeneracy, and the orientation is acyclic.  The edge is oriented away
    from the endpoint removed *earlier* in the degeneracy ordering, whose
    not-yet-removed degree at removal time bounds its outdegree.
    """
    ordering, degeneracy = degeneracy_ordering(graph)
    position = {v: i for i, v in enumerate(ordering)}
    orientation = {}
    for u, v in graph.edges():
        if position[u] < position[v]:
            orientation[edge_key(u, v)] = (u, v)
        else:
            orientation[edge_key(u, v)] = (v, u)
    return orientation, degeneracy

