"""Exact pathwidth: branch-and-bound, with a subset-DP reference.

Pathwidth equals the *vertex separation number* (Kinnersley 1992): the
minimum over linear orderings ``v_1, ..., v_n`` of the maximum, over
prefixes, of the number of prefix vertices with a neighbor outside the
prefix.  Two exact searches share the bitset substrate in
:mod:`repro.pathwidth.bitsets`:

* every function here except :func:`subset_dp_pathwidth` runs the
  Coudert–Mazauric–Nisse branch-and-bound in
  :mod:`repro.pathwidth.branch_and_bound`, run to completion.  No size
  cap; bounded-pathwidth inputs at n ≈ 50–100 typically prove optimal
  in well under a second (callers who want a node-budgeted anytime
  incumbent instead use
  :func:`~repro.pathwidth.branch_and_bound.branch_and_bound_ordering`
  directly, as ``DecomposeStage`` does);
* :func:`subset_dp_pathwidth` — the Held–Karp-style subset DP
  ``f(S) = min_{v in S} max(f(S - v), boundary(S))``, O(2^n * n) time
  and O(2^n) memory, capped at ``_EXACT_LIMIT`` vertices.  Kept as the
  independent ground truth the equivalence suite and the E13 bench
  check the branch-and-bound against.
"""

from __future__ import annotations

from repro.graphs import Graph
from repro.pathwidth.bitsets import boundary_size, neighbor_masks, vertex_separation_of_order
from repro.pathwidth.interval import IntervalRepresentation
from repro.pathwidth.path_decomposition import PathDecomposition

_EXACT_LIMIT = 24


def exact_pathwidth(graph: Graph) -> int:
    """Return the exact pathwidth of ``graph`` (max over its components)."""
    if graph.n == 0:
        return -1
    return _vertex_separation_of(graph, optimal_vertex_ordering(graph))


def optimal_vertex_ordering(graph: Graph) -> list:
    """Return a vertex ordering achieving the minimum vertex separation."""
    if graph.n == 0:
        return []
    from repro.pathwidth.branch_and_bound import branch_and_bound_ordering

    return branch_and_bound_ordering(graph).ordering


def subset_dp_pathwidth(graph: Graph) -> int:
    """Exact pathwidth by the O(2^n * n) subset DP (reference only).

    Raises ``ValueError`` above ``_EXACT_LIMIT`` vertices.
    """
    if graph.n == 0:
        return -1
    return _vertex_separation_of(graph, _dp_vertex_ordering(graph))


def _dp_vertex_ordering(graph: Graph) -> list:
    """An optimal ordering by the subset DP."""
    n = graph.n
    if n > _EXACT_LIMIT:
        raise ValueError(
            f"exact pathwidth limited to {_EXACT_LIMIT} vertices (got {n})"
        )
    vertices, nbr_masks = neighbor_masks(graph)

    full = (1 << n) - 1
    # f[S] = best achievable max-boundary when S is the prefix set.
    f = [0] * (1 << n)
    choice = [0] * (1 << n)
    for subset in range(1, full + 1):
        best = None
        best_v = -1
        b = boundary_size(subset, nbr_masks)
        mask = subset
        while mask:
            low = mask & -mask
            prev = subset ^ low
            candidate = max(f[prev], b)
            if best is None or candidate < best:
                best = candidate
                best_v = low.bit_length() - 1
            mask ^= low
        f[subset] = best if best is not None else 0
        choice[subset] = best_v

    # Reconstruct the ordering from the choices.
    order_indices = []
    subset = full
    while subset:
        v_index = choice[subset]
        order_indices.append(v_index)
        subset ^= 1 << v_index
    order_indices.reverse()
    return [vertices[i] for i in order_indices]


def _vertex_separation_of(graph: Graph, ordering: list) -> int:
    """Return the vertex separation of a specific ordering (bitset sweep)."""
    vertices, nbr_masks = neighbor_masks(graph)
    index_of = {v: i for i, v in enumerate(vertices)}
    return vertex_separation_of_order([index_of[v] for v in ordering], nbr_masks)


def exact_path_decomposition(graph: Graph) -> PathDecomposition:
    """Return an optimal-width path decomposition.

    The optimal ordering is converted into an interval representation via
    :meth:`IntervalRepresentation.from_ordering` and then into bags; the
    resulting width equals the pathwidth.
    """
    if graph.n == 0:
        return PathDecomposition(graph, [], validate=False)
    ordering = optimal_vertex_ordering(graph)
    rep = IntervalRepresentation.from_ordering(graph, ordering)
    return PathDecomposition.from_interval_representation(rep)
