"""Pathwidth heuristics for graphs beyond the exact solver's reach.

The prover of Theorem 1 is a centralized algorithm with unbounded
computational power; in practice the evaluation mostly uses generators that
return witness decompositions.  These heuristics cover the remaining cases:
arbitrary graphs where a reasonable (not necessarily optimal) path
decomposition suffices, since the certification machinery only needs *some*
bounded-width interval representation.

Two strategies are implemented and the best result is kept:

* **BFS sweep** — order vertices by breadth-first layers (good on
  path-shaped graphs);
* **greedy boundary minimization with beam search** — extend a partial
  ordering by the vertex minimizing the resulting boundary, keeping the
  ``beam_width`` best partial orderings per step.
"""

from __future__ import annotations

from typing import Optional

from repro.graphs import Graph
from repro.pathwidth.bitsets import boundary_size, neighbor_masks
from repro.pathwidth.interval import IntervalRepresentation
from repro.pathwidth.path_decomposition import PathDecomposition


def bfs_ordering(graph: Graph, source=None) -> list:
    """Return a BFS vertex ordering from ``source`` (default: min vertex)."""
    if graph.n == 0:
        return []
    order: list = []
    seen: set = set()
    for start in graph.vertices() if source is None else [source]:
        if start in seen:
            continue
        component = graph.bfs_order(start)
        order.extend(v for v in component if v not in seen)
        seen.update(component)
    return order


def greedy_boundary_ordering(graph: Graph, beam_width: int = 4) -> list:
    """Return an ordering via beam-searched greedy boundary minimization."""
    if graph.n == 0:
        return []
    vertices, masks = neighbor_masks(graph)
    index_of = {v: i for i, v in enumerate(vertices)}
    full = (1 << graph.n) - 1
    # Each beam entry: (worst boundary so far, ordering tuple, placed mask).
    start = min(vertices, key=graph.degree)
    beams = [(0, (start,), 1 << index_of[start])]
    for _ in range(graph.n - 1):
        candidates = []
        for worst, ordering, placed in beams:
            frontier = 0
            scan = placed
            while scan:
                low = scan & -scan
                scan ^= low
                frontier |= masks[low.bit_length() - 1]
            frontier &= ~placed
            if not frontier:  # disconnected remainder: pick globally
                frontier = full & ~placed
            scan = frontier
            while scan:
                low = scan & -scan
                scan ^= low
                boundary = boundary_size(placed | low, masks)
                candidates.append(
                    (
                        max(worst, boundary),
                        ordering + (vertices[low.bit_length() - 1],),
                        placed | low,
                    )
                )
        candidates.sort(key=lambda item: (item[0], item[1]))
        seen_sets = set()
        beams = []
        for entry in candidates:
            if entry[2] in seen_sets:
                continue
            seen_sets.add(entry[2])
            beams.append(entry)
            if len(beams) >= beam_width:
                break
    return list(beams[0][1])


def heuristic_path_decomposition(
    graph: Graph, beam_width: int = 4
) -> PathDecomposition:
    """Return the best decomposition found by the heuristic portfolio."""
    if graph.n == 0:
        return PathDecomposition(graph, [], validate=False)
    orderings = [bfs_ordering(graph), greedy_boundary_ordering(graph, beam_width)]
    best: Optional[PathDecomposition] = None
    for ordering in orderings:
        rep = IntervalRepresentation.from_ordering(graph, ordering)
        decomposition = PathDecomposition.from_interval_representation(rep)
        if best is None or decomposition.width() < best.width():
            best = decomposition
    assert best is not None
    return best

