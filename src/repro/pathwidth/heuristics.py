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
  :data:`BEAM_WIDTH` best partial orderings per step.
"""

from __future__ import annotations

from repro.graphs import Graph
from repro.pathwidth.bitsets import neighbor_masks
from repro.pathwidth.interval import IntervalRepresentation
from repro.pathwidth.path_decomposition import PathDecomposition

#: Partial orderings :func:`greedy_boundary_ordering` keeps per step.
BEAM_WIDTH = 4

#: Candidates of one beam entry that can survive the set dedup: each
#: other entry duplicates at most one of its extended sets.
_SPAN = 2 * BEAM_WIDTH - 1


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


def greedy_boundary_ordering(graph: Graph) -> list:
    """Return an ordering via beam-searched greedy boundary minimization.

    Every step extends each kept partial ordering by each vertex of its
    frontier (by every unplaced vertex when the frontier is empty) and
    keeps the :data:`BEAM_WIDTH` extensions of least running maximum
    boundary, at most one per placed set, ties broken by the extended
    orderings' lexicographic order.

    A beam entry carries its placed set ``S``, boundary count, frontier
    ``N(S) \\ S``, a link to its parent entry and its lexicographic rank
    among the kept entries, so a candidate ``v`` is scored from ``N(v)``
    alone (the Coudert–Mazauric–Nisse ``vsep_updated`` rule): with
    ``S' = S ∪ {v}``, ``v`` joins the boundary when ``N(v) ⊄ S'`` and
    every ``u ∈ N(v) ∩ S`` with ``N(u) ⊆ S'`` leaves it.  Kept entries
    have distinct orderings of equal length, so comparing two extended
    orderings is comparing ``(parent rank, v)``; the ordering itself is
    read back from the links once, at the end.

    An empty frontier means a disconnected remainder and a boundary of
    0, so every unplaced ``v`` scores ``[N(v) ≠ ∅]`` and equal scores go
    by index.  Another entry can duplicate at most one of this entry's
    extended sets, so at most the first ``2·BEAM_WIDTH − 1`` of its
    candidates can be kept: only the lowest that many isolated and
    non-isolated unplaced vertices are scored.
    """
    if graph.n == 0:
        return []
    vertices, masks = neighbor_masks(graph)
    full = (1 << graph.n) - 1
    isolated = sum(1 << v for v, mask in enumerate(masks) if not mask)
    linked = full ^ isolated
    first = graph.csr.index[min(vertices, key=graph.degree)]
    # links[i] = (vertex, index of the parent's link); beams are in rank
    # order, each (worst boundary so far, placed, boundary, frontier, link).
    links = [(first, -1)]
    beams = [(0, 1 << first, 1 if masks[first] else 0, masks[first], 0)]
    for _ in range(graph.n - 1):
        candidates = []
        for rank, (worst, placed, boundary, frontier, _link) in enumerate(beams):
            unplaced = full ^ placed
            scan = frontier or (
                _lowest_bits(unplaced & isolated, _SPAN)
                | _lowest_bits(unplaced & linked, _SPAN)
            )
            while scan:
                low = scan & -scan
                scan ^= low
                v = low.bit_length() - 1
                count = boundary + 1 if masks[v] & unplaced else boundary
                near = masks[v] & placed
                while near:
                    bit = near & -near
                    near ^= bit
                    if masks[bit.bit_length() - 1] & unplaced == low:
                        count -= 1
                candidates.append((count if count > worst else worst, rank, v, count))
        candidates.sort()
        kept = []
        seen_sets = set()
        for worst, rank, v, count in candidates:
            placed = beams[rank][1] | (1 << v)
            if placed in seen_sets:
                continue
            seen_sets.add(placed)
            kept.append((rank, v, worst, placed, count))
            if len(kept) == BEAM_WIDTH:
                break
        kept.sort()  # (parent rank, v): the extended orderings' lex order
        next_beams = []
        for rank, v, worst, placed, count in kept:
            parent = beams[rank]
            frontier = (parent[3] | masks[v]) & (full ^ placed)
            next_beams.append((worst, placed, count, frontier, len(links)))
            links.append((v, parent[4]))
        beams = next_beams
    # Every extension of the last step places the whole vertex set, so
    # the set dedup leaves exactly one entry: the best.
    link = beams[0][4]
    order = []
    while link >= 0:
        v, link = links[link]
        order.append(vertices[v])
    order.reverse()
    return order


def _lowest_bits(mask: int, count: int) -> int:
    """Return the ``count`` lowest set bits of ``mask`` (all, if fewer)."""
    kept = 0
    while mask and count:
        low = mask & -mask
        kept |= low
        mask ^= low
        count -= 1
    return kept


def heuristic_path_decomposition(graph: Graph) -> PathDecomposition:
    """Return the best decomposition found by the heuristic portfolio.

    The BFS and greedy orderings are compared by the width of their
    interval representations (decomposition width + 1), BFS winning
    ties, and only the winner is turned into bags.
    """
    if graph.n == 0:
        return PathDecomposition(graph, [], validate=False)
    reps = [
        IntervalRepresentation.from_ordering(graph, ordering)
        for ordering in (bfs_ordering(graph), greedy_boundary_ordering(graph))
    ]
    best = min(reps, key=IntervalRepresentation.width)
    return PathDecomposition.from_interval_representation(best)
