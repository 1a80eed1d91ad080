"""Shared CSR-backed bitset substrate for the pathwidth engines.

Both exact engines (the subset DP in :mod:`repro.pathwidth.exact` and
the branch-and-bound in :mod:`repro.pathwidth.branch_and_bound`) and the
heuristic portfolio reason about *prefix boundaries*: given a set ``S``
of placed vertices, how many of them still have a neighbor outside
``S``?  Representing ``S`` and every neighborhood as python ints makes
that a handful of word-parallel bit operations, and building the
neighborhood masks once per graph (off the immutable
:class:`~repro.graphs.csr.CSRAdjacency` snapshot) removes the per-call
mask reconstruction the old ``exact._boundary_size`` /
``heuristics._boundary_after`` helpers paid.

Dense index convention: masks use the CSR dense indices (bit ``i`` is
``graph.csr.vertices[i]``), so an index ordering converts to names by a
single tuple lookup.
"""

from __future__ import annotations

from typing import Sequence, Tuple


def neighbor_masks(graph) -> Tuple[tuple, list]:
    """Return ``(vertices, masks)`` for ``graph`` off its CSR snapshot.

    ``vertices`` is the dense-index-ordered vertex tuple and ``masks[i]``
    the bitset of dense neighbor indices of vertex ``i``.  The CSR
    snapshot is built once per graph and shared, so repeated calls cost
    one pass over the adjacency arrays each (no dict lookups).
    """
    csr = graph.csr
    indptr = csr.indptr
    neighbors = csr.neighbors
    masks = []
    for i in range(len(csr.vertices)):
        mask = 0
        for p in range(indptr[i], indptr[i + 1]):
            mask |= 1 << neighbors[p]
        masks.append(mask)
    return csr.vertices, masks


def subgraph_masks(masks: Sequence[int], members: Sequence[int]) -> list:
    """Re-index ``masks`` onto the induced subgraph of ``members``.

    ``members`` are dense indices of the parent graph (any order); the
    result uses local indices ``0..len(members)-1`` in that order, with
    edges to non-members dropped.
    """
    member_mask = 0
    for index in members:
        member_mask |= 1 << index
    local_of = {index: local for local, index in enumerate(members)}
    local_masks = []
    for index in members:
        inside = masks[index] & member_mask
        local = 0
        while inside:
            low = inside & -inside
            local |= 1 << local_of[low.bit_length() - 1]
            inside ^= low
        local_masks.append(local)
    return local_masks


def boundary_size(subset_mask: int, masks: Sequence[int]) -> int:
    """Return ``|{u in S : u has a neighbor outside S}|`` for the mask."""
    count = 0
    remaining = subset_mask
    while remaining:
        low = remaining & -remaining
        if masks[low.bit_length() - 1] & ~subset_mask:
            count += 1
        remaining ^= low
    return count


def place(placed: int, boundary: int, v: int, masks: Sequence[int]):
    """Return ``(placed', boundary')`` after appending vertex ``v``.

    Placing ``v`` retires every boundary neighbor whose last outside
    neighbor was ``v`` and adds ``v`` itself when it still has unplaced
    neighbors.
    """
    placed |= 1 << v
    retire = 0
    candidates = boundary & masks[v]
    while candidates:
        low = candidates & -candidates
        if not masks[low.bit_length() - 1] & ~placed:
            retire |= low
        candidates ^= low
    boundary &= ~retire
    if masks[v] & ~placed:
        boundary |= 1 << v
    return placed, boundary


def vertex_separation_of_order(order: Sequence[int], masks: Sequence[int]) -> int:
    """Return the vertex separation of a dense-index ordering."""
    placed = 0
    boundary = 0
    worst = 0
    for index in order:
        placed, boundary = place(placed, boundary, index, masks)
        count = bin(boundary).count("1")
        if count > worst:
            worst = count
    return worst


def iter_bits(mask: int):
    """Yield the set bit indices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
