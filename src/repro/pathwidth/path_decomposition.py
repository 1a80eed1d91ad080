"""Path decompositions (Definition 1.1) and conversions.

A path decomposition of ``G`` is a bag sequence ``(X_1, ..., X_s)`` such
that (P1) every edge lies inside some bag and (P2) for ``i <= j <= k``,
``X_i ∩ X_k ⊆ X_j``.  Its width is ``max |X_i| - 1``; the pathwidth of
``G`` is the minimum width over decompositions.

(P2) is equivalent to: every vertex's bag indices form a contiguous
interval — which is exactly how a path decomposition becomes an
:class:`repro.pathwidth.IntervalRepresentation` of width ``pw + 1``.
"""

from __future__ import annotations

from repro.graphs import Graph
from repro.pathwidth.interval import IntervalRepresentation


class PathDecomposition:
    """A validated path decomposition.

    Parameters
    ----------
    graph:
        The decomposed graph.
    bags:
        A sequence of vertex collections.
    validate:
        When true (default), verify (P1) and (P2).
    """

    def __init__(self, graph: Graph, bags, validate: bool = True) -> None:
        self.graph = graph
        self.bags = [sorted(set(bag)) for bag in bags]
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` unless (P1) and (P2) hold and all vertices appear."""
        seen: dict = {}
        for index, bag in enumerate(self.bags):
            for v in bag:
                if v not in self.graph:
                    raise ValueError(f"bag vertex {v!r} not in graph")
                seen.setdefault(v, []).append(index)
        missing = set(self.graph.vertices()) - set(seen)
        if missing:
            raise ValueError(f"vertices missing from all bags: {sorted(missing)!r}")
        # (P2): occurrences of each vertex are contiguous.
        for v, indices in seen.items():
            if indices[-1] - indices[0] + 1 != len(indices):
                raise ValueError(f"vertex {v!r} occurs in non-contiguous bags {indices}")
        # (P1): every edge inside some bag.  By (P2) each vertex occupies
        # the bag-index interval [first, last], so an edge lies inside a
        # bag exactly when its endpoints' intervals overlap.
        for u, v in self.graph.edges():
            at_u = seen[u]
            at_v = seen[v]
            if max(at_u[0], at_v[0]) > min(at_u[-1], at_v[-1]):
                raise ValueError(f"edge {u!r}-{v!r} not covered by any bag")

    # ------------------------------------------------------------------
    def width(self) -> int:
        """Return ``max |X_i| - 1`` (the width of the decomposition)."""
        if not self.bags:
            return -1
        return max(len(bag) for bag in self.bags) - 1

    def __len__(self) -> int:
        return len(self.bags)

    def __repr__(self) -> str:
        return f"PathDecomposition(bags={len(self.bags)}, width={self.width()})"

    # ------------------------------------------------------------------
    def to_interval_representation(self) -> IntervalRepresentation:
        """Return the equivalent interval representation.

        Vertex ``v`` receives the interval ``[first bag index, last bag
        index]`` of its occurrences; the width of the representation equals
        ``self.width() + 1``.
        """
        first: dict = {}
        last: dict = {}
        for index, bag in enumerate(self.bags):
            for v in bag:
                first.setdefault(v, index)
                last[v] = index
        intervals = {v: (first[v], last[v]) for v in first}
        return IntervalRepresentation(self.graph, intervals)

    @classmethod
    def from_interval_representation(
        cls, rep: IntervalRepresentation
    ) -> "PathDecomposition":
        """Return the bag form of an interval representation.

        Bag ``X_p`` (for each integer point ``p`` in the span) holds the
        vertices whose interval covers ``p``; empty bags are dropped.  One
        sweep over the points keeps the covering set, adding intervals at
        their left end and dropping them after their right end, so the
        cost is O(span + n + total bag size).
        """
        if not rep.intervals:
            return cls(rep.graph, [], validate=False)
        lo, hi = rep.span()
        opening: dict = {}
        closing: dict = {}
        for v, (left, right) in rep.intervals.items():
            opening.setdefault(left, []).append(v)
            closing.setdefault(right, []).append(v)
        active: set = set()
        bags = []
        for p in range(lo, hi + 1):
            active.update(opening.get(p, ()))
            if active:
                bags.append(list(active))
            active.difference_update(closing.get(p, ()))
        return cls(rep.graph, bags)

    @classmethod
    def trivial(cls, graph: Graph) -> "PathDecomposition":
        """Return the one-bag decomposition (width ``n - 1``)."""
        return cls(graph, [graph.vertices()])
