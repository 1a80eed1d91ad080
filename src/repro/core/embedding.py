"""Embeddings of completion edges into the original graph (Definition 4.5).

Every virtual edge ``e = {u, v}`` of the completion is realized as a
``u``–``v`` path ``P_e`` in ``G``; the *congestion* is the maximum number
of such paths crossing any single edge of ``G``.  Proposition 4.6 bounds
the congestion by ``g(k)`` (weak completion) and ``h(k)`` (completion),
which is what keeps the simulated edge labels O(log n) bits in the proof
of Theorem 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.graphs import Graph, edge_key


@dataclass
class Embedding:
    """Paths realizing virtual edges inside the original graph."""

    graph: Graph  # the host graph G (real edges only)
    paths: dict = field(default_factory=dict)  # edge key -> vertex list

    def add_path(self, virtual_edge: tuple, path: list) -> None:
        """Register the embedding path for one virtual edge."""
        key = edge_key(*virtual_edge)
        if key in self.paths:
            raise ValueError(f"virtual edge {key!r} already embedded")
        self.paths[key] = list(path)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every path is a real walk between the right endpoints."""
        for (u, v), path in self.paths.items():
            if len(path) < 2:
                raise ValueError(f"path for {u!r}-{v!r} is degenerate")
            if {path[0], path[-1]} != {u, v}:
                raise ValueError(
                    f"path for {u!r}-{v!r} connects {path[0]!r}-{path[-1]!r}"
                )
            if len(set(path)) != len(path):
                raise ValueError(f"path for {u!r}-{v!r} repeats a vertex")
            for a, b in zip(path, path[1:]):
                if not self.graph.has_edge(a, b):
                    raise ValueError(
                        f"path for {u!r}-{v!r} uses missing edge {a!r}-{b!r}"
                    )

    def congestion(self) -> int:
        """Return the maximum number of paths through any one edge."""
        load: Counter = Counter()
        for path in self.paths.values():
            for a, b in zip(path, path[1:]):
                load[edge_key(a, b)] += 1
        return max(load.values(), default=0)

    def merged_with(self, other: "Embedding") -> "Embedding":
        """Return the union of two embeddings over the same host graph."""
        merged = Embedding(self.graph, dict(self.paths))
        for key, path in other.paths.items():
            if key in merged.paths:
                raise ValueError(f"virtual edge {key!r} embedded twice")
            merged.paths[key] = list(path)
        return merged

    def __len__(self) -> int:
        return len(self.paths)
