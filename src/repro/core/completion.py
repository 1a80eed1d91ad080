"""Completions and weak completions (Definition 4.4).

Given ``(G, I, P)`` — a graph, its interval representation, and a lane
partition — the *weak completion* adds the edges ``E1`` turning every
lane into a path, and the *completion* further adds ``E2`` joining the
initial vertices of consecutive lanes into a path.  Added edges are
tagged :data:`VIRTUAL`; original edges are tagged :data:`REAL` — the tag
is exactly the ``E ⊆ E'`` input-label trick in the proof of Theorem 1.

Edges of ``E1``/``E2`` that already exist in ``G`` stay real: the
completion is a supergraph, and an existing real edge already provides
the required adjacency (the construction sequence of Proposition 5.2
treats it by its completion role, while the MSO layer sees its real tag).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.courcelle.boundary import REAL, VIRTUAL
from repro.graphs import Graph, edge_key
from repro.core.lanes import KLanePartition


@dataclass
class CompletionResult:
    """The completion ``G' = (V, E ∪ E1 ∪ E2)`` with tagged edges."""

    graph: Graph  # the completion G' (edge labels: REAL / VIRTUAL)
    lane_partition: KLanePartition
    e1: list = field(default_factory=list)  # in-lane path edges
    e2: list = field(default_factory=list)  # lane-head path edges

    def real_subgraph(self) -> Graph:
        """Return the original graph ``(V, E)`` (real edges only)."""
        real = [
            key for key in self.graph.edges() if self.graph.edge_label(*key) == REAL
        ]
        return self.graph.edge_subgraph(real)


def build_completion(
    graph: Graph, partition: KLanePartition, weak: bool = False
) -> CompletionResult:
    """Return the (weak) completion of ``(G, I, P)`` per Definition 4.4."""
    completion = graph.copy()
    for u, v in completion.edges():
        completion.set_edge_label(u, v, REAL)

    e1 = []
    for lane in partition.lanes:
        for a, b in zip(lane, lane[1:]):
            key = edge_key(a, b)
            e1.append(key)
            if not completion.has_edge(*key):
                completion.add_edge(*key)
                completion.set_edge_label(*key, VIRTUAL)

    e2 = []
    if not weak:
        heads = partition.heads()
        for a, b in zip(heads, heads[1:]):
            key = edge_key(a, b)
            e2.append(key)
            if not completion.has_edge(*key):
                completion.add_edge(*key)
                completion.set_edge_label(*key, VIRTUAL)

    return CompletionResult(
        graph=completion, lane_partition=partition, e1=e1, e2=e2
    )
