"""Proposition 2.2: certifying the existence of a designated vertex.

The paper's folklore scheme selects a spanning tree rooted at the vertex
with identifier ``x`` and labels every edge with ``x`` plus distance
information.  We implement the robust variant in which each edge carries
*both* endpoint records ``(id, dist)``: with only the min-distance on the
edge, a vertex with several neighbors at distance ``d-1`` (possible once
non-tree edges are labeled with graph distances) could not run the
exactly-one-parent test.  Carrying both records is still O(log n) bits and
makes the descent argument airtight:

* every vertex checks that each incident edge holds a record with its own
  identifier, all agreeing on one value ``d(v)``;
* the designated vertex checks ``d = 0``; every other vertex checks
  ``d > 0`` and that some incident edge's other record has distance
  ``d - 1``;
* soundness: following strictly decreasing distances from any vertex must
  reach a vertex with ``d = 0``, which accepts only if its identifier is
  ``x`` — so acceptance everywhere implies the designated vertex exists.

``PointerScheme`` is both a standalone edge-labeled PLS and the
sub-certificate embedded in the Theorem 1 labels (Lemma 6.5 applies it
inside B-node and T-node subgraphs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs import edge_key
from repro.pls.bits import SizeContext
from repro.pls.model import Configuration, LocalView
from repro.pls.scheme import Labeling, ProofLabelingScheme, ProverFailure


@dataclass(frozen=True)
class PointerLabel:
    """One edge's pointer certificate: target id + both endpoint records."""

    target_id: int
    id_a: int
    dist_a: int
    id_b: int
    dist_b: int

    def record_for(self, identifier: int):
        """Return this edge's distance record for the given endpoint id."""
        if identifier == self.id_a:
            return self.dist_a
        if identifier == self.id_b:
            return self.dist_b
        return None

    def other_record(self, identifier: int):
        """Return the other endpoint's ``(id, dist)`` record."""
        if identifier == self.id_a:
            return (self.id_b, self.dist_b)
        if identifier == self.id_b:
            return (self.id_a, self.dist_a)
        return None


def pointer_labels(config: Configuration, root) -> dict:
    """Return the honest pointer labeling rooted at ``root`` (edge keys)."""
    distances = config.graph.distances_from(root)
    if len(distances) != config.graph.n:
        raise ProverFailure("pointer scheme needs a connected graph")
    target = config.ids[root]
    labels = {}
    for u, v in config.graph.edges():
        labels[edge_key(u, v)] = PointerLabel(
            target_id=target,
            id_a=config.ids[u],
            dist_a=distances[u],
            id_b=config.ids[v],
            dist_b=distances[v],
        )
    return labels


def verify_pointer_ports(identifier: int, labels: list) -> bool:
    """Run the local pointer checks for one vertex given its edge labels.

    Exposed as a function so composite schemes (Lemma 6.5) can reuse it on
    embedded sub-certificates.  One pass over the labels reads each
    one's target, own distance and other distance; the checks then run
    in this order: every label is a :class:`PointerLabel`, one target,
    one own distance, the target test, and only then the parent test.
    """
    if not labels:
        return False  # an isolated vertex cannot certify connectivity
    targets, own, others = [], [], []
    for label in labels:
        if not isinstance(label, PointerLabel):
            return False
        targets.append(label.target_id)
        if identifier == label.id_a:
            own.append(label.dist_a)
            others.append(label.dist_b)
        elif identifier == label.id_b:
            own.append(label.dist_b)
            others.append(label.dist_a)
        else:
            own.append(None)  # not an endpoint: rejected below
    # Set semantics, so a target or distance that cannot be hashed
    # raises here, and equal values of two types count as one.
    if len(set(targets)) != 1:
        return False
    distances = set(own)
    if None in distances or len(distances) != 1:
        return False
    d = own[0]
    if identifier == targets[0]:
        return d == 0
    if d == 0:
        return False  # distance 0 is reserved for the designated vertex
    return any(rec == d - 1 for rec in others)


class PointerScheme(ProofLabelingScheme):
    """Standalone PLS: "a vertex with identifier ``x`` exists".

    The designated vertex is chosen as the one with the minimum identifier
    when ``target_id`` is not given (the predicate is parameterized by
    ``x`` in the paper; experiments fix it from the configuration).
    """

    label_location = "edges"

    def __init__(self, target_id=None):
        self.target_id = target_id

    def prove(self, config: Configuration) -> Labeling:
        if self.target_id is None:
            root = min(config.ids, key=config.ids.get)
        else:
            root = config.vertex_of_id(self.target_id)
        mapping = pointer_labels(config, root)
        return Labeling(
            location="edges",
            mapping=mapping,
            size_context=SizeContext(config.n),
        )

    def verify(self, view: LocalView) -> bool:
        labels = [port.certificate for port in view.ports]
        return verify_pointer_ports(view.identifier, labels)

    def label_size_bits(self, label, ctx: SizeContext) -> int:
        # target + two (id, dist) records.
        return 3 * ctx.id_bits + 2 * ctx.counter_bits

