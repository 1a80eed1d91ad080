"""Certificate formats and the Lemma 6.4/6.5 prover.

Every edge of the completion ``G'`` receives an :class:`EdgeCertificate`:
the stack of per-node records along its ownership path in the hierarchy
(root T-node down to the leaf owning the edge — at most ``2w`` records by
Observation 5.5).  Each record carries the node's *basic information*
``B(N)`` (Definition 6.3: lane set, homomorphism class, terminal
identifiers), and kind-specific payload:

* **T records** add the owning member's ``B(M')``, the member-subtree
  class ``B(Tree-merge(T_{M'}))``, the child-subtree classes (one per
  internal child — at most ``w`` because siblings use disjoint lanes),
  and the Proposition 2.2 pointer record certifying the root member's
  existence;
* **B records** add both children's basic infos, the bridge lane pair,
  and which side of the bridge this edge lies on;
* **E/P records** add the leaf's full (constant-size) topology, from
  which the verifier recomputes the leaf class from scratch.

Physical labels live on the *real* edges of ``G``: each carries its own
certificate plus the embedded records of the virtual edges routed through
it (endpoint identifiers, forward/backward ranks, and the virtual edge's
full certificate — congestion is O(1) by Proposition 4.6, so this stays
O(log n)).

Homomorphism classes are shipped as algebra states (finite domain for
fixed property and lanewidth) and *charged* as ``ceil(log2 |C|)``-bit
indices via the :class:`ClassIndexer` — see DESIGN.md's accounting note.

The size formulas at the bottom of this module are the *accounted*
figures (arithmetic over field widths).  Since the wire codec landed,
the ground truth is the actual encoding: :mod:`repro.codec` serializes
every :class:`Theorem1Label` to bits per ``docs/FORMAT.md``, reports
quote those measured lengths, and the tier-1 suite asserts
measured ≤ accounted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.core.embedding import Embedding
from repro.core.hierarchy import (
    HierarchyEvaluation,
    HierarchyNode,
    NodeEvaluation,
    canonical_boundary,
)
from repro.courcelle.boundary import REAL, VIRTUAL
from repro.graphs import edge_key
from repro.pls.bits import ClassIndexer, SizeContext
from repro.pls.model import Configuration
from repro.pls.pointer import PointerLabel


# ----------------------------------------------------------------------
# Label data types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BasicInfo:
    """B(N): lane set, homomorphism class, terminal identifiers."""

    kind: str
    node_id: int
    lanes: tuple
    in_ids: tuple  # ((lane, vertex id), ...) sorted by lane
    out_ids: tuple
    state: object  # the algebra state (the homomorphism class)

    def in_id(self, lane: int):
        for l, x in self.in_ids:
            if l == lane:
                return x
        return None

    def out_id(self, lane: int):
        for l, x in self.out_ids:
            if l == lane:
                return x
        return None

    @cached_property
    def boundary_ids(self) -> tuple:
        """Canonical boundary as identifiers (the paper's ξ order).

        Cached: the verifier's hierarchy walk asks for this repeatedly
        per record, and the fields it derives from are frozen.
        (``cached_property`` writes to ``__dict__`` directly, so the
        frozen-dataclass ``__setattr__`` guard is not in play; equality
        and hashing still cover only the declared fields.)
        """
        ids = []
        for lane in self.lanes:
            for x in (self.in_id(lane), self.out_id(lane)):
                if x not in ids:
                    ids.append(x)
        return tuple(ids)


@dataclass(frozen=True)
class TLevelRecord:
    """One edge's record for a T-node on its ownership path."""

    info: BasicInfo  # the T-node itself
    member_info: BasicInfo  # the member owning this edge
    member_subtree: BasicInfo  # B(Tree-merge(T_{member}))
    child_subtrees: tuple  # BasicInfo per internal child of the member
    pointer: PointerLabel  # Prop 2.2 within the T-node's subgraph
    root_member_id: int  # node id of the internal root member


@dataclass(frozen=True)
class BLevelRecord:
    """One edge's record for a B-node on its ownership path."""

    info: BasicInfo
    left: BasicInfo
    right: BasicInfo
    bridge: tuple  # (lane_i, lane_j)
    bridge_tag: object
    side: int  # 0 = inside left child, 1 = inside right child, -1 = bridge edge


@dataclass(frozen=True)
class ELevelRecord:
    """Leaf record: a single-edge node (full topology included)."""

    info: BasicInfo
    in_id: int
    out_id: int
    tag: object


@dataclass(frozen=True)
class PLevelRecord:
    """Leaf record: the initial-path node (full topology included)."""

    info: BasicInfo
    vertex_ids: tuple
    tags: tuple
    position: int  # this edge joins path positions (position, position+1)


@dataclass(frozen=True)
class EdgeCertificate:
    """The ownership-path stack for one edge of G'."""

    stack: tuple  # root-first records


@dataclass(frozen=True)
class EmbeddedRecord:
    """A virtual edge's certificate carried on one real edge of its path."""

    u_id: int
    v_id: int
    forward: int  # 1-based rank of this real edge along the path
    backward: int  # path_length + 1 - forward
    payload: EdgeCertificate


@dataclass(frozen=True)
class Theorem1Label:
    """The physical label on one real edge of G."""

    certificate: EdgeCertificate
    embedded: tuple = ()  # EmbeddedRecord per virtual edge routed here


# ----------------------------------------------------------------------
# The prover
# ----------------------------------------------------------------------
class CertificateBuilder:
    """Assigns Lemma 6.4/6.5 certificates for one proven hierarchy."""

    def __init__(
        self,
        config: Configuration,
        root: HierarchyNode,
        evaluation: HierarchyEvaluation,
        indexer: Optional[ClassIndexer] = None,
    ):
        self.config = config
        self.ids = config.ids
        self.root = root
        self.evaluation = evaluation
        self.indexer = indexer or ClassIndexer()
        self.algebra = evaluation.algebra
        # Identity-keyed fingerprint cache for one build: evaluations
        # hand back shared state objects, and hashing the canonical form
        # dominates ``basic_info`` without it.  Values hold the state,
        # so ids cannot be reused while the builder lives.
        self._fingerprints: dict = {}
        # node_id -> B(N), and member node_id -> B(Tree-merge(T_member)):
        # one object per hierarchy node and per member subtree, shared by
        # every record that carries it, so the encoder and the compiler's
        # id()-keyed memos see each once.
        self._node_infos: dict = {}
        self._subtree_infos: dict = {}

    def _class_of(self, state) -> None:
        hit = self._fingerprints.get(id(state))
        if hit is None:
            hit = (state, self.algebra.state_fingerprint(state))
            self._fingerprints[id(state)] = hit
        self.indexer.index_of(hit[1])

    # ------------------------------------------------------------------
    def basic_info(self, node: HierarchyNode, evaluation: NodeEvaluation) -> BasicInfo:
        state = evaluation.state
        self._class_of(state)
        return BasicInfo(
            kind=node.kind,
            node_id=node.node_id,
            lanes=tuple(sorted(evaluation.lanes)),
            in_ids=tuple(
                (lane, self.ids[evaluation.t_in[lane]])
                for lane in sorted(evaluation.lanes)
            ),
            out_ids=tuple(
                (lane, self.ids[evaluation.t_out[lane]])
                for lane in sorted(evaluation.lanes)
            ),
            state=state,
        )

    def node_info(self, node: HierarchyNode) -> BasicInfo:
        info = self._node_infos.get(node.node_id)
        if info is None:
            info = self.basic_info(node, self.evaluation.for_node(node))
            self._node_infos[node.node_id] = info
        return info

    def subtree_info(self, t_node: HierarchyNode, member: HierarchyNode) -> BasicInfo:
        info = self._subtree_infos.get(member.node_id)
        if info is not None:
            return info
        sub = self.evaluation.for_subtree(member)
        info = BasicInfo(
            kind="T",
            node_id=member.node_id,
            lanes=tuple(sorted(sub.lanes)),
            in_ids=tuple(
                (lane, self.ids[sub.t_in[lane]]) for lane in sorted(sub.lanes)
            ),
            out_ids=tuple(
                (lane, self.ids[sub.t_out[lane]]) for lane in sorted(sub.lanes)
            ),
            state=sub.state,
        )
        self._class_of(sub.state)
        self._subtree_infos[member.node_id] = info
        return info

    # ------------------------------------------------------------------
    def edge_certificates(self) -> dict:
        """Return ``edge key -> EdgeCertificate`` for every edge of G'."""
        certificates: dict = {}
        self._assign(self.root, (), certificates)
        return certificates

    def _assign(self, node: HierarchyNode, stack: tuple, certificates: dict) -> None:
        if node.kind == "E":
            u, v = node.edge
            record = ELevelRecord(
                info=self.node_info(node),
                in_id=self.ids[u],
                out_id=self.ids[v],
                tag=node.edge_tag,
            )
            certificates[edge_key(u, v)] = EdgeCertificate(stack + (record,))
            return
        if node.kind == "P":
            info = self.node_info(node)
            ids = tuple(self.ids[v] for v in node.path_vertices)
            for position, (a, b) in enumerate(
                zip(node.path_vertices, node.path_vertices[1:])
            ):
                record = PLevelRecord(
                    info=info,
                    vertex_ids=ids,
                    tags=tuple(node.path_tags),
                    position=position,
                )
                certificates[edge_key(a, b)] = EdgeCertificate(stack + (record,))
            return
        if node.kind == "V":
            return  # owns no edges
        if node.kind == "B":
            info = self.node_info(node)
            left, right = node.children
            left_info = self.node_info(left)
            right_info = self.node_info(right)
            i, j = node.bridge
            bridge_edge = edge_key(left.t_out[i], right.t_out[j])
            base = dict(
                info=info,
                left=left_info,
                right=right_info,
                bridge=(i, j),
                bridge_tag=node.bridge_tag,
            )
            certificates[bridge_edge] = EdgeCertificate(
                stack + (BLevelRecord(side=-1, **base),)
            )
            self._assign(left, stack + (BLevelRecord(side=0, **base),), certificates)
            self._assign(right, stack + (BLevelRecord(side=1, **base),), certificates)
            return
        if node.kind == "T":
            info = self.node_info(node)
            root_member_id = node.children[node.root_member].node_id
            pointer_by_edge = self._pointer_labels(node)
            internal_children: dict = {
                index: [] for index in range(len(node.children))
            }
            for index, parent in node.member_parent.items():
                if parent is not None:
                    internal_children[parent].append(index)
            for index, member in enumerate(node.children):
                child_infos = tuple(
                    self.subtree_info(node, node.children[c])
                    for c in sorted(internal_children[index])
                )
                member_record_base = dict(
                    info=info,
                    member_info=self.node_info(member),
                    member_subtree=self.subtree_info(node, member),
                    child_subtrees=child_infos,
                    root_member_id=root_member_id,
                )
                member_certs: dict = {}
                self._assign(member, (), member_certs)
                for key, cert in member_certs.items():
                    record = TLevelRecord(
                        pointer=pointer_by_edge[key], **member_record_base
                    )
                    certificates[key] = EdgeCertificate(
                        stack + (record,) + cert.stack
                    )
            return
        raise ValueError(f"unknown node kind {node.kind!r}")

    def _pointer_labels(self, t_node: HierarchyNode) -> dict:
        """Prop 2.2 labels over the T-node's subgraph, rooted in the root
        member (certifying that the internal root exists).

        One BFS over the node's own edge list: the subgraph is connected
        (Section 5.3), and its edges come as distinct canonical keys.
        """
        edges = [key for key, _tag in t_node.all_edges()]
        adjacency: dict = {}
        for u, v in edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        root_member = t_node.children[t_node.root_member]
        target = root_member.t_in[min(root_member.lanes)]
        distances = {target: 0}
        frontier = [target]
        while frontier:
            reached = []
            for u in frontier:
                step = distances[u] + 1
                for w in adjacency.get(u, ()):
                    if w not in distances:
                        distances[w] = step
                        reached.append(w)
            frontier = reached
        ids = self.ids
        target_id = ids[target]
        return {
            (u, v): PointerLabel(
                target_id=target_id,
                id_a=ids[u],
                dist_a=distances[u],
                id_b=ids[v],
                dist_b=distances[v],
            )
            for u, v in edges
        }

    # ------------------------------------------------------------------
    def physical_labels(self, embedding: Embedding) -> dict:
        """Attach virtual-edge certificates along their embedding paths.

        Returns ``real edge key -> Theorem1Label``.  Real edges missing
        from ``certificates`` cannot happen (every real edge is in G').
        """
        certificates = self.edge_certificates()
        virtual_keys = set(embedding.paths)
        # Pass 1 — materialize each path's records in one sweep (they
        # share u_id/v_id/payload; only the rank pair varies), then
        # bucket them under their carrier edges.
        embedded: dict = {}
        for key, path in embedding.paths.items():
            payload = certificates[key]
            u_id = self.ids[path[0]]
            v_id = self.ids[path[-1]]
            length = len(path) - 1
            records = [
                EmbeddedRecord(
                    u_id=u_id,
                    v_id=v_id,
                    forward=rank,
                    backward=length + 1 - rank,
                    payload=payload,
                )
                for rank in range(1, length + 1)
            ]
            for record, a, b in zip(records, path, path[1:]):
                carrier = edge_key(a, b)
                bucket = embedded.get(carrier)
                if bucket is None:
                    embedded[carrier] = [record]
                else:
                    bucket.append(record)
        # Pass 2 — assemble the whole mapping in one comprehension;
        # edges without embedded traffic share a single empty tuple.
        # Virtual edges have no physical carrier of their own.
        empty: tuple = ()
        return {
            key: Theorem1Label(
                certificate=certificate,
                embedded=(
                    tuple(embedded[key]) if key in embedded else empty
                ),
            )
            for key, certificate in certificates.items()
            if key not in virtual_keys
        }


# ----------------------------------------------------------------------
# Size accounting
# ----------------------------------------------------------------------
_KIND_BITS = 3


def basic_info_bits(info: BasicInfo, ctx: SizeContext, width: int) -> int:
    """Encoded size of one B(N) record."""
    terminal_fields = len(info.in_ids) + len(info.out_ids)
    return (
        _KIND_BITS
        + ctx.counter_bits  # node id
        + width  # lane bitmask
        + terminal_fields * ctx.id_bits
        + ctx.class_bits  # homomorphism class index
    )


def record_bits(record, ctx: SizeContext, width: int, memo=None) -> int:
    """Encoded size of one ownership-path record.

    ``memo`` (optional) is an identity-keyed cache for one accounting
    pass: prover stages share record objects across many stacks, so a
    labeling-wide walk sizes each unique record once.  Values keep a
    strong reference to their key object, so ``id`` reuse cannot alias.
    """
    if memo is not None:
        key = (id(record), width)
        hit = memo.get(key)
        if hit is None:
            hit = (record, _record_bits_direct(record, ctx, width))
            memo[key] = hit
        return hit[1]
    return _record_bits_direct(record, ctx, width)


def _record_bits_direct(record, ctx: SizeContext, width: int) -> int:
    if isinstance(record, TLevelRecord):
        total = basic_info_bits(record.info, ctx, width)
        total += basic_info_bits(record.member_info, ctx, width)
        total += basic_info_bits(record.member_subtree, ctx, width)
        for child in record.child_subtrees:
            total += basic_info_bits(child, ctx, width)
        total += 3 * ctx.id_bits + 2 * ctx.counter_bits  # pointer record
        return total
    if isinstance(record, BLevelRecord):
        total = basic_info_bits(record.info, ctx, width)
        total += basic_info_bits(record.left, ctx, width)
        total += basic_info_bits(record.right, ctx, width)
        total += 2 * width.bit_length() + 2 + 2  # bridge lanes, tag, side
        return total
    if isinstance(record, ELevelRecord):
        return (
            basic_info_bits(record.info, ctx, width) + 2 * ctx.id_bits + 2
        )
    if isinstance(record, PLevelRecord):
        return (
            basic_info_bits(record.info, ctx, width)
            + len(record.vertex_ids) * ctx.id_bits
            + len(record.tags) * 2
            + ctx.counter_bits  # position
        )
    raise TypeError(f"unknown record type {type(record).__name__}")


def certificate_bits(
    cert: EdgeCertificate, ctx: SizeContext, width: int, memo=None
) -> int:
    """Encoded size of one edge certificate."""
    if memo is not None:
        key = (id(cert), width)
        hit = memo.get(key)
        if hit is None:
            hit = (
                cert,
                sum(
                    record_bits(record, ctx, width, memo)
                    for record in cert.stack
                ),
            )
            memo[key] = hit
        return hit[1]
    return sum(record_bits(record, ctx, width) for record in cert.stack)


def label_bits(
    label: Theorem1Label, ctx: SizeContext, width: int, memo=None
) -> int:
    """Encoded size of one physical label (certificate + embeddings)."""
    total = certificate_bits(label.certificate, ctx, width, memo)
    for record in label.embedded:
        total += 2 * ctx.id_bits + 2 * ctx.counter_bits
        total += certificate_bits(record.payload, ctx, width, memo)
    return total


def accounted_label_bits(label, ctx: SizeContext, memo=None) -> int:
    """:func:`label_bits` at the label's own width; a non-label (what an
    attack may leave on an edge) is accounted as one identifier."""
    if not isinstance(label, Theorem1Label):
        return ctx.id_bits
    width = len(label.certificate.stack[0].info.lanes)
    return label_bits(label, ctx, width, memo)
