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

The prover (:class:`CertificateBuilder`) writes these labels as integer
rows of a :class:`~repro.codec.table.RecordTable`, and so does the wire
decoder.  The dataclasses below are what that table materializes when
something reads a label, and what the reference verifier reads.

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

from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Optional

from repro.core.embedding import Embedding
from repro.core.hierarchy import (
    HierarchyEvaluation,
    HierarchyNode,
    NodeEvaluation,
)
from repro.graphs import edge_key
from repro.pls.bits import ClassIndexer, SizeContext
from repro.pls.model import Configuration
from repro.pls.pointer import PointerLabel


# ----------------------------------------------------------------------
# Label data types
# ----------------------------------------------------------------------
def dict_init(cls):
    """Give a frozen dataclass an ``__init__`` that writes each field
    straight into ``__dict__``.

    The generated frozen ``__init__`` goes through ``object.__setattr__``
    once per field, which costs more than the write itself, and label
    values are built by the thousand per labeling.  The new one takes
    the same parameters and defaults, so every caller and
    ``dataclasses.replace`` build through it unchanged.
    """
    params, lines, namespace = [], ["    d = self.__dict__"], {}
    for field in fields(cls):
        if field.default is MISSING:
            params.append(field.name)
        else:
            namespace[f"_default_{field.name}"] = field.default
            params.append(f"{field.name}=_default_{field.name}")
        lines.append(f"    d[{field.name!r}] = {field.name}")
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(lines)
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


def _label_value(cls):
    """A frozen dataclass that hashes its fields once per object.

    A round hashes and compares the same shared label objects many
    times: memo keys, root sets, embedded-record groups.  The generated
    ``__hash__`` walks every field each time; here its value is kept on
    the object after the first call, and an object equals itself without
    a field walk.  Both give the generated methods' values.  The kept
    hash never enters a pickle or a copy: a string field hashes
    differently in another process, so ``__getstate__`` holds the
    fields alone.  Objects are built through :func:`dict_init`.
    """
    cls = dict_init(dataclass(frozen=True)(cls))
    field_hash, field_eq = cls.__hash__, cls.__eq__
    names = tuple(f.name for f in fields(cls))

    def __hash__(self):
        value = self._hash
        if value is None:
            value = self.__dict__["_hash"] = field_hash(self)
        return value

    def __eq__(self, other):
        return self is other or field_eq(self, other)

    def __getstate__(self):
        state = self.__dict__
        return {name: state[name] for name in names}

    cls._hash = None  # set after the dataclass pass, so not a field
    cls.__hash__, cls.__eq__, cls.__getstate__ = __hash__, __eq__, __getstate__
    return cls


@_label_value
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
        frozen-dataclass ``__setattr__`` guard is not in play; equality,
        hashing and pickles cover only the declared fields.)
        """
        ids = []
        for lane in self.lanes:
            for x in (self.in_id(lane), self.out_id(lane)):
                if x not in ids:
                    ids.append(x)
        return tuple(ids)


@_label_value
class TLevelRecord:
    """One edge's record for a T-node on its ownership path."""

    info: BasicInfo  # the T-node itself
    member_info: BasicInfo  # the member owning this edge
    member_subtree: BasicInfo  # B(Tree-merge(T_{member}))
    child_subtrees: tuple  # BasicInfo per internal child of the member
    pointer: PointerLabel  # Prop 2.2 within the T-node's subgraph
    root_member_id: int  # node id of the internal root member


@_label_value
class BLevelRecord:
    """One edge's record for a B-node on its ownership path."""

    info: BasicInfo
    left: BasicInfo
    right: BasicInfo
    bridge: tuple  # (lane_i, lane_j)
    bridge_tag: object
    side: int  # 0 = inside left child, 1 = inside right child, -1 = bridge edge


@_label_value
class ELevelRecord:
    """Leaf record: a single-edge node (full topology included)."""

    info: BasicInfo
    in_id: int
    out_id: int
    tag: object


@_label_value
class PLevelRecord:
    """Leaf record: the initial-path node (full topology included)."""

    info: BasicInfo
    vertex_ids: tuple
    tags: tuple
    position: int  # this edge joins path positions (position, position+1)


@_label_value
class EdgeCertificate:
    """The ownership-path stack for one edge of G'."""

    stack: tuple  # root-first records


@_label_value
class EmbeddedRecord:
    """A virtual edge's certificate carried on one real edge of its path."""

    u_id: int
    v_id: int
    forward: int  # 1-based rank of this real edge along the path
    backward: int  # path_length + 1 - forward
    payload: EdgeCertificate


@_label_value
class Theorem1Label:
    """The physical label on one real edge of G."""

    certificate: EdgeCertificate
    embedded: tuple = ()  # EmbeddedRecord per virtual edge routed here


# ----------------------------------------------------------------------
# The prover
# ----------------------------------------------------------------------
class CertificateBuilder:
    """Writes the Lemma 6.4/6.5 certificates of one proven hierarchy.

    :meth:`record_table` walks the hierarchy once and writes every
    physical label of G straight into a
    :class:`~repro.codec.table.RecordTable`: one info row per hierarchy
    node and per member subtree, one record row per node and role, each
    edge's stack as a tuple of record ids, and one embedded row per hop
    of a virtual edge's path.  The only record objects it builds are the
    E and P leaves, which the table keeps for the round compiler's leaf
    checks; the table materializes the labels when something reads one.
    """

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
        # one object per hierarchy node and per member subtree, so the
        # table writes each one's row once (``RecordTable.add_info``).
        self._node_infos: dict = {}
        self._subtree_infos: dict = {}
        # T node_id -> the edge keys of the node's subgraph, while
        # :meth:`record_table` runs.
        self._edge_keys: dict = {}
        #: The table :meth:`record_table` writes.
        self.table = None

    def _class_of(self, state) -> None:
        hit = self._fingerprints.get(id(state))
        if hit is None:
            hit = (state, self.algebra.state_fingerprint(state))
            self._fingerprints[id(state)] = hit
        self.indexer.index_of(hit[1])

    # ------------------------------------------------------------------
    def basic_info(
        self, kind: str, node_id: int, evaluation: NodeEvaluation
    ) -> BasicInfo:
        """B(N) of one evaluated node or member subtree."""
        state = evaluation.state
        self._class_of(state)
        ids, t_in, t_out = self.ids, evaluation.t_in, evaluation.t_out
        lanes = tuple(sorted(evaluation.lanes))
        return BasicInfo(
            kind=kind,
            node_id=node_id,
            lanes=lanes,
            in_ids=tuple([(lane, ids[t_in[lane]]) for lane in lanes]),
            out_ids=tuple([(lane, ids[t_out[lane]]) for lane in lanes]),
            state=state,
        )

    def node_info(self, node: HierarchyNode) -> BasicInfo:
        info = self._node_infos.get(node.node_id)
        if info is None:
            info = self._node_infos[node.node_id] = self.basic_info(
                node.kind, node.node_id, self.evaluation.for_node(node)
            )
        return info

    def subtree_info(self, member: HierarchyNode) -> BasicInfo:
        """B(Tree-merge(T_member)): the member's subtree, as a T node."""
        info = self._subtree_infos.get(member.node_id)
        if info is None:
            info = self._subtree_infos[member.node_id] = self.basic_info(
                "T", member.node_id, self.evaluation.for_subtree(member)
            )
        return info

    # ------------------------------------------------------------------
    def record_table(self, embedding: Embedding):
        """Write every physical label of G into a new record table.

        Labels are keyed by the real edges in walk order.  Each virtual
        edge's stack rides on the real edges of its embedding path as
        embedded rows (endpoint identifiers and forward/backward ranks).
        A field the format cannot carry raises
        :class:`~repro.codec.wire.CodecError`.
        """
        from repro.codec.table import RecordTable

        table = self.table = RecordTable([])
        stacks: dict = {}  # edge key of G' -> stack id
        self._write(self.root, (), stacks)
        self._edge_keys = {}
        ids = self.ids
        embedded: dict = {}
        for key, path in embedding.paths.items():
            sid = stacks[key]
            u, v = table.code(ids[path[0]]), table.code(ids[path[-1]])
            length = len(path) - 1
            for rank, (a, b) in enumerate(zip(path, path[1:]), 1):
                row = table.add_embedded(u, v, rank, length + 1 - rank, sid)
                embedded.setdefault(edge_key(a, b), []).append(row)
        for key, sid in stacks.items():
            if key not in embedding.paths:
                table.add_label(key, sid, tuple(embedded.get(key, ())))
        table.close()
        return table

    def _write(self, node: HierarchyNode, stack: tuple, stacks: dict) -> None:
        """Write the stack of every edge in ``node``'s subgraph.

        ``stack`` holds the levels above ``node``, root first: a record
        id per B level, and per T level the T row without its pointer
        fields plus the T node's pointer fields per edge, since a T
        record is the only one that differs from edge to edge.
        """
        table = self.table
        ids = self.ids
        if node.kind == "E":
            u, v = node.edge
            record = ELevelRecord(
                info=self.node_info(node),
                in_id=ids[u],
                out_id=ids[v],
                tag=node.edge_tag,
            )
            self._finish(edge_key(u, v), stack, table.add_leaf(record), stacks)
            return
        if node.kind == "P":
            info = self.node_info(node)
            vertex_ids = tuple(ids[v] for v in node.path_vertices)
            tags = tuple(node.path_tags)
            for position, (a, b) in enumerate(
                zip(node.path_vertices, node.path_vertices[1:])
            ):
                record = PLevelRecord(
                    info=info, vertex_ids=vertex_ids, tags=tags, position=position
                )
                self._finish(edge_key(a, b), stack, table.add_leaf(record), stacks)
            return
        if node.kind == "V":
            return  # owns no edges
        if node.kind == "B":
            left, right = node.children
            i, j = node.bridge
            row = (
                table.add_info(self.node_info(node)),
                table.add_info(self.node_info(left)),
                table.add_info(self.node_info(right)),
                table.field(i, 0, "bridge lane"),
                table.field(j, 0, "bridge lane"),
                table.tag_code(node.bridge_tag),
            )
            bridge = table.add_record("B", row + (-1,))
            self._finish(edge_key(left.t_out[i], right.t_out[j]), stack, bridge, stacks)
            for side, child in enumerate(node.children):
                # A side record for a child that owns no edge (a V node)
                # would sit on no stack, yet widen the table and the
                # compiled round.
                if _owns_edges(child):
                    rid = table.add_record("B", row + (side,))
                    self._write(child, stack + (rid,), stacks)
            return
        if node.kind == "T":
            info = table.add_info(self.node_info(node))
            pointers = self._pointer_rows(node)
            internal_children: dict = {
                index: [] for index in range(len(node.children))
            }
            for index, parent in node.member_parent.items():
                if parent is not None:
                    internal_children[parent].append(index)
            for index, member in enumerate(node.children):
                # Every member's classes count toward the class index
                # width, whether or not the member owns an edge.
                kids = [
                    self.subtree_info(node.children[c])
                    for c in sorted(internal_children[index])
                ]
                member_info = self.node_info(member)
                subtree = self.subtree_info(member)
                if not _owns_edges(member):
                    continue
                prefix = (
                    info,
                    table.add_info(member_info),
                    table.add_info(subtree),
                    table.children_id(
                        tuple([table.add_info(kid) for kid in kids])
                    ),
                )
                self._write(member, stack + ((prefix, pointers),), stacks)
            return
        raise ValueError(f"unknown node kind {node.kind!r}")

    def _finish(self, key, stack: tuple, leaf: int, stacks: dict) -> None:
        """Intern the stack of edge ``key``: ``stack``'s levels, then ``leaf``."""
        table = self.table
        records = [
            level if type(level) is int
            else table.add_record("T", level[0] + level[1][key])
            for level in stack
        ]
        records.append(leaf)
        stacks[key] = table.add_stack(tuple(records))

    def _pointer_rows(self, t_node: HierarchyNode) -> dict:
        """Prop 2.2 pointer fields over the T-node's subgraph, rooted in
        the root member (certifying that the internal root exists).

        Returns ``edge -> (target, id a, dist a, id b, dist b, root
        member id)``, the tail of the edge's T row, with identifiers as
        table codes.  One BFS over the node's own edge list: the
        subgraph is connected (Section 5.3), and its edges come as
        distinct canonical keys.
        """
        edges = self._subgraph_edges(t_node)
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
        table = self.table
        # Every distance is a BFS count, so the largest is the one that
        # can break the counter rule.
        table.field(max(distances.values()), 0, "pointer distance")
        root_member_id = table.field(root_member.node_id, -1, "root member id")
        ids, code = self.ids, table.code
        codes = {v: code(ids[v]) for v in distances}
        target_code = codes[target]
        return {
            (u, v): (
                target_code, codes[u], distances[u], codes[v], distances[v],
                root_member_id,
            )
            for u, v in edges
        }

    def _subgraph_edges(self, node: HierarchyNode) -> list:
        """The edge keys of ``node``'s subgraph, in ``all_edges`` order.

        A T node's list is kept for the rest of :meth:`record_table`, so
        each subtree is walked once: the T nodes below it reuse theirs.
        """
        keys = self._edge_keys.get(node.node_id)
        if keys is None:
            keys = [key for key, _tag in node.owned_edges()]
            for child in node.children:
                keys += self._subgraph_edges(child)
            if node.kind == "T":
                self._edge_keys[node.node_id] = keys
        return keys


def _owns_edges(node: HierarchyNode) -> bool:
    """Whether some edge of G' has ``node`` on its ownership path."""
    if node.kind == "V":
        return False
    if node.kind == "P":
        return len(node.path_vertices) > 1
    if node.kind == "T":
        return any(_owns_edges(member) for member in node.children)
    return True


# ----------------------------------------------------------------------
# Size accounting
# ----------------------------------------------------------------------
_KIND_BITS = 3


def info_bits(terminal_fields: int, ctx: SizeContext, width: int) -> int:
    """Encoded size of one B(N) record with ``terminal_fields`` identifiers."""
    return (
        _KIND_BITS
        + ctx.counter_bits  # node id
        + width  # lane bitmask
        + terminal_fields * ctx.id_bits
        + ctx.class_bits  # homomorphism class index
    )


def basic_info_bits(info: BasicInfo, ctx: SizeContext, width: int) -> int:
    """Encoded size of one B(N) record."""
    return info_bits(len(info.in_ids) + len(info.out_ids), ctx, width)


def fixed_record_bits(
    kind: str, ctx: SizeContext, width: int, path_ids: int = 0, path_tags: int = 0
) -> int:
    """Encoded size of a ``kind`` record's fields besides its B(N)s
    (``path_ids`` and ``path_tags`` size a P record's topology)."""
    if kind == "T":
        return 3 * ctx.id_bits + 2 * ctx.counter_bits  # pointer record
    if kind == "B":
        return 2 * width.bit_length() + 2 + 2  # bridge lanes, tag, side
    if kind == "E":
        return 2 * ctx.id_bits + 2
    return path_ids * ctx.id_bits + path_tags * 2 + ctx.counter_bits  # + position


def embedded_bits(ctx: SizeContext) -> int:
    """Encoded size of an embedded record's fields besides its payload."""
    return 2 * ctx.id_bits + 2 * ctx.counter_bits


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
    path = ()
    if isinstance(record, TLevelRecord):
        kind = "T"
        infos = [record.info, record.member_info, record.member_subtree]
        infos.extend(record.child_subtrees)
    elif isinstance(record, BLevelRecord):
        kind, infos = "B", [record.info, record.left, record.right]
    elif isinstance(record, ELevelRecord):
        kind, infos = "E", [record.info]
    elif isinstance(record, PLevelRecord):
        kind, infos = "P", [record.info]
        path = (len(record.vertex_ids), len(record.tags))
    else:
        raise TypeError(f"unknown record type {type(record).__name__}")
    return sum(
        basic_info_bits(info, ctx, width) for info in infos
    ) + fixed_record_bits(kind, ctx, width, *path)


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
        total += embedded_bits(ctx)
        total += certificate_bits(record.payload, ctx, width, memo)
    return total


def accounted_label_bits(label, ctx: SizeContext, memo=None) -> int:
    """:func:`label_bits` at the label's own width; a non-label (what an
    attack may leave on an edge) is accounted as one identifier."""
    if not isinstance(label, Theorem1Label):
        return ctx.id_bits
    width = len(label.certificate.stack[0].info.lanes)
    return label_bits(label, ctx, width, memo)
