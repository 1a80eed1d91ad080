"""One record table per labeling: every label field interned once.

Theorem 1's labels are stacks of at most ``2w`` records (Obs. 5.5), and
each record is a few fixed-width integer fields (``docs/FORMAT.md`` fixes
every width per header).  :class:`RecordTable` holds a labeling in that
shape:

* each ``BasicInfo`` is one row: the prover writes one per hierarchy
  node and member subtree, and a walk or the decoder interns them by
  content;
* records, child-subtree tuples, P-node lists and stacks are keyed by
  tuples of integer ids interned before them;
* identifiers, homomorphism-class states and edge tags go into
  dictionaries.

The prover writes its labels straight into a table
(:meth:`CertificateBuilder.record_table
<repro.core.certificates.CertificateBuilder.record_table>`), building
no label object but its infos and E and P leaf records, and the decoder
(:func:`repro.codec.columnar.decode_labeling_columnar`) reads a stored
labeling's bits into one through the same writer.  Any other mapping, a
tampered copy say, gets its table from one walk over its
:class:`~repro.core.certificates.Theorem1Label` objects.

The wire encoder (:func:`repro.codec.columnar.encode_table`) derives the
header from the table and packs every label from its columns.  The
round compiler (:class:`repro.api.vectorized.RoundCompiler`) emits its
kernel columns from the same table, the label stage sizes the labels
from it (:meth:`RecordTable.accounted_bits`), and
:meth:`RecordTable.materialize`, the one place label objects are built
from stored or decoded bytes, builds them back when something reads
them.  All rest on one field rule: an integer field is a plain ``int``
(``type(x) is int``, so never a bool or a float) inside the range the
format gives it, and a container has the type the format fixes.  The
walk *marks* a record, stack or label that breaks the rule instead of
raising: :attr:`RecordTable.bad` keeps the first reason.  The encoder
turns a mark into :class:`~repro.codec.wire.CodecError`, and the
compiler flags the record so that the reference verifier decides.  To
the writer, the prover's and the decoder's alike, a field that breaks
the rule is that :class:`~repro.codec.wire.CodecError`.

:meth:`RecordTable.header` meets states and tags in the order
:meth:`WireHeader.for_labeling` does, labels in ``repr`` order of their
keys and each label's fields in wire order, so it rebuilds that header
with the same first-seen state and tag order whichever writer filled
the table.  A table lives in memory only.
"""

from __future__ import annotations

from repro.core.certificates import (
    BasicInfo,
    BLevelRecord,
    EdgeCertificate,
    ELevelRecord,
    EmbeddedRecord,
    PLevelRecord,
    Theorem1Label,
    TLevelRecord,
    embedded_bits,
    fixed_record_bits,
    info_bits,
)
from repro.courcelle.algebra import canonical_state_repr
from repro.codec.bitio import width_for_value
from repro.codec.wire import WIRE_VERSION, _KIND_CODES, CodecError, WireHeader
from repro.pls.pointer import PointerLabel

#: Record kinds (column ``r_kind``); ``BAD`` marks a record the format
#: cannot carry.
T, B, E, P, BAD = 0, 1, 2, 3, -1

_KINDS = {TLevelRecord: T, BLevelRecord: B, ELevelRecord: E, PLevelRecord: P}

#: Exclusive bound on every integer field's magnitude.  It is far inside
#: int64, so the compiler's packed keys and ``x - 1`` never wrap.
LIMIT = 1 << 60


_TERMINALS = "terminal identifiers must list exactly the lane set"


class _Bad(CodecError):
    """A field the format cannot carry; the message names it.

    The walk marks the record that holds it; to the prover's writer it
    is the :class:`~repro.codec.wire.CodecError` it subclasses."""


def _int(x, low: int, what: str) -> int:
    """The one field check: a plain int in ``[low, LIMIT)``."""
    if type(x) is not int or not low <= x < LIMIT:
        raise _Bad(f"{what} {x!r} is not an int in [{low}, 2**60)")
    return x


class RecordTable:
    """Struct-of-arrays form of one labeling.

    Two writers fill it.  The writer starts from ``RecordTable([])``,
    writes rows with the ``add_*`` methods and the field rules
    (:meth:`code`, :meth:`state_code`, :meth:`tag_code`, :meth:`field`),
    and ends with :meth:`close`; the prover
    (:meth:`CertificateBuilder.record_table
    <repro.core.certificates.CertificateBuilder.record_table>`) and the
    decoder (:func:`~repro.codec.columnar.decode_labeling_columnar`) both
    write through it.  ``RecordTable(keys, labels)`` walks label objects
    instead (``labels`` aligned with ``keys``; ``None`` stands for a
    missing label), in ``repr`` order of the keys: that is how a mapping
    the library did not build, such as a tampered copy, gets its table.
    The columns are plain lists:

    * dictionaries: ``id_values`` (code -> identifier, with ``id_code``
      the inverse), ``states`` / ``state_reprs`` (state id -> first
      object, canonical form) and ``tags`` / ``tag_reprs`` (with
      ``tag_id`` keyed by ``(repr, tag)``);
    * infos, one row per distinct content: ``infos`` (the first
      ``BasicInfo``), ``i_kind`` (wire kind code), ``i_node``,
      ``i_lanes``, ``i_in`` / ``i_out`` (identifier codes in lane order)
      and ``i_state``;
    * records: ``records`` (the object the row came from; ``None`` for
      the prover's T and B rows, which exist only as rows), ``r_kind``,
      ``r_info``, and per kind the field rows ``rows[kind]`` of the
      records ``rids[kind]``.  A T row is ``(info, member info, member
      subtree, children, target, id a, dist a, id b, dist b, root member
      id)``, a B row ``(info, left, right, lane i, lane j, tag, side)``,
      an E row ``(info, in id, out id, tag)`` and a P row ``(info, id
      list, tag list, position)``, with identifiers as codes;
    * ragged segments: ``children`` (info ids), ``id_lists`` and
      ``tag_lists`` (the P-node lists) and ``stacks`` (record ids);
    * labels, one row per key: ``l_stack`` (stack id, -1 when the label
      or its certificate is malformed) and ``l_emb`` (ids into
      ``embedded``, ``None`` when malformed), where an embedded row is
      ``(u, v, forward, backward, payload stack id)``.

    Records, child lists and stacks are interned by content, and so are
    the infos of a walk and of the decoder; the prover's infos are one
    object per hierarchy node and member subtree.  So every table has
    one row per distinct value.  :meth:`materialize` builds the label
    objects back from the rows.
    """

    def __init__(self, keys, labels=None):
        self.keys = list(keys)
        self.bad = None
        self.id_values, self.id_code = [], {}
        self.states, self.state_reprs, self._state_id = [], [], {}
        self.tags, self.tag_reprs, self.tag_id = [], [], {}
        self.infos, self.i_kind, self.i_node = [], [], []
        self.i_lanes, self.i_in, self.i_out, self.i_state = [], [], [], []
        self._info_id = {}
        self.records, self.r_kind, self.r_info = [], [], []
        self.rows = {T: [], B: [], E: [], P: []}
        self.rids = {T: [], B: [], E: [], P: []}
        self._record_id = {T: {}, B: {}, E: {}, P: {}}
        self.children, self._children_id = [], {}
        self.id_lists, self._id_list_id = [], {}
        self.tag_lists, self._tag_list_id = [], {}
        self.stacks, self._stack_id = [], {}
        self.embedded = []
        self.l_stack = [-1] * len(self.keys)
        self.l_emb = [None] * len(self.keys)
        # id(object) -> interned id, one cache per role.  The writer holds
        # every object it interns until :meth:`close`, so no id is reused
        # meanwhile.
        self._cert_seen, self._record_seen, self._info_seen = {}, {}, {}
        self._state_seen, self._tag_seen = {}, {}
        if labels is not None:
            reprs = [repr(key) for key in self.keys]
            for row in sorted(range(len(self.keys)), key=reprs.__getitem__):
                self._label(row, labels[row])
            self.close()

    def close(self) -> None:
        """End writing: drop the interning indexes, which no reader uses."""
        del self._cert_seen, self._record_seen, self._info_seen
        del self._state_seen, self._tag_seen
        del self._state_id, self._info_id, self._record_id
        del self._children_id, self._id_list_id, self._tag_list_id
        del self._stack_id

    def _mark(self, reason: str) -> None:
        if self.bad is None:
            self.bad = reason

    # -- the prover's writer ---------------------------------------------
    #: The one integer field rule, for the writer's counters and lanes.
    field = staticmethod(_int)

    def add_info(self, info) -> int:
        """The row of a ``BasicInfo`` the prover has built, written on
        the first call for that object.

        Every value passes the field rule: the node id, each lane, every
        identifier (through :meth:`code`) and the state.  The tuple
        shapes are the builder's own and are not checked again, and no
        content index is kept: the prover builds one object per
        hierarchy node and per member subtree.  :meth:`info_id` of the
        same object returns the same row.
        """
        seen = self._info_seen
        iid = seen.get(id(info))
        if iid is None:
            node = _int(info.node_id, -1, "node id")
            lanes = info.lanes
            for lane in lanes:
                _int(lane, 0, "lane")
            code = self.code
            ins = tuple([code(x) for _lane, x in info.in_ids])
            outs = tuple([code(x) for _lane, x in info.out_ids])
            state = self.state_code(info.state)
            iid = seen[id(info)] = len(self.infos)
            self.infos.append(info)
            self.i_kind.append(_KIND_CODES[info.kind])
            self.i_node.append(node)
            self.i_lanes.append(lanes)
            self.i_in.append(ins)
            self.i_out.append(outs)
            self.i_state.append(state)
        return iid

    def add_leaf(self, record) -> int:
        """Intern an E or P record object, which the table keeps: the
        round compiler re-derives leaf classes from it."""
        self.add_info(record.info)
        kind = _KINDS[type(record)]
        return self._add(kind, _FIELDS[kind](self, record), record)

    def add_record(self, kind: str, row: tuple) -> int:
        """Intern a ``"T"`` or ``"B"`` row of interned ids and checked
        ints; :meth:`materialize` builds its object."""
        return self._add(_KIND_OF[kind], row, None)

    def children_id(self, info_ids: tuple) -> int:
        """Intern one T record's child-subtree info ids."""
        return _intern(self._children_id, self.children, info_ids)

    def add_stack(self, record_ids: tuple) -> int:
        """Intern one stack of record ids, root first."""
        return _intern(self._stack_id, self.stacks, record_ids)

    def add_embedded(self, u: int, v: int, forward, backward, stack: int) -> int:
        """Append one hop of a virtual edge's path (``u``, ``v`` are codes)."""
        self.embedded.append((
            u,
            v,
            _int(forward, 0, "forward rank"),
            _int(backward, 0, "backward rank"),
            stack,
        ))
        return len(self.embedded) - 1

    def add_label(self, key, stack: int, embedded: tuple) -> None:
        """Append the label on ``key``: its stack and embedded row ids."""
        self.keys.append(key)
        self.l_stack.append(stack)
        self.l_emb.append(embedded)

    # -- the walk: labels and stacks ---------------------------------------
    def _label(self, row: int, label) -> None:
        if type(label) is not Theorem1Label:
            self._mark(f"expected a Theorem1Label, got {type(label).__name__}")
            return
        self.l_stack[row] = self._stack(label.certificate)
        if type(label.embedded) is not tuple:
            self._mark("embedded records are not a tuple")
            return
        rows = []
        for record in label.embedded:
            if type(record) is not EmbeddedRecord:
                self._mark("embedded record is not an EmbeddedRecord")
                return
            try:
                fields = (
                    self.code(record.u_id),
                    self.code(record.v_id),
                    _int(record.forward, 0, "forward rank"),
                    _int(record.backward, 0, "backward rank"),
                )
            except _Bad as exc:
                self._mark(str(exc))
                return
            sid = self._stack(record.payload)
            if sid < 0:
                return
            rows.append(len(self.embedded))
            self.embedded.append(fields + (sid,))
        self.l_emb[row] = tuple(rows)

    def _stack(self, cert) -> int:
        seen = self._cert_seen
        sid = seen.get(id(cert))
        if sid is not None:
            return sid
        stack = getattr(cert, "stack", None)
        if type(cert) is not EdgeCertificate or type(stack) is not tuple or not stack:
            self._mark("certificate stack is empty or malformed")
            sid = -1
        else:
            sid = self.add_stack(tuple([self._record(record) for record in stack]))
        seen[id(cert)] = sid
        return sid

    # -- records -----------------------------------------------------------
    def _record(self, record) -> int:
        seen = self._record_seen
        rid = seen.get(id(record))
        if rid is not None:
            return rid
        kind = _KINDS.get(type(record), BAD)
        try:
            if kind == BAD:
                raise _Bad(f"unknown record type {type(record).__name__}")
            rid = self._add(kind, _FIELDS[kind](self, record), record)
        except _Bad as exc:
            self._mark(str(exc))
            rid = self._new_record(record, BAD, None)
        seen[id(record)] = rid
        return rid

    def _add(self, kind: int, row: tuple, record) -> int:
        by_row = self._record_id[kind]
        rid = by_row.get(row)
        if rid is None:
            rid = by_row[row] = self._new_record(record, kind, row)
        return rid

    def _new_record(self, record, kind: int, row) -> int:
        rid = len(self.records)
        self.records.append(record)
        self.r_kind.append(kind)
        self.r_info.append(0 if row is None else row[0])
        if row is not None:
            self.rows[kind].append(row)
            self.rids[kind].append(rid)
        return rid

    def _t_row(self, record) -> tuple:
        info = self.info_id(record.info, "T")
        member = self.info_id(record.member_info)
        subtree = self.info_id(record.member_subtree)
        kids = record.child_subtrees
        if type(kids) is not tuple:
            raise _Bad("child subtrees are not a tuple")
        kids = tuple([self.info_id(kid) for kid in kids])
        pointer = record.pointer
        if type(pointer) is not PointerLabel:
            raise _Bad("pointer is not a PointerLabel")
        return (
            info,
            member,
            subtree,
            self.children_id(kids),
            self.code(pointer.target_id),
            self.code(pointer.id_a),
            _int(pointer.dist_a, 0, "pointer distance"),
            self.code(pointer.id_b),
            _int(pointer.dist_b, 0, "pointer distance"),
            _int(record.root_member_id, -1, "root member id"),
        )

    def _b_row(self, record) -> tuple:
        info = self.info_id(record.info, "B")
        left = self.info_id(record.left)
        right = self.info_id(record.right)
        bridge = record.bridge
        if type(bridge) is not tuple or len(bridge) != 2:
            raise _Bad(f"bridge {bridge!r} is not a lane pair")
        i = _int(bridge[0], 0, "bridge lane")
        j = _int(bridge[1], 0, "bridge lane")
        tag = self.tag_code(record.bridge_tag)
        side = _int(record.side, -1, "bridge side")
        if side > 1:
            raise _Bad(f"bridge side {side!r} out of range")
        return (info, left, right, i, j, tag, side)

    def _e_row(self, record) -> tuple:
        info = self.info_id(record.info, "E")
        return (
            info,
            self.code(record.in_id),
            self.code(record.out_id),
            self.tag_code(record.tag),
        )

    def _p_row(self, record) -> tuple:
        info = self.info_id(record.info, "P")
        ids, tags = record.vertex_ids, record.tags
        if type(ids) is not tuple or type(tags) is not tuple:
            raise _Bad("P-node ids and tags are not tuples")
        ids = tuple([self.code(x) for x in ids])
        tags = tuple([self.tag_code(tag) for tag in tags])
        return (
            info,
            _intern(self._id_list_id, self.id_lists, ids),
            _intern(self._tag_list_id, self.tag_lists, tags),
            _int(record.position, 0, "path position"),
        )

    # -- infos and dictionaries: the field rules ---------------------------
    def info_id(self, info, kind=None) -> int:
        """Intern a ``BasicInfo`` by content; with ``kind``, it must be a
        ``kind`` node's.  Raises the :class:`CodecError` subclass the walk
        marks on."""
        seen = self._info_seen
        iid = seen.get(id(info))
        if iid is None:
            try:
                iid = self._new_info(info)
            except _Bad as exc:
                iid = exc
            seen[id(info)] = iid
        if type(iid) is not int:
            raise iid
        if kind is not None and self.i_kind[iid] != _KIND_CODES[kind]:
            raise _Bad(f"{kind} record with non-{kind} basic info")
        return iid

    def _new_info(self, info) -> int:
        if type(info) is not BasicInfo:
            raise _Bad("basic info is not a BasicInfo")
        try:
            kind = _KIND_CODES[info.kind]
        except (KeyError, TypeError):
            raise _Bad(f"unknown node kind {info.kind!r}") from None
        node = _int(info.node_id, -1, "node id")
        lanes = info.lanes
        if type(lanes) is not tuple:
            raise _Bad("lane set is not a tuple")
        previous = -1
        for lane in lanes:
            if type(lane) is not int or not previous < lane < LIMIT:
                raise _Bad(f"lane set {lanes!r} is not sorted, distinct ints")
            previous = lane
        ins = self._terminals(info.in_ids, lanes)
        outs = self._terminals(info.out_ids, lanes)
        key = (kind, node, lanes, ins, outs, self.state_code(info.state))
        iid = self._info_id.get(key)
        if iid is None:
            iid = self._info_id[key] = len(self.infos)
            self.infos.append(info)
            self.i_kind.append(kind)
            self.i_node.append(node)
            self.i_lanes.append(lanes)
            self.i_in.append(ins)
            self.i_out.append(outs)
            self.i_state.append(key[5])
        return iid

    def _terminals(self, pairs, lanes) -> tuple:
        """Identifier codes of one terminal map, which lists every lane."""
        if type(pairs) is not tuple or len(pairs) != len(lanes):
            raise _Bad(_TERMINALS)
        id_code = self.id_code
        codes = []
        for pair, lane in zip(pairs, lanes):
            if type(pair) is not tuple or len(pair) != 2:
                raise _Bad(_TERMINALS)
            first, x = pair
            if type(first) is not int or first != lane:
                raise _Bad(_TERMINALS)
            code = id_code.get(x) if type(x) is int else None
            codes.append(self.code(x) if code is None else code)
        return tuple(codes)

    def code(self, x) -> int:
        """An identifier's code, interning it when new."""
        if type(x) is int:  # checked before the lookup: True == 1
            code = self.id_code.get(x)
            if code is not None:
                return code
        code = self.id_code[_int(x, 1 - LIMIT, "identifier")] = len(self.id_values)
        self.id_values.append(x)
        return code

    def state_code(self, state) -> int:
        """A homomorphism-class state's id, interning it when new."""
        return _dictionary(
            self._state_seen, state, canonical_state_repr,
            self._state_id, self.states, self.state_reprs,
        )

    def tag_code(self, tag) -> int:
        """An edge tag's id, interning it when new."""
        return _dictionary(
            self._tag_seen, tag, repr, self.tag_id, self.tags, self.tag_reprs
        )

    # -- the wire header --------------------------------------------------
    def widths(self, n: int = 0) -> dict:
        """The narrowest lane mask and counter-like field widths that
        carry this table's values (``n`` floors the counter width)."""
        t_rows, b_rows, p_rows = self.rows[T], self.rows[B], self.rows[P]
        lanes = [lanes[-1] for lanes in self.i_lanes if lanes]
        lanes += [max(row[3], row[4]) for row in b_rows]
        nodes = [node + 1 for node in self.i_node]
        nodes += [row[9] + 1 for row in t_rows]
        counters = [max(row[6], row[8]) for row in t_rows]
        counters += [row[3] for row in p_rows]
        counters += [max(row[2], row[3]) for row in self.embedded]
        paths = [len(self.id_lists[row[1]]) for row in p_rows]
        paths += [len(self.tag_lists[row[2]]) for row in p_rows]
        return {
            "lane_bits": max(lanes, default=0) + 1,
            "node_width": width_for_value(max(nodes, default=0)),
            "counter_width": width_for_value(max(counters + [n])),
            "depth_width": width_for_value(
                max([len(stack) for stack in self.stacks] + [1])
            ),
            "embed_width": width_for_value(
                max([len(emb) for emb in self.l_emb if emb] + [1])
            ),
            "path_width": width_for_value(max(paths + [1])),
            "child_width": width_for_value(
                max([len(self.children[row[3]]) for row in t_rows] + [1])
            ),
        }

    def _first_seen(self) -> tuple:
        """State ids and tag ids in the order a walk over the labels
        meets them.

        It visits the labels in ``repr`` order of their keys, a label's
        own stack and then its embedded payloads, each stack's records
        in order, and each record's infos and then its tags in wire
        order, each once: the order of :meth:`WireHeader.for_labeling`.
        """
        row_of = [None] * len(self.r_kind)
        for kind in (T, B, E, P):
            for rid, row in zip(self.rids[kind], self.rows[kind]):
                row_of[rid] = row
        stack_seen = bytearray(len(self.stacks))
        record_seen = bytearray(len(self.r_kind))
        info_seen = bytearray(len(self.infos))
        states, tags = {}, {}  # insertion-ordered sets
        reprs = [repr(key) for key in self.keys]
        for label in sorted(range(len(self.keys)), key=reprs.__getitem__):
            sids = [self.l_stack[label]]
            sids += [self.embedded[row][4] for row in self.l_emb[label]]
            for sid in sids:
                if stack_seen[sid]:
                    continue
                stack_seen[sid] = 1
                for rid in self.stacks[sid]:
                    if record_seen[rid]:
                        continue
                    record_seen[rid] = 1
                    kind, row = self.r_kind[rid], row_of[rid]
                    if kind == T:
                        infos, rtags = row[:3] + self.children[row[3]], ()
                    elif kind == B:
                        infos, rtags = row[:3], row[5:6]
                    elif kind == E:
                        infos, rtags = row[:1], row[3:4]
                    else:
                        infos, rtags = row[:1], self.tag_lists[row[2]]
                    for iid in infos:
                        if not info_seen[iid]:
                            info_seen[iid] = 1
                            states.setdefault(self.i_state[iid])
                    for tag in rtags:
                        tags.setdefault(tag)
        return list(states), list(tags)

    def header(self, size_context) -> WireHeader:
        """This labeling's :class:`WireHeader`.

        Equal to :meth:`WireHeader.for_labeling` over the same labels;
        raises :class:`CodecError` when the table is marked.
        """
        if self.bad is not None:
            raise CodecError(self.bad)
        state_ids, tag_ids = self._first_seen()
        states, tags = {}, {}
        for sid in state_ids:
            states.setdefault(self.state_reprs[sid], self.states[sid])
        for tid in tag_ids:
            tags.setdefault(self.tag_reprs[tid], self.tags[tid])
        return WireHeader(
            version=WIRE_VERSION,
            n=size_context.n,
            universe_bits=getattr(size_context, "universe_bits", 32),
            class_count=max(
                getattr(size_context, "class_count", 1), len(states), 1
            ),
            id_table=tuple(sorted(self.id_values)),
            states=tuple(states.values()),
            tags=tuple(tags.values()),
            **self.widths(size_context.n),
        )

    # -- reading ----------------------------------------------------------
    def accounted_bits(self, size_context) -> list:
        """Every label's ``label_bits`` arithmetic
        (:mod:`repro.core.certificates`), in key order.

        A label is sized at its own width, its root record's lane count,
        and each distinct info, record and stack once per width.
        """
        extra = embedded_bits(size_context)
        by_width: dict = {}
        sizes = []
        for sid, emb in zip(self.l_stack, self.l_emb):
            width = len(self.i_lanes[self.r_info[self.stacks[sid][0]]])
            stack_bits = by_width.get(width)
            if stack_bits is None:
                stack_bits = by_width[width] = self._stack_bits(
                    size_context, width
                )
            size = stack_bits[sid]
            for row in emb:
                size += extra + stack_bits[self.embedded[row][4]]
            sizes.append(size)
        return sizes

    def _stack_bits(self, ctx, width: int) -> list:
        """Accounted bits of every stack at one width."""
        info = [
            info_bits(len(ins) + len(outs), ctx, width)
            for ins, outs in zip(self.i_in, self.i_out)
        ]
        bits = [0] * len(self.r_kind)
        fixed = fixed_record_bits("T", ctx, width)
        for rid, row in zip(self.rids[T], self.rows[T]):
            kids = sum([info[kid] for kid in self.children[row[3]]])
            bits[rid] = info[row[0]] + info[row[1]] + info[row[2]] + kids + fixed
        fixed = fixed_record_bits("B", ctx, width)
        for rid, row in zip(self.rids[B], self.rows[B]):
            bits[rid] = info[row[0]] + info[row[1]] + info[row[2]] + fixed
        fixed = fixed_record_bits("E", ctx, width)
        for rid, row in zip(self.rids[E], self.rows[E]):
            bits[rid] = info[row[0]] + fixed
        for rid, row in zip(self.rids[P], self.rows[P]):
            bits[rid] = info[row[0]] + fixed_record_bits(
                "P", ctx, width,
                len(self.id_lists[row[1]]), len(self.tag_lists[row[2]]),
            )
        return [sum([bits[rid] for rid in stack]) for stack in self.stacks]

    def materialize(self) -> dict:
        """``key -> Theorem1Label`` for every label, in key order.

        One object per distinct row: infos are the table's own
        ``BasicInfo`` objects and E/P records the objects it keeps, and
        every T and B record, stack, pointer, child list and embedded row
        is built once.  A marked table raises :class:`CodecError`.
        """
        if self.bad is not None:
            raise CodecError(self.bad)
        infos, ids, tags = self.infos, self.id_values, self.tags
        kids = [tuple([infos[kid] for kid in row]) for row in self.children]
        records = list(self.records)
        for rid, row in zip(self.rids[T], self.rows[T]):
            info, member, subtree, children, target = row[:5]
            records[rid] = TLevelRecord(
                info=infos[info],
                member_info=infos[member],
                member_subtree=infos[subtree],
                child_subtrees=kids[children],
                pointer=PointerLabel(
                    target_id=ids[target],
                    id_a=ids[row[5]],
                    dist_a=row[6],
                    id_b=ids[row[7]],
                    dist_b=row[8],
                ),
                root_member_id=row[9],
            )
        for rid, (info, left, right, i, j, tag, side) in zip(
            self.rids[B], self.rows[B]
        ):
            records[rid] = BLevelRecord(
                info=infos[info],
                left=infos[left],
                right=infos[right],
                bridge=(i, j),
                bridge_tag=tags[tag],
                side=side,
            )
        certs = [
            EdgeCertificate(tuple([records[rid] for rid in stack]))
            for stack in self.stacks
        ]
        embedded = [
            EmbeddedRecord(
                u_id=ids[u], v_id=ids[v], forward=forward, backward=backward,
                payload=certs[sid],
            )
            for u, v, forward, backward, sid in self.embedded
        ]
        empty: tuple = ()
        return {
            key: Theorem1Label(
                certificate=certs[sid],
                embedded=tuple([embedded[row] for row in emb]) if emb else empty,
            )
            for key, sid, emb in zip(self.keys, self.l_stack, self.l_emb)
        }


def _dictionary(seen, value, text_of, ids, values, texts) -> int:
    """Intern ``value`` by its wire text *and* by ``==``, so that one id
    never stands for two values the verifier tells apart."""
    code = seen.get(id(value))
    if code is None:
        try:
            text = text_of(value)
            code = ids.get((text, value))
        except Exception:
            # Label content is untrusted: whatever its repr or hash
            # raises marks the value instead of escaping the walk.
            code = _Bad(f"value {value!r} is unhashable")
        else:
            if code is None:
                code = ids[(text, value)] = len(values)
                values.append(value)
                texts.append(text)
        seen[id(value)] = code
    if type(code) is not int:
        raise code
    return code


def _intern(ids: dict, values: list, key: tuple) -> int:
    """Id of ``key`` in one ragged column, appending it when new."""
    found = ids.get(key)
    if found is None:
        found = ids[key] = len(values)
        values.append(key)
    return found


_KIND_OF = {"T": T, "B": B}

_FIELDS = {
    T: RecordTable._t_row,
    B: RecordTable._b_row,
    E: RecordTable._e_row,
    P: RecordTable._p_row,
}
