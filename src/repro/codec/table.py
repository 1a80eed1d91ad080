"""One record table per labeling: every label field interned once.

Theorem 1's labels are stacks of at most ``2w`` records (Obs. 5.5), and
each record is a few fixed-width integer fields (``docs/FORMAT.md`` fixes
every width per header).  :class:`RecordTable` holds a labeling in that
shape.  One walk over its :class:`~repro.core.certificates.Theorem1Label`
objects fills it:

* each ``BasicInfo`` is interned by content, once per distinct object;
* records, child-subtree tuples, P-node lists and stacks are keyed by
  tuples of integer ids interned before them, so no label object is
  hashed twice;
* identifiers, homomorphism-class states and edge tags go into
  first-seen dictionaries.

The wire encoder (:func:`repro.codec.columnar.encode_table`) derives the
header from the table and packs every label from its columns.  The
round compiler (:class:`repro.api.vectorized.RoundCompiler`) emits its
kernel columns from the same table.  Both rest on one field rule: an
integer field is a plain ``int`` (``type(x) is int``, so never a bool or
a float) inside the range the format gives it, and a container has the
type the format fixes.  A record, stack or label that breaks the rule is
*marked*, not raised: :attr:`RecordTable.bad` keeps the first reason.
The encoder turns a mark into :class:`~repro.codec.wire.CodecError`,
and the compiler flags the record so that the reference verifier
decides.

The walk visits labels in ``repr`` order of their keys and each label's
fields in wire order, as :meth:`WireHeader.for_labeling` does, so
:meth:`RecordTable.header` rebuilds that header with the same
first-seen state and tag order.  A table lives in memory only.
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


class _Bad(Exception):
    """A field the format cannot carry; the message names it."""


def _int(x, low: int, what: str) -> int:
    """The one field check: a plain int in ``[low, LIMIT)``."""
    if type(x) is not int or not low <= x < LIMIT:
        raise _Bad(f"{what} {x!r} is not an int in [{low}, 2**60)")
    return x


class RecordTable:
    """Struct-of-arrays view of one labeling, built by one walk.

    ``RecordTable(keys, labels)`` walks ``labels`` (aligned with
    ``keys``; ``None`` stands for a missing label) in ``repr`` order of
    the keys.  The columns are plain lists:

    * dictionaries, in first-seen order: ``id_values`` (code ->
      identifier, with ``id_code`` the inverse), ``states`` /
      ``state_reprs`` (state id -> first object, canonical form) and
      ``tags`` / ``tag_reprs``;
    * infos, one row per distinct content: ``infos`` (the first object),
      ``i_kind`` (wire kind code), ``i_node``, ``i_lanes``, ``i_in`` /
      ``i_out`` (identifier codes in lane order) and ``i_state``;
    * records: ``records`` (the first object), ``r_kind``, ``r_info``,
      and per kind the field rows ``rows[kind]`` of the records
      ``rids[kind]``.  A T row is ``(info, member info, member subtree,
      children, target, id a, dist a, id b, dist b, root member id)``,
      a B row ``(info, left, right, lane i, lane j, tag, side)``, an E
      row ``(info, in id, out id, tag)`` and a P row ``(info, id list,
      tag list, position)``, with identifiers as codes;
    * ragged segments: ``children`` (info ids), ``id_lists`` and
      ``tag_lists`` (the P-node lists) and ``stacks`` (record ids);
    * labels, one row per key: ``l_stack`` (stack id, -1 when the label
      or its certificate is malformed) and ``l_emb`` (ids into
      ``embedded``, ``None`` when malformed), where an embedded row is
      ``(u, v, forward, backward, payload stack id)``.
    """

    def __init__(self, keys, labels):
        self.keys = keys
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
        self.l_stack = [-1] * len(keys)
        self.l_emb = [None] * len(keys)
        # id(object) -> interned id, one cache per role.  ``labels``
        # holds every object the walk reaches until it ends, so no id is
        # reused mid-walk.
        self._cert_seen, self._record_seen, self._info_seen = {}, {}, {}
        self._state_seen, self._tag_seen = {}, {}
        reprs = [repr(key) for key in keys]
        for row in sorted(range(len(keys)), key=reprs.__getitem__):
            self._label(row, labels[row])
        del self._cert_seen, self._record_seen, self._info_seen
        del self._state_seen, self._tag_seen

    def _mark(self, reason: str) -> None:
        if self.bad is None:
            self.bad = reason

    # -- labels and stacks ---------------------------------------------
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
                    self._id(record.u_id),
                    self._id(record.v_id),
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
            recs = tuple([self._record(record) for record in stack])
            sid = self._stack_id.get(recs)
            if sid is None:
                sid = self._stack_id[recs] = len(self.stacks)
                self.stacks.append(recs)
        seen[id(cert)] = sid
        return sid

    # -- records ---------------------------------------------------------
    def _record(self, record) -> int:
        seen = self._record_seen
        rid = seen.get(id(record))
        if rid is not None:
            return rid
        kind = _KINDS.get(type(record), BAD)
        try:
            if kind == BAD:
                raise _Bad(f"unknown record type {type(record).__name__}")
            row = _FIELDS[kind](self, record)
            by_row = self._record_id[kind]
            rid = by_row.get(row)
            if rid is None:
                rid = by_row[row] = self._new_record(record, kind, row)
        except _Bad as exc:
            self._mark(str(exc))
            rid = self._new_record(record, BAD, None)
        seen[id(record)] = rid
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
        info = self._info(record.info, "T")
        member = self._info(record.member_info)
        subtree = self._info(record.member_subtree)
        kids = record.child_subtrees
        if type(kids) is not tuple:
            raise _Bad("child subtrees are not a tuple")
        kids = tuple([self._info(kid) for kid in kids])
        pointer = record.pointer
        if type(pointer) is not PointerLabel:
            raise _Bad("pointer is not a PointerLabel")
        return (
            info,
            member,
            subtree,
            _intern(self._children_id, self.children, kids),
            self._id(pointer.target_id),
            self._id(pointer.id_a),
            _int(pointer.dist_a, 0, "pointer distance"),
            self._id(pointer.id_b),
            _int(pointer.dist_b, 0, "pointer distance"),
            _int(record.root_member_id, -1, "root member id"),
        )

    def _b_row(self, record) -> tuple:
        info = self._info(record.info, "B")
        left = self._info(record.left)
        right = self._info(record.right)
        bridge = record.bridge
        if type(bridge) is not tuple or len(bridge) != 2:
            raise _Bad(f"bridge {bridge!r} is not a lane pair")
        i = _int(bridge[0], 0, "bridge lane")
        j = _int(bridge[1], 0, "bridge lane")
        tag = self._tag(record.bridge_tag)
        side = _int(record.side, -1, "bridge side")
        if side > 1:
            raise _Bad(f"bridge side {side!r} out of range")
        return (info, left, right, i, j, tag, side)

    def _e_row(self, record) -> tuple:
        info = self._info(record.info, "E")
        return (
            info,
            self._id(record.in_id),
            self._id(record.out_id),
            self._tag(record.tag),
        )

    def _p_row(self, record) -> tuple:
        info = self._info(record.info, "P")
        ids, tags = record.vertex_ids, record.tags
        if type(ids) is not tuple or type(tags) is not tuple:
            raise _Bad("P-node ids and tags are not tuples")
        ids = tuple([self._id(x) for x in ids])
        tags = tuple([self._tag(tag) for tag in tags])
        return (
            info,
            _intern(self._id_list_id, self.id_lists, ids),
            _intern(self._tag_list_id, self.tag_lists, tags),
            _int(record.position, 0, "path position"),
        )

    # -- infos and dictionaries ----------------------------------------
    def _info(self, info, kind=None) -> int:
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
        key = (kind, node, lanes, ins, outs, self._state(info.state))
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
            codes.append(self._id(x) if code is None else code)
        return tuple(codes)

    def _id(self, x) -> int:
        if type(x) is int:  # checked before the lookup: True == 1
            code = self.id_code.get(x)
            if code is not None:
                return code
        code = self.id_code[_int(x, 1 - LIMIT, "identifier")] = len(self.id_values)
        self.id_values.append(x)
        return code

    def _state(self, state) -> int:
        return _dictionary(
            self._state_seen, state, canonical_state_repr,
            self._state_id, self.states, self.state_reprs,
        )

    def _tag(self, tag) -> int:
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

    def header(self, size_context) -> WireHeader:
        """This labeling's :class:`WireHeader`.

        Equal to :meth:`WireHeader.for_labeling` over the same labels;
        raises :class:`CodecError` when the walk marked a field.
        """
        if self.bad is not None:
            raise CodecError(self.bad)
        states, tags = {}, {}
        for text, state in zip(self.state_reprs, self.states):
            states.setdefault(text, state)
        for text, tag in zip(self.tag_reprs, self.tags):
            tags.setdefault(text, tag)
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


_FIELDS = {
    T: RecordTable._t_row,
    B: RecordTable._b_row,
    E: RecordTable._e_row,
    P: RecordTable._p_row,
}
