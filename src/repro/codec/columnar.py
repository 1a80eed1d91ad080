"""The bulk wire codec: every label packed from, and read back into, a
record table.

:func:`encode_table` is the encoder the library runs.  It reads a
:class:`~repro.codec.table.RecordTable` rather than label objects.
Every field has a fixed width per header (``docs/FORMAT.md``), so each
distinct info, record and stack is packed once, from the table's
integer columns, into one ``(value, bits)`` Python integer by
shift-and-or; a label concatenates its stacks and embedded fields the
same way and is written with ``int.to_bytes``, zero-padded to a byte
boundary exactly as :meth:`~repro.codec.bitio.BitWriter.to_bytes`
pads.  The per-label byte strings are therefore *byte-identical* to the
reference writer :func:`repro.codec.wire.encode_labeling` —
property-tested in tier-1.  The encoder needs no numpy, and there is no
fallback: a label the format cannot carry, a value missing from the
header's dictionaries or a field wider than the header allows raises
:class:`~repro.codec.wire.CodecError`.

:func:`decode_labeling_columnar` is the one decoder, and its inverse: it
reads every label of an encoded labeling into a new record table
through the writer the prover uses, one row per distinct info, record
and stack, so a stored labeling compiles without a label object being
built.  :meth:`~repro.codec.table.RecordTable.materialize` builds the
labels from that table when something reads them.
"""

from __future__ import annotations

from repro.core.certificates import BasicInfo, ELevelRecord, PLevelRecord
from repro.courcelle.algebra import canonical_state_repr
from repro.codec.bitio import BitReader, BitStreamError
from repro.codec.table import B, E, P, T, RecordTable
from repro.codec.wire import (
    _KIND_BITS,
    _KIND_CODES,
    _KIND_NAMES,
    CodecError,
    EncodedLabel,
    EncodedLabeling,
    WireHeader,
)
from repro.pls.scheme import Labeling


def _concat(runs: list, items) -> tuple:
    """``(value, bits)`` of the ``(value, bits)`` runs of ``items``, in order."""
    value = bits = 0
    for item in items:
        run_value, run_bits = runs[item]
        value = (value << run_bits) | run_value
        bits += run_bits
    return value, bits


def _codes(index: dict, keys: list, what: str) -> list:
    """Header index of every table dictionary entry."""
    try:
        return [index[key] for key in keys]
    except KeyError as exc:
        raise CodecError(
            f"{what} {exc.args[0]!r} is not in the header table"
        ) from None


def _labels(table: RecordTable, h: WireHeader, ids, states, tags) -> list:
    """Every label's :class:`EncodedLabel`, in the table's key order.

    Infos, records and stacks are built once each, as ``(value, bits)``
    integers concatenated by shift-or: every field has a fixed width,
    and :func:`encode_table` has checked that each value fits.
    """
    w_id, w_tag, cw, nw = h.id_index_bits, h.tag_bits, h.counter_width, h.node_width
    lane_bits, class_bits = h.lane_bits, h.class_bits
    infos = []
    for kind, node, lanes, ins, outs, state in zip(
        table.i_kind, table.i_node, table.i_lanes,
        table.i_in, table.i_out, table.i_state,
    ):
        mask = 0
        for lane in lanes:
            mask |= 1 << lane
        value = (((kind << nw) | (node + 1)) << lane_bits) | mask
        for code in ins + outs:
            value = (value << w_id) | ids[code]
        infos.append((
            (value << class_bits) | states[state],
            _KIND_BITS + nw + lane_bits + 2 * len(lanes) * w_id + class_bits,
        ))

    records = [None] * len(table.r_kind)
    child_width = h.child_width
    t_fields = child_width + 3 * w_id + 2 * cw + nw
    for rid, row in zip(table.rids[T], table.rows[T]):
        info, member, subtree, kids, target, id_a, dist_a, id_b, dist_b, root = row
        value, bits = _concat(infos, (info, member, subtree))
        kids = table.children[kids]
        kid_value, kid_bits = _concat(infos, kids)
        value = (value << child_width | len(kids)) << kid_bits | kid_value
        value = (
            ((value << w_id | ids[target]) << w_id | ids[id_a]) << cw | dist_a
        )
        value = ((value << w_id | ids[id_b]) << cw | dist_b) << nw | root + 1
        records[rid] = (value, bits + kid_bits + t_fields)
    lane_index = h.lane_index_bits
    for rid, (info, left, right, i, j, tag, side) in zip(
        table.rids[B], table.rows[B]
    ):
        value, bits = _concat(infos, (info, left, right))
        value = (((((value << lane_index | i) << lane_index | j) << w_tag)
                  | tags[tag]) << 2) | (side + 1)
        records[rid] = (value, bits + 2 * lane_index + w_tag + 2)
    for rid, (info, a, b, tag) in zip(table.rids[E], table.rows[E]):
        value, bits = infos[info]
        value = (((value << w_id | ids[a]) << w_id | ids[b]) << w_tag) | tags[tag]
        records[rid] = (value, bits + 2 * w_id + w_tag)
    path_width = h.path_width
    for rid, (info, id_list, tag_list, position) in zip(
        table.rids[P], table.rows[P]
    ):
        value, bits = infos[info]
        vids = table.id_lists[id_list]
        ptags = table.tag_lists[tag_list]
        value = (value << path_width) | len(vids)
        for code in vids:
            value = (value << w_id) | ids[code]
        value = (value << path_width) | len(ptags)
        for tag in ptags:
            value = (value << w_tag) | tags[tag]
        records[rid] = (
            (value << cw) | position,
            bits + 2 * path_width + len(vids) * w_id + len(ptags) * w_tag + cw,
        )

    stacks = []
    for stack in table.stacks:
        value, bits = _concat(records, stack)
        stacks.append((len(stack) << bits | value, h.depth_width + bits))

    labels = []
    embed_width = h.embed_width
    for sid, emb in zip(table.l_stack, table.l_emb):
        value, bits = stacks[sid]
        value = (value << embed_width) | len(emb)
        bits += embed_width
        for row in emb:
            u, v, forward, backward, payload = table.embedded[row]
            value = (value << w_id | ids[u]) << w_id | ids[v]
            value = (value << cw | forward) << cw | backward
            payload_value, payload_bits = stacks[payload]
            value = (value << payload_bits) | payload_value
            bits += 2 * w_id + 2 * cw + payload_bits
        pad = -bits % 8
        labels.append(
            EncodedLabel(
                data=(value << pad).to_bytes((bits + pad) // 8, "big"),
                bit_length=bits,
            )
        )
    return labels


def encode_table(table: RecordTable, header: WireHeader) -> EncodedLabeling:
    """Encode every label of ``table`` against ``header``, in key order.

    Raises :class:`CodecError` when the table marked a field the format
    cannot carry, or when an identifier, state or tag is missing from
    the header's dictionaries.
    """
    if table.bad is not None:
        raise CodecError(table.bad)
    h = header
    short = [
        name for name, width in table.widths().items()
        if getattr(h, name) < width
    ]
    if short:
        raise CodecError(
            f"the header's {', '.join(short)} cannot carry these labels"
        )
    ids = _codes(
        h._lookup("_id_index", h.id_table, lambda x: x),
        table.id_values,
        "identifier",
    )
    states = _codes(
        h._lookup("_state_index", h.states, canonical_state_repr),
        table.state_reprs,
        "homomorphism-class state",
    )
    tags = _codes(h._lookup("_tag_index", h.tags, repr), table.tag_reprs, "tag")
    labels = dict(zip(table.keys, _labels(table, h, ids, states, tags)))
    return EncodedLabeling(header=header, labels=labels, location="edges")


def encode_labeling_columnar(labeling: Labeling, header=None):
    """Bulk twin of :func:`repro.codec.wire.encode_labeling`.

    Byte-identical output (same header, same per-label bytes and bit
    lengths): one :class:`~repro.codec.table.RecordTable` walk, then
    :func:`encode_table`.  ``header`` defaults to the table's own
    (:meth:`RecordTable.header`, equal to ``WireHeader.for_labeling``).
    """
    if labeling.location != "edges":
        raise CodecError(
            "the wire format carries edge labelings "
            f"(got location={labeling.location!r})"
        )
    mapping = labeling.mapping
    keys = list(mapping)
    table = RecordTable(keys, [mapping[key] for key in keys])
    if header is None:
        header = table.header(labeling.size_context)
    return encode_table(table, header)


class _Reader:
    """Writes the labels of one encoded labeling into a record table.

    The header's identifier, state and tag dictionaries are interned
    into the table first, in header order, so a wire code becomes a
    table code by one list lookup.  An info is read as two fields, its
    head (kind, node id, lane mask) and its body (terminal codes, state
    code), and a record as its infos and one fixed-width tail (a P record
    as its counts, lists and position).  Infos and records are keyed by
    those raw wire values, so each distinct one is unpacked, checked and
    written once, through the writer the prover uses.  Infos are then
    interned by content, as a walk interns them, so a header that repeats
    a dictionary entry still gives one row per distinct value.
    """

    def __init__(self, table: RecordTable, h: WireHeader):
        self.table = table
        self.ids = [table.code(x) for x in h.id_table]
        self.states = [table.state_code(state) for state in h.states]
        self.tags = [table.tag_code(tag) for tag in h.tags]
        w_id, w_tag, cw, nw = (
            h.id_index_bits, h.tag_bits, h.counter_width, h.node_width
        )
        self.w_id, self.w_tag, self.cw = w_id, w_tag, cw
        self.class_bits, self.path_width = h.class_bits, h.path_width
        self.depth_width, self.embed_width = h.depth_width, h.embed_width
        self.child_width = h.child_width
        self.head = (_KIND_BITS, nw, h.lane_bits)
        self.t_tail = (w_id, w_id, cw, w_id, cw, nw)
        self.b_tail = (h.lane_index_bits, h.lane_index_bits, w_tag, 2)
        self.e_tail = (w_id, w_id, w_tag)
        self.head_width, self.t_width, self.b_width, self.e_width = (
            sum(fields)
            for fields in (self.head, self.t_tail, self.b_tail, self.e_tail)
        )
        self._heads = {}  # head -> (body width, {body: info id}, fields)
        self._infos = {}  # content -> info id
        # Wire key -> record id; a key's first info fixes its kind.
        self._records = {}

    def label(self, key, data: bytes, bit_length) -> None:
        r = BitReader(data, bit_length)
        read = r.read
        table, ids, w_id, cw = self.table, self.ids, self.w_id, self.cw
        stack = self._stack(read)
        rows = []
        for _ in range(read(self.embed_width)):
            u = ids[read(w_id)]
            v = ids[read(w_id)]
            forward = read(cw)
            backward = read(cw)
            payload = self._stack(read)
            rows.append(table.add_embedded(u, v, forward, backward, payload))
        if bit_length is not None and r.position != bit_length:
            raise CodecError(
                f"trailing data: read {r.position} of {bit_length} bits"
            )
        table.add_label(key, stack, tuple(rows))

    def _stack(self, read) -> int:
        depth = read(self.depth_width)
        if depth < 1:
            raise CodecError("certificate stack cannot be empty")
        record = self._record
        return self.table.add_stack(tuple([record(read) for _ in range(depth)]))

    def _record(self, read) -> int:
        info_of = self._info
        info = info_of(read)
        kind = self.table.i_kind[info]
        if kind == _T_CODE:
            member, subtree = info_of(read), info_of(read)
            kids = tuple([info_of(read) for _ in range(read(self.child_width))])
            key, new = (info, member, subtree, kids, read(self.t_width)), self._t
        elif kind == _B_CODE:
            left, right = info_of(read), info_of(read)
            key, new = (info, left, right, read(self.b_width)), self._b
        elif kind == _E_CODE:
            key, new = (info, read(self.e_width)), self._e
        elif kind == _P_CODE:
            count = read(self.path_width)
            ids = (count, read(count * self.w_id))
            count = read(self.path_width)
            tags = (count, read(count * self.w_tag))
            key, new = (info, ids, tags, read(self.cw)), self._p
        else:
            raise CodecError(
                f"record cannot start with a {_KIND_NAMES[kind]!r} node info"
            )
        rid = self._records.get(key)
        if rid is None:
            rid = self._records[key] = new(*key)
        return rid

    def _t(self, info, member, subtree, kids, tail) -> int:
        table, ids, field = self.table, self.ids, self.table.field
        target, id_a, dist_a, id_b, dist_b, root = _split(tail, self.t_tail)
        return table.add_record("T", (
            info, member, subtree, table.children_id(kids),
            ids[target], ids[id_a], field(dist_a, 0, "pointer distance"),
            ids[id_b], field(dist_b, 0, "pointer distance"),
            field(root - 1, -1, "root member id"),
        ))

    def _b(self, info, left, right, tail) -> int:
        i, j, tag, side = _split(tail, self.b_tail)
        if side == 3:
            raise CodecError("bridge side bits 11 are out of range")
        row = (info, left, right, i, j, self.tags[tag], side - 1)
        return self.table.add_record("B", row)

    def _e(self, info, tail) -> int:
        table, ids = self.table, self.ids
        a, b, tag = _split(tail, self.e_tail)
        values = table.id_values
        return table.add_leaf(ELevelRecord(
            info=table.infos[info],
            in_id=values[ids[a]],
            out_id=values[ids[b]],
            tag=table.tags[self.tags[tag]],
        ))

    def _p(self, info, ids, tags, position) -> int:
        table = self.table
        vertex_ids = _split(ids[1], (self.w_id,) * ids[0])
        path_tags = _split(tags[1], (self.w_tag,) * tags[0])
        return table.add_leaf(PLevelRecord(
            info=table.infos[info],
            vertex_ids=tuple([table.id_values[self.ids[x]] for x in vertex_ids]),
            tags=tuple([table.tags[self.tags[tag]] for tag in path_tags]),
            position=position,
        ))

    def _info(self, read) -> int:
        head = read(self.head_width)
        entry = self._heads.get(head)
        if entry is None:
            entry = self._heads[head] = self._head(head)
        body = read(entry[0])
        iid = entry[1].get(body)
        if iid is None:
            iid = entry[1][body] = self._new_info(entry[2], body)
        return iid

    def _head(self, head: int) -> tuple:
        """``(body width, {}, (kind, node id, lanes))`` of an info head."""
        kind, node, mask = _split(head, self.head)
        if kind not in _KIND_NAMES:
            raise CodecError(f"invalid kind code {kind}")
        lanes = tuple([lane for lane in range(self.head[2]) if mask >> lane & 1])
        width = 2 * len(lanes) * self.w_id + self.class_bits
        return width, {}, (kind, node - 1, lanes)

    def _new_info(self, fields: tuple, body: int) -> int:
        kind, node, lanes = fields
        table, ids, count = self.table, self.ids, len(lanes)
        widths = (self.w_id,) * (2 * count) + (self.class_bits,)
        *codes, state = _split(body, widths)
        ins = tuple([ids[code] for code in codes[:count]])
        outs = tuple([ids[code] for code in codes[count:]])
        content = (kind, node, lanes, ins, outs, self.states[state])
        iid = self._infos.get(content)
        if iid is None:
            values = table.id_values
            iid = self._infos[content] = table.add_info(BasicInfo(
                kind=_KIND_NAMES[kind],
                node_id=node,
                lanes=lanes,
                in_ids=tuple(zip(lanes, [values[code] for code in ins])),
                out_ids=tuple(zip(lanes, [values[code] for code in outs])),
                state=table.states[content[5]],
            ))
        return iid


def _split(bits: int, widths: tuple) -> list:
    """The fields of ``widths`` packed MSB-first into ``bits``."""
    fields = [0] * len(widths)
    for slot in range(len(widths) - 1, -1, -1):
        fields[slot] = bits & ((1 << widths[slot]) - 1)
        bits >>= widths[slot]
    return fields


_T_CODE, _B_CODE, _E_CODE, _P_CODE = (_KIND_CODES[kind] for kind in "TBEP")


def decode_labeling_columnar(encoded: EncodedLabeling) -> RecordTable:
    """The one decoder: every label of ``encoded`` read into a new
    :class:`~repro.codec.table.RecordTable`, in the labeling's key
    order.

    It builds no label object but the table's own info and E/P leaf
    rows; :meth:`RecordTable.materialize
    <repro.codec.table.RecordTable.materialize>` builds the labels when
    something reads them, and :func:`encode_table` against the same
    header gives back the same bytes.  Raises
    :class:`~repro.codec.wire.CodecError` on a malformed stream (a
    truncated or over-long label, an empty stack, an unknown kind code,
    a code past its dictionary) and on a value the table's field rule
    refuses: a header identifier that is not a plain ``int`` in
    ``(-2**60, 2**60)``, an unhashable header state or tag, B-record
    side bits ``11``, or a node id or counter of ``2**60`` or more.
    """
    table = RecordTable([])
    try:
        reader = _Reader(table, encoded.header)
        for key, label in encoded.labels.items():
            reader.label(key, label.data, label.bit_length)
    except (BitStreamError, IndexError) as exc:
        raise CodecError(f"malformed label encoding: {exc}") from exc
    table.close()
    return table
