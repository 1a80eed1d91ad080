"""The bulk wire encoder: every label packed from its record table.

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
"""

from __future__ import annotations

from repro.courcelle.algebra import canonical_state_repr
from repro.codec.table import B, E, P, T, RecordTable
from repro.codec.wire import (
    _KIND_BITS,
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
