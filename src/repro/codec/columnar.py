"""Columnar bulk encoder: one interning pass over a whole labeling.

:class:`ColumnarEncoder` is the encoder the library runs: instead of
running one pure-Python :class:`~repro.codec.bitio.BitWriter` loop per
label, it packs every field of every label into one flat
interleaved column of ``(payload << 6) | payload_bits`` integers —
memoizing each distinct info / record / certificate object's packed
run by identity, so shared sub-structure is walked once and replayed
as an O(1) list extend — and emits the whole labeling in a single
numpy pass (:meth:`~repro.codec.bitio.BitWriter.write_many`).  Each
label is zero-padded to a byte boundary inside the column (exactly the
padding :meth:`BitWriter.to_bytes` would emit), so the per-label byte
strings are *byte-identical* to the reference writer
:func:`repro.codec.wire.encode_labeling` — property-tested in tier-1.
There is no fallback: without numpy the same column goes through
``write_many``'s scalar loop, a field wider than one column entry is
split across entries, and a value missing from the header's
dictionaries raises :class:`~repro.codec.wire.CodecError`.
"""

from __future__ import annotations

from repro.core.certificates import (
    BLevelRecord,
    ELevelRecord,
    PLevelRecord,
    Theorem1Label,
    TLevelRecord,
)
from repro.codec.bitio import BitStreamError, BitWriter
from repro.codec.bitio import _np
from repro.courcelle.algebra import canonical_state_repr
from repro.codec.wire import (
    _KIND_BITS,
    _KIND_CODES,
    CodecError,
    EncodedLabel,
    EncodedLabeling,
    WireHeader,
    _EncodeMemo,
)
from repro.pls.scheme import Labeling


_PACK_LIMIT = 57  # max payload bits per interleaved column entry


def _pack_fields(values, widths, out) -> int:
    """Validate and pack raw ``(value, width)`` fields into ``out``.

    Each appended entry interleaves up to 57 payload bits with the
    entry's own bit count in one non-negative ``int64``-sized integer:
    ``(payload << 6) | payload_bits``.  Splitting points are invisible
    on the wire — concatenating the entries' payloads MSB-first yields
    exactly the raw field sequence — so any grouping preserves byte
    identity.  A field wider than the limit spans several entries,
    MSB-first.  Returns the total payload bit count.  Raises
    :class:`BitStreamError` on a value/width mismatch (mirroring
    :meth:`BitWriter.write`).
    """
    acc = 0
    bits = 0
    total = 0
    for v, w in zip(values, widths):
        if v < 0 or v >> w:
            raise BitStreamError(f"value {v} does not fit in {w} bits")
        total += w
        if bits + w > _PACK_LIMIT:
            if bits:
                out.append((acc << 6) | bits)
                acc = 0
                bits = 0
            while w > _PACK_LIMIT:
                w -= _PACK_LIMIT
                out.append(((v >> w) << 6) | _PACK_LIMIT)
                v &= (1 << w) - 1
        acc = (acc << w) | v
        bits += w
    if bits:
        out.append((acc << 6) | bits)
    return total


class ColumnarEncoder:
    """Shared interning state for one bulk encode (one header).

    Mirrors the reference ``_encode_*`` functions field-for-field, but
    instead of writing bits eagerly it packs fields into one flat
    interleaved column (:func:`_pack_fields`).  Each distinct info /
    record / certificate object's packed run is built once (keyed by
    identity, like ``_EncodeMemo``) and replayed by list extension, so
    a certificate shared by a thousand edges is walked exactly once and
    replays as a handful of integer appends.
    """

    __slots__ = (
        "header",
        "_runs",
        "_record_runs",
        "_cert_runs",
        "_tails",
        "_t_tail_widths",
        "_b_widths",
        "_e_widths",
        "_b_total",
        "_e_total",
        "_info_widths",
        "_w_id",
        "_w_class",
        "_w_tag",
        "_w_lane_index",
        "_ids",
        "_tag_index",
        "_state_index",
        "_state_codes",
        "_canonical",
    )

    def __init__(self, header: WireHeader, memo=None):
        self.header = header
        # Only the canonical-state cache of the header walk's memo is
        # used; sharing it resolves each state's canonical form once.
        self._canonical = (memo or _EncodeMemo()).canonical
        # Identity-keyed packed runs (see _pack_fields for the entry
        # format).  id(info) / id(record) / id(cert) -> (obj, packed
        # tuple, payload bits).  Element 0 pins the keyed object so the
        # id() key stays valid for the cache's lifetime.
        self._runs = {}
        self._record_runs = {}
        self._cert_runs = {}
        # pad width -> the shared "no embedded records" label tail.
        self._tails = {}
        # The derived widths are recomputed properties on the header;
        # the bulk walk touches them per field, so snapshot them once —
        # likewise the raw lookup dicts behind id/tag/state_code.
        self._w_id = header.id_index_bits
        self._w_class = header.class_bits
        self._w_tag = header.tag_bits
        self._w_lane_index = header.lane_index_bits
        self._ids = header._lookup("_id_index", header.id_table, lambda x: x)
        self._tag_index = header._lookup("_tag_index", header.tags, repr)
        self._state_index = header._lookup(
            "_state_index", header.states, canonical_state_repr
        )
        # id(state) -> (state, code): resolves each distinct state
        # object's class index exactly once per encoder.
        self._state_codes = {}
        cw = header.counter_width
        # Fixed scalar-field width patterns (pointer + root id tail of a
        # T record; the B and E scalar groups).
        self._t_tail_widths = (
            self._w_id,
            self._w_id,
            cw,
            self._w_id,
            cw,
            header.node_width,
        )
        self._b_widths = (
            self._w_lane_index,
            self._w_lane_index,
            self._w_tag,
            2,
        )
        self._e_widths = (self._w_id, self._w_id, self._w_tag)
        # Inline fast-path totals for the fixed scalar groups: usable
        # only when the whole group fits one packed entry.
        e_total = sum(self._e_widths)
        self._e_total = e_total if e_total <= _PACK_LIMIT else None
        b_total = sum(self._b_widths)
        self._b_total = b_total if b_total <= _PACK_LIMIT else None
        # number of id fields -> the info width pattern.
        self._info_widths = {}

    # -- field-run builders (same order as the reference encoders) ----
    def _info_run(self, info):
        """``(info, packed tuple, payload bits)``, cached by identity."""
        hit = self._runs.get(id(info))
        if hit is None:
            kind_code = _KIND_CODES.get(info.kind)
            if kind_code is None:
                raise CodecError(f"unknown node kind {info.kind!r}")
            mask = 0
            for lane in info.lanes:
                mask |= 1 << lane
            ids = self._ids
            state = info.state
            codes = self._state_codes
            chit = codes.get(id(state))
            if chit is None:
                chit = (state, self._state_index[self._canonical(state)])
                codes[id(state)] = chit
            vals = [kind_code, info.node_id + 1, mask]
            vals += [ids[x] for _lane, x in info.in_ids]
            vals += [ids[x] for _lane, x in info.out_ids]
            vals.append(chit[1])
            id_fields = len(info.in_ids) + len(info.out_ids)
            widths = self._info_widths.get(id_fields)
            if widths is None:
                h = self.header
                widths = (
                    (_KIND_BITS, h.node_width, h.lane_bits)
                    + (self._w_id,) * id_fields
                    + (self._w_class,)
                )
                self._info_widths[id_fields] = widths
            out = []
            bits = _pack_fields(vals, widths, out)
            hit = (info, tuple(out), bits)
            self._runs[id(info)] = hit
        return hit

    def _build_record(self, record, out) -> int:
        """Append ``record``'s packed run to ``out``; return its bits."""
        h = self.header
        runs = self._runs
        info_run = self._info_run
        info = record.info
        hit = runs.get(id(info)) or info_run(info)
        out += hit[1]
        bits = hit[2]
        if isinstance(record, TLevelRecord):
            info = record.member_info
            hit = runs.get(id(info)) or info_run(info)
            out += hit[1]
            bits += hit[2]
            info = record.member_subtree
            hit = runs.get(id(info)) or info_run(info)
            out += hit[1]
            bits += hit[2]
            count = len(record.child_subtrees)
            width = h.child_width
            if count >> width or width > _PACK_LIMIT:
                bits += _pack_fields((count,), (width,), out)
            else:
                out.append((count << 6) | width)
                bits += width
            for child in record.child_subtrees:
                hit = runs.get(id(child)) or info_run(child)
                out += hit[1]
                bits += hit[2]
            pointer = record.pointer
            ids = self._ids
            bits += _pack_fields(
                (
                    ids[pointer.target_id],
                    ids[pointer.id_a],
                    pointer.dist_a,
                    ids[pointer.id_b],
                    pointer.dist_b,
                    record.root_member_id + 1,
                ),
                self._t_tail_widths,
                out,
            )
        elif isinstance(record, BLevelRecord):
            info = record.left
            hit = runs.get(id(info)) or info_run(info)
            out += hit[1]
            bits += hit[2]
            info = record.right
            hit = runs.get(id(info)) or info_run(info)
            out += hit[1]
            bits += hit[2]
            i, j = record.bridge
            tag = self._tag_index[repr(record.bridge_tag)]
            side = record.side + 1
            total = self._b_total
            w_lane = self._w_lane_index
            w_tag = self._w_tag
            if (
                total is None
                or i < 0
                or i >> w_lane
                or j < 0
                or j >> w_lane
                or side < 0
                or side >> 2
            ):
                bits += _pack_fields(
                    (i, j, tag, side), self._b_widths, out
                )
            else:
                out.append(
                    ((((i << w_lane | j) << w_tag | tag) << 2 | side) << 6)
                    | total
                )
                bits += total
        elif isinstance(record, ELevelRecord):
            ids = self._ids
            a = ids[record.in_id]
            b = ids[record.out_id]
            tag = self._tag_index[repr(record.tag)]
            total = self._e_total
            w_id = self._w_id
            w_tag = self._w_tag
            if total is None or tag >> w_tag:
                bits += _pack_fields(
                    (a, b, tag), self._e_widths, out
                )
            else:
                out.append(
                    (((a << w_id | b) << w_tag | tag) << 6) | total
                )
                bits += total
        elif isinstance(record, PLevelRecord):
            ids = self._ids
            tag_index = self._tag_index
            vals = [len(record.vertex_ids)]
            vals += [ids[x] for x in record.vertex_ids]
            vals.append(len(record.tags))
            vals += [tag_index[repr(tag)] for tag in record.tags]
            vals.append(record.position)
            widths = (
                (h.path_width,)
                + (self._w_id,) * len(record.vertex_ids)
                + (h.path_width,)
                + (self._w_tag,) * len(record.tags)
                + (h.counter_width,)
            )
            bits += _pack_fields(vals, widths, out)
        else:
            raise CodecError(
                f"unknown record type {type(record).__name__}"
            )
        return bits

    def _record_run(self, record):
        """``(record, packed tuple, payload bits)``, cached."""
        hit = self._record_runs.get(id(record))
        if hit is None:
            out = []
            bits = self._build_record(record, out)
            hit = (record, tuple(out), bits)
            self._record_runs[id(record)] = hit
        return hit

    def _cert_run(self, cert):
        """One certificate's full run: depth field + stacked records.

        Assembled by replaying the member records' cached packed runs —
        record stacks share suffixes aggressively (the builder's
        stack-sharing), so each distinct record's Python fields are
        touched exactly once per encode and a certificate replays as a
        single small tuple extend.
        """
        hit = self._cert_runs.get(id(cert))
        if hit is None:
            out = []
            depth = len(cert.stack)
            width = self.header.depth_width
            if depth >> width or width > _PACK_LIMIT:
                bits = _pack_fields((depth,), (width,), out)
            else:
                out.append((depth << 6) | width)
                bits = width
            record_runs = self._record_runs
            record_run = self._record_run
            for record in cert.stack:
                rhit = record_runs.get(id(record)) or record_run(record)
                out += rhit[1]
                bits += rhit[2]
            hit = (cert, tuple(out), bits)
            self._cert_runs[id(cert)] = hit
        return hit

    # ------------------------------------------------------------------
    def encode(self, labeling: Labeling) -> EncodedLabeling:
        """Bulk-encode ``labeling`` against this encoder's header.

        Raises :class:`CodecError` for a label that is not a
        ``Theorem1Label`` or mentions an identifier, tag or state the
        header's dictionaries do not hold.
        """
        try:
            keys, bit_lengths, column = self._column(labeling)
        except KeyError as exc:
            raise CodecError(
                f"{exc.args[0]!r} is not in the header's dictionaries"
            ) from None
        if _np is None:
            # BitWriter's scalar loop writes the same stream.
            values = [entry >> 6 for entry in column]
            widths = [entry & 63 for entry in column]
        else:
            col = _np.fromiter(column, _np.int64, len(column))
            values, widths = col >> 6, col & 63
        writer = BitWriter()
        writer.write_many(values, widths)
        data = writer.to_bytes()
        labels = {}
        offset = 0
        for key, bits in zip(keys, bit_lengths):
            nbytes = (bits + 7) // 8
            labels[key] = EncodedLabel(
                data=data[offset:offset + nbytes], bit_length=bits
            )
            offset += nbytes
        return EncodedLabeling(
            header=self.header, labels=labels, location=labeling.location
        )

    def _column(self, labeling: Labeling):
        """Every label's packed fields, in one byte-aligned column.

        Returns ``(keys, bit lengths, column)``; each label's run is
        zero-padded to a byte boundary inside the column.
        """
        h = self.header
        counter_width = h.counter_width
        embed_width = h.embed_width
        w_id = self._w_id
        ids = self._ids
        column = []
        keys = []
        bit_lengths = []
        cert_runs = self._cert_runs
        cert_run = self._cert_run
        tails = self._tails
        embed_widths = (w_id, w_id, counter_width, counter_width)
        embed_total = 2 * w_id + 2 * counter_width
        if embed_total > _PACK_LIMIT:
            embed_total = None
        for key, label in labeling.mapping.items():
            if not isinstance(label, Theorem1Label):
                raise CodecError(
                    f"expected a Theorem1Label, got {type(label).__name__}"
                )
            keys.append(key)
            cert = label.certificate
            chit = cert_runs.get(id(cert)) or cert_run(cert)
            column += chit[1]
            bits = chit[2]
            if label.embedded:
                count = len(label.embedded)
                if count >> embed_width or embed_width > _PACK_LIMIT:
                    bits += _pack_fields((count,), (embed_width,), column)
                else:
                    column.append((count << 6) | embed_width)
                    bits += embed_width
                for record in label.embedded:
                    fwd = record.forward
                    bwd = record.backward
                    if (
                        embed_total is None
                        or fwd < 0
                        or fwd >> counter_width
                        or bwd < 0
                        or bwd >> counter_width
                    ):
                        bits += _pack_fields(
                            (
                                ids[record.u_id],
                                ids[record.v_id],
                                fwd,
                                bwd,
                            ),
                            embed_widths,
                            column,
                        )
                    else:
                        column.append(
                            (
                                (
                                    (
                                        (ids[record.u_id] << w_id)
                                        | ids[record.v_id]
                                    )
                                    << counter_width
                                    | fwd
                                )
                                << counter_width
                                | bwd
                            )
                            << 6
                            | embed_total
                        )
                        bits += embed_total
                    payload = record.payload
                    phit = cert_runs.get(id(payload)) or cert_run(payload)
                    column += phit[1]
                    bits += phit[2]
                pad = -bits % 8
                if pad:
                    # The zero padding BitWriter.to_bytes() appends:
                    # every label starts byte-aligned in the column
                    # (packed entry: payload 0, ``pad`` payload bits).
                    column.append(pad)
            else:
                bits += embed_width
                pad = -bits % 8
                tail = tails.get(pad)
                if tail is None:
                    grow = []
                    _pack_fields((0,), (embed_width,), grow)
                    if pad:
                        grow.append(pad)
                    tail = tuple(grow)
                    tails[pad] = tail
                column += tail
            bit_lengths.append(bits)
        return keys, bit_lengths, column


def encode_labeling_columnar(labeling: Labeling, header=None):
    """Bulk twin of :func:`repro.codec.wire.encode_labeling`.

    Byte-identical output (same header, same per-label bytes and bit
    lengths); the only difference is cost — one interned field-column
    pass plus a single vectorized packing instead of a per-label bit
    loop.  This is the encoder the library runs.
    """
    memo = _EncodeMemo()
    if header is None:
        header = WireHeader.for_labeling(labeling, memo)
    return ColumnarEncoder(header, memo).encode(labeling)
