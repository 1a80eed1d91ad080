"""The versioned certificate wire format (v1).

This module turns a :class:`~repro.core.certificates.Theorem1Label` into
an actual byte string and back, making the encoded form — not the Python
object graph — the ground truth for every size claim.  The full field
layout is specified in ``docs/FORMAT.md``; the short version:

* A :class:`WireHeader` is built once per labeling.  It carries the
  shared knowledge the paper's model grants both parties (the network
  size ``n``, the homomorphism-class table — prover and verifier share
  the algebra, so classes are shipped as ``ceil(log2 |C|)``-bit indices
  exactly as the :class:`~repro.pls.bits.ClassIndexer` accounts them),
  plus the dictionaries and field widths the decoder needs: the
  identifier table, tag table, lane-mask width, and the widths of every
  counter-like field.
* Each label is encoded against that header by :func:`encode_label` as a
  stand-alone MSB-first bit string: the ownership-path record stack,
  then the embedded virtual-edge records.  That per-label writer is the
  reference: the library encodes from a
  :class:`~repro.codec.table.RecordTable` through the bulk encoder of
  :mod:`repro.codec.columnar`, which is tested byte-identical to it.
  The one decoder, :func:`~repro.codec.columnar.decode_labeling_columnar`,
  lives there too: it reads the bits straight back into a record table,
  and :meth:`~repro.codec.table.RecordTable.materialize` builds the
  labels from it, so decoding what was encoded gives back the same
  labels (a tier-1 property test).
* :class:`EncodedLabeling` holds a whole encoded
  :class:`~repro.pls.scheme.Labeling` and reports *measured* sizes (the
  exact bit counts of the encodings, padding excluded), which
  :class:`~repro.api.results.CertificationReport` now quotes instead of
  the arithmetic estimate of ``label_bits``.  The measured figure is
  asserted ``<=`` the accounted one in the tier-1 suite.

Identifier fields deserve a note.  The simulator draws identifiers from
a ``2^32`` universe to model adversarial freedom, while the paper (and
the accounting in :mod:`repro.pls.bits`) treats them as Θ(log n)-bit
values.  The wire format reconciles the two the same way the class
indexer does: the header carries the sorted table of identifiers that
actually occur, and labels store ``ceil(log2 |table|)``-bit indices —
never more than the accounted ``id_bits``.  Decoding restores the exact
32-bit values, so round-trips are lossless.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

from repro.core.certificates import (
    BasicInfo,
    BLevelRecord,
    EdgeCertificate,
    ELevelRecord,
    PLevelRecord,
    Theorem1Label,
    TLevelRecord,
    dict_init,
)
from repro.courcelle.algebra import canonical_state_repr
from repro.pls.bits import SizeContext
from repro.pls.pointer import PointerLabel
from repro.pls.scheme import Labeling

from repro.codec.bitio import BitWriter, width_for, width_for_value

#: Current wire-format version; bumped on any layout change (FORMAT.md
#: records the versioning rules).
WIRE_VERSION = 1

#: 3-bit node-kind codes, shared with the ``_KIND_BITS`` accounting.
_KIND_CODES = {"V": 0, "E": 1, "P": 2, "B": 3, "T": 4}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}
_KIND_BITS = 3

#: Byte lengths of a label's key repr, bytes and bit-length digits, the
#: frame :func:`labeling_digest` puts before each label's fields.
_FIELD_LENGTHS = struct.Struct(">QQQ")


class CodecError(ValueError):
    """Raised on labels the format cannot carry or malformed streams."""


class _Collector:
    """Accumulates the header dictionaries from a deterministic walk.

    The prover shares sub-objects across edges (one ``BasicInfo`` per
    hierarchy node, whole stacks as embedded payloads), so the walk
    skips every info, record and certificate it has visited — a revisit
    adds the same maxima and entries again — and resolves each state's
    canonical form once.  Both caches key on ``id()`` and pin their
    objects, so an id is never reused while the walk runs.
    """

    def __init__(self):
        self._seen = {}  # id(obj) -> obj
        self._canon = {}  # id(state) -> (state, canonical form)
        self.ids = set()
        self.states = []  # first-seen order
        self._state_index = {}  # repr(state) -> index
        self.tags = []
        self._tag_index = {}
        self.max_lane = 0
        self.max_node_id = 0  # of node_id + 1 (node_id may be -1)
        self.max_counter = 0
        self.max_depth = 0
        self.max_embedded = 0
        self.max_path = 0
        self.max_children = 0

    def _revisit(self, obj) -> bool:
        if id(obj) in self._seen:
            return True
        self._seen[id(obj)] = obj
        return False

    def counter(self, value: int) -> None:
        if value < 0:
            raise CodecError(f"counter field cannot be negative ({value})")
        self.max_counter = max(self.max_counter, value)

    def tag(self, tag) -> None:
        key = repr(tag)
        if key not in self._tag_index:
            self._tag_index[key] = len(self.tags)
            self.tags.append(tag)

    def info(self, info: BasicInfo) -> None:
        if self._revisit(info):
            return
        if info.kind not in _KIND_CODES:
            raise CodecError(f"unknown node kind {info.kind!r}")
        if info.node_id < -1:
            raise CodecError(f"node id {info.node_id} below -1")
        self.max_node_id = max(self.max_node_id, info.node_id + 1)
        lanes = info.lanes
        if tuple(sorted(set(lanes))) != tuple(lanes):
            raise CodecError(f"lane set {lanes!r} is not sorted and distinct")
        if lanes:
            if lanes[0] < 0:
                raise CodecError(f"negative lane number in {lanes!r}")
            self.max_lane = max(self.max_lane, lanes[-1])
        for ids in (info.in_ids, info.out_ids):
            if tuple(lane for lane, _x in ids) != lanes:
                raise CodecError(
                    "terminal identifiers must list exactly the lane set "
                    f"in order (lanes {lanes!r}, got {ids!r})"
                )
            for _lane, x in ids:
                self.ids.add(x)
        # Canonical form, not raw repr: states that crossed a process
        # boundary (pool-resident per-property proving) must dedupe into
        # the same dictionary slot as their locally built equals.
        hit = self._canon.get(id(info.state))
        if hit is None:
            hit = (info.state, canonical_state_repr(info.state))
            self._canon[id(info.state)] = hit
        key = hit[1]
        if key not in self._state_index:
            self._state_index[key] = len(self.states)
            self.states.append(info.state)

    def pointer(self, pointer: PointerLabel) -> None:
        self.ids.update((pointer.target_id, pointer.id_a, pointer.id_b))
        self.counter(pointer.dist_a)
        self.counter(pointer.dist_b)

    def record(self, record) -> None:
        if self._revisit(record):
            return
        self.info(record.info)
        if isinstance(record, TLevelRecord):
            if record.info.kind != "T":
                raise CodecError("T record with non-T basic info")
            self.info(record.member_info)
            self.info(record.member_subtree)
            self.max_children = max(
                self.max_children, len(record.child_subtrees)
            )
            for child in record.child_subtrees:
                self.info(child)
            self.pointer(record.pointer)
            if record.root_member_id < -1:
                raise CodecError(
                    f"root member id {record.root_member_id} below -1"
                )
            self.max_node_id = max(self.max_node_id, record.root_member_id + 1)
        elif isinstance(record, BLevelRecord):
            if record.info.kind != "B":
                raise CodecError("B record with non-B basic info")
            self.info(record.left)
            self.info(record.right)
            i, j = record.bridge
            if i < 0 or j < 0:
                raise CodecError(f"negative bridge lane in {record.bridge!r}")
            self.max_lane = max(self.max_lane, i, j)
            self.tag(record.bridge_tag)
            if record.side not in (-1, 0, 1):
                raise CodecError(f"bridge side {record.side!r} out of range")
        elif isinstance(record, ELevelRecord):
            if record.info.kind != "E":
                raise CodecError("E record with non-E basic info")
            self.ids.update((record.in_id, record.out_id))
            self.tag(record.tag)
        elif isinstance(record, PLevelRecord):
            if record.info.kind != "P":
                raise CodecError("P record with non-P basic info")
            self.ids.update(record.vertex_ids)
            self.max_path = max(
                self.max_path, len(record.vertex_ids), len(record.tags)
            )
            for tag in record.tags:
                self.tag(tag)
            self.counter(record.position)
        else:
            raise CodecError(
                f"unknown record type {type(record).__name__}"
            )

    def certificate(self, cert: EdgeCertificate) -> None:
        if self._revisit(cert):
            return
        if not cert.stack:
            raise CodecError("empty certificate stack")
        self.max_depth = max(self.max_depth, len(cert.stack))
        for record in cert.stack:
            self.record(record)

    def label(self, label) -> None:
        if not isinstance(label, Theorem1Label):
            raise CodecError(
                "the v1 wire format carries Theorem1Label certificates "
                f"only (got {type(label).__name__})"
            )
        self.certificate(label.certificate)
        self.max_embedded = max(self.max_embedded, len(label.embedded))
        for record in label.embedded:
            self.ids.update((record.u_id, record.v_id))
            self.counter(record.forward)
            self.counter(record.backward)
            self.certificate(record.payload)


@dataclass(frozen=True)
class WireHeader:
    """Shared decoding context for one encoded labeling (format v1).

    The header is the out-of-band half of the format: dictionaries
    (identifiers, homomorphism-class states, edge tags) plus the field
    widths every label is encoded against.  It is *not* charged to the
    per-label bit counts — it models the shared knowledge of the PLS
    setting (the algebra, hence the class set, and the network size),
    and the identifier dictionary replaces each Θ(log n)-bit identifier
    field with an index of at most the same width (see module docstring).
    """

    version: int
    #: Network size and identifier-universe width (rebuild SizeContext).
    n: int
    universe_bits: int
    #: Class count declared by the prover's indexer (>= ``len(states)``).
    class_count: int
    #: Sorted table of the raw vertex identifiers that occur.
    id_table: tuple
    #: Homomorphism-class states in first-seen order (index = wire code).
    states: tuple
    #: Edge-tag dictionary in first-seen order.
    tags: tuple
    #: Lane bitmask width (max lane number + 1).
    lane_bits: int
    #: Field widths (bits) for the counter-like fields.
    node_width: int
    counter_width: int
    depth_width: int
    embed_width: int
    path_width: int
    child_width: int

    # Derived lookup tables (not part of equality/serialized state).
    _id_index: dict = field(
        default=None, repr=False, compare=False, hash=False
    )
    _state_index: dict = field(
        default=None, repr=False, compare=False, hash=False
    )
    _tag_index: dict = field(
        default=None, repr=False, compare=False, hash=False
    )

    # ------------------------------------------------------------------
    @classmethod
    def for_labeling(cls, labeling: Labeling) -> "WireHeader":
        """Build the header for one labeling's label set.

        The reference walk the per-label oracle uses; the library
        derives the same header from its record table
        (:meth:`repro.codec.table.RecordTable.header`).
        """
        if labeling.location != "edges":
            raise CodecError(
                "the wire format carries edge labelings "
                f"(got location={labeling.location!r})"
            )
        collector = _Collector()
        for key in sorted(labeling.mapping, key=repr):
            collector.label(labeling.mapping[key])
        ctx = labeling.size_context
        class_count = max(
            getattr(ctx, "class_count", 1), len(collector.states), 1
        )
        return cls(
            version=WIRE_VERSION,
            n=ctx.n,
            universe_bits=getattr(ctx, "universe_bits", 32),
            class_count=class_count,
            id_table=tuple(sorted(collector.ids)),
            states=tuple(collector.states),
            tags=tuple(collector.tags),
            lane_bits=max(1, collector.max_lane + 1),
            node_width=width_for_value(collector.max_node_id),
            counter_width=max(
                width_for_value(max(ctx.n, collector.max_counter)), 1
            ),
            depth_width=width_for_value(max(collector.max_depth, 1)),
            embed_width=width_for_value(max(collector.max_embedded, 1)),
            path_width=width_for_value(max(collector.max_path, 1)),
            child_width=width_for_value(max(collector.max_children, 1)),
        )

    def __post_init__(self):
        if self.version != WIRE_VERSION:
            raise CodecError(
                f"unsupported wire format version {self.version} "
                f"(this build speaks v{WIRE_VERSION})"
            )

    # -- derived widths and lookups ------------------------------------
    @property
    def id_index_bits(self) -> int:
        """Width of one identifier-dictionary index field."""
        return width_for(len(self.id_table))

    @property
    def class_bits(self) -> int:
        """Width of one homomorphism-class index field."""
        return width_for(len(self.states))

    @property
    def tag_bits(self) -> int:
        """Width of one edge-tag index field."""
        return width_for(len(self.tags))

    @property
    def lane_index_bits(self) -> int:
        """Width of one bridge-lane number field."""
        return width_for(self.lane_bits)

    def _lookup(self, attr, table, key_of):
        cache = getattr(self, attr)
        if cache is None:
            cache = {key_of(item): i for i, item in enumerate(table)}
            object.__setattr__(self, attr, cache)
        return cache

    def id_code(self, identifier) -> int:
        try:
            return self._lookup("_id_index", self.id_table, lambda x: x)[
                identifier
            ]
        except KeyError:
            raise CodecError(
                f"identifier {identifier!r} is not in the header table"
            ) from None

    def state_code(self, state) -> int:
        try:
            return self._lookup(
                "_state_index", self.states, canonical_state_repr
            )[canonical_state_repr(state)]
        except KeyError:
            raise CodecError(
                "homomorphism-class state is not in the header table"
            ) from None

    def tag_code(self, tag) -> int:
        try:
            return self._lookup("_tag_index", self.tags, repr)[repr(tag)]
        except KeyError:
            raise CodecError(f"tag {tag!r} is not in the header table") from None

    def size_context(self) -> SizeContext:
        """Rebuild the accounting context the labeling was sized under."""
        return SizeContext(
            self.n, self.universe_bits, class_count=self.class_count
        )


# ----------------------------------------------------------------------
# Encoding: the reference writer, one label at a time through BitWriter.
# ----------------------------------------------------------------------
def _encode_info(w: BitWriter, info: BasicInfo, h: WireHeader) -> None:
    w.write(_KIND_CODES[info.kind], _KIND_BITS)
    w.write(info.node_id + 1, h.node_width)
    mask = 0
    for lane in info.lanes:
        mask |= 1 << lane
    w.write(mask, h.lane_bits)
    for ids in (info.in_ids, info.out_ids):
        for _lane, x in ids:
            w.write(h.id_code(x), h.id_index_bits)
    w.write(h.state_code(info.state), h.class_bits)


def _encode_pointer(w: BitWriter, p: PointerLabel, h: WireHeader) -> None:
    w.write(h.id_code(p.target_id), h.id_index_bits)
    w.write(h.id_code(p.id_a), h.id_index_bits)
    w.write(p.dist_a, h.counter_width)
    w.write(h.id_code(p.id_b), h.id_index_bits)
    w.write(p.dist_b, h.counter_width)


def _encode_record(w: BitWriter, record, h: WireHeader) -> None:
    _encode_info(w, record.info, h)
    if isinstance(record, TLevelRecord):
        _encode_info(w, record.member_info, h)
        _encode_info(w, record.member_subtree, h)
        w.write(len(record.child_subtrees), h.child_width)
        for child in record.child_subtrees:
            _encode_info(w, child, h)
        _encode_pointer(w, record.pointer, h)
        w.write(record.root_member_id + 1, h.node_width)
    elif isinstance(record, BLevelRecord):
        _encode_info(w, record.left, h)
        _encode_info(w, record.right, h)
        i, j = record.bridge
        w.write(i, h.lane_index_bits)
        w.write(j, h.lane_index_bits)
        w.write(h.tag_code(record.bridge_tag), h.tag_bits)
        w.write(record.side + 1, 2)
    elif isinstance(record, ELevelRecord):
        w.write(h.id_code(record.in_id), h.id_index_bits)
        w.write(h.id_code(record.out_id), h.id_index_bits)
        w.write(h.tag_code(record.tag), h.tag_bits)
    elif isinstance(record, PLevelRecord):
        w.write(len(record.vertex_ids), h.path_width)
        for x in record.vertex_ids:
            w.write(h.id_code(x), h.id_index_bits)
        w.write(len(record.tags), h.path_width)
        for tag in record.tags:
            w.write(h.tag_code(tag), h.tag_bits)
        w.write(record.position, h.counter_width)
    else:
        raise CodecError(f"unknown record type {type(record).__name__}")


def _encode_certificate(w: BitWriter, cert: EdgeCertificate, h: WireHeader):
    w.write(len(cert.stack), h.depth_width)
    for record in cert.stack:
        _encode_record(w, record, h)


@dict_init
@dataclass(frozen=True)
class EncodedLabel:
    """One label's wire encoding: the bytes and the exact bit count."""

    data: bytes
    bit_length: int


def encode_label(label: Theorem1Label, header: WireHeader) -> EncodedLabel:
    """Encode one physical label against ``header``."""
    if not isinstance(label, Theorem1Label):
        raise CodecError(
            f"expected a Theorem1Label, got {type(label).__name__}"
        )
    w = BitWriter()
    _encode_certificate(w, label.certificate, header)
    w.write(len(label.embedded), header.embed_width)
    for record in label.embedded:
        w.write(header.id_code(record.u_id), header.id_index_bits)
        w.write(header.id_code(record.v_id), header.id_index_bits)
        w.write(record.forward, header.counter_width)
        w.write(record.backward, header.counter_width)
        _encode_certificate(w, record.payload, header)
    return EncodedLabel(data=w.to_bytes(), bit_length=w.bit_length)


# ----------------------------------------------------------------------
# Labeling-level API.
# ----------------------------------------------------------------------
@dataclass
class EncodedLabeling:
    """A whole labeling in wire form: one header + per-edge byte strings.

    The size properties are the *measured* metric the reports quote:
    exact encoded bit counts, excluding the byte-boundary padding of the
    stored form and excluding the shared header.
    """

    header: WireHeader
    labels: dict  # edge key -> EncodedLabel
    location: str = "edges"

    @property
    def max_bits(self) -> int:
        if not self.labels:
            return 0
        return max(e.bit_length for e in self.labels.values())

    @property
    def total_bits(self) -> int:
        return sum(e.bit_length for e in self.labels.values())

    @property
    def mean_bits(self) -> float:
        if not self.labels:
            return 0.0
        return self.total_bits / len(self.labels)

    @property
    def total_bytes(self) -> int:
        """Stored payload size (padded bytes, header excluded)."""
        return sum(len(e.data) for e in self.labels.values())

    def bit_length(self, key) -> int:
        """Measured encoded size of one edge's label."""
        return self.labels[key].bit_length


def encode_labeling(
    labeling: Labeling, header: Optional[WireHeader] = None
) -> EncodedLabeling:
    """Encode every label of ``labeling`` against one shared header.

    The reference writer: one :func:`encode_label` per edge, with no
    memo and no numpy.  It is the byte-identity oracle the bulk encoder
    (:func:`repro.codec.columnar.encode_labeling_columnar`) is tested
    against; the library itself always encodes through the bulk path.

    ``header`` defaults to :meth:`WireHeader.for_labeling`; pass an
    existing header only when re-encoding labels drawn from the same
    labeling (all dictionaries must cover the labels' fields).
    """
    if header is None:
        header = WireHeader.for_labeling(labeling)
    return EncodedLabeling(
        header=header,
        labels={
            key: encode_label(label, header)
            for key, label in labeling.mapping.items()
        },
        location=labeling.location,
    )


def labeling_digest(encoded: EncodedLabeling) -> str:
    """Cryptographic content digest of an encoded labeling.

    Covers the canonical header fields and every label's key, bytes,
    and exact bit length (keys sorted by ``repr`` so dict order never
    matters).  Each label's three fields are framed by their byte
    lengths, so two different labelings never feed the hash the same
    stream (moving a digit of the bit length onto the end of the bytes
    changes the lengths).  This is the content link in the
    compiled-round envelope key (:mod:`repro.api.vectorized`): an
    attached round's kernels accept without re-deriving anything from
    the certificates, so the digest that vouches "same certificates"
    must be collision-resistant — hence blake2b, not a structural
    fingerprint.  A :class:`~repro.api.store.StoredLabels` mapping
    computes it once, when it is built, over its own copy of the wire
    form.
    """
    h = encoded.header
    digest = hashlib.blake2b(digest_size=16)
    digest.update(
        repr(
            (
                h.version,
                h.n,
                h.universe_bits,
                h.class_count,
                tuple(h.id_table),
                tuple(canonical_state_repr(s) for s in h.states),
                tuple(repr(t) for t in h.tags),
                h.lane_bits,
                h.node_width,
                h.counter_width,
                h.depth_width,
                h.embed_width,
                h.path_width,
                h.child_width,
            )
        ).encode()
    )
    digest.update(repr(encoded.location).encode())
    labels = encoded.labels
    # One small buffer per label, never one for the whole labeling,
    # which would hold a second copy of every label's bytes.
    for text, entry in sorted(
        zip(map(repr, labels), labels.values()), key=itemgetter(0)
    ):
        key, data = text.encode(), entry.data
        bits = str(entry.bit_length).encode()
        frame = _FIELD_LENGTHS.pack(len(key), len(data), len(bits))
        digest.update(b"".join((frame, key, data, bits)))
    return digest.hexdigest()

