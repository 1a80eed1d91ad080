"""Byte-level fuzz of the untrusted parsers.

Every boundary that reads outside input returns either a parsed value
or one typed error: the decoder behind a stored labeling
(:class:`~repro.codec.CodecError`), edit batches off the wire
(:class:`~repro.graphs.edits.EditError`), and service frames, request
envelopes and graph payloads
(:class:`~repro.service.protocol.ProtocolError`).  A stored labeling's
wire form is also its identity — it keys compiled rounds — so the
decoder behind it must be total: any other exception is a bug.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import certify
from repro.codec import (
    CodecError,
    EncodedLabel,
    EncodedLabeling,
    RecordTable,
    decode_labeling_columnar,
    encode_table,
)
from repro.core.certificates import Theorem1Label
from repro.experiments import lanewidth_workload
from repro.graphs import Graph
from repro.graphs.edits import EditBatch, EditError
from repro.service.protocol import (
    OPS,
    ProtocolError,
    decode_line,
    graph_from_wire,
    validate_request,
)


@pytest.fixture(scope="module")
def encoded():
    """A real encoded labeling: its header and per-edge encodings."""
    sequence, _graph = lanewidth_workload(2, 12, 3)
    report = certify(sequence, "connected", rng=random.Random(3))
    return report.encoded.header, list(report.encoded.labels.values())


def _reads_or_codec_error(encoded_labeling):
    """The decoder returns a table whose labels materialize, or raises
    :class:`CodecError`; a table it returns re-encodes to the bits it
    read whenever the header can carry them."""
    try:
        table = decode_labeling_columnar(encoded_labeling)
    except CodecError:
        return
    assert isinstance(table, RecordTable) and table.bad is None
    labels = table.materialize()
    assert list(labels) == list(encoded_labeling.labels)
    assert all(isinstance(label, Theorem1Label) for label in labels.values())
    try:
        again = encode_table(table, encoded_labeling.header)
    except CodecError:
        return  # e.g. a bridge lane past the header's lane mask
    for key, label in encoded_labeling.labels.items():
        bits = label.bit_length
        if bits is None:
            continue
        assert again.labels[key].bit_length == bits
        read = int.from_bytes(label.data, "big") >> (8 * len(label.data) - bits)
        assert int.from_bytes(again.labels[key].data, "big") >> (
            -bits % 8
        ) == read


def _decodes_or_codec_error(data, header, bit_length):
    _reads_or_codec_error(
        EncodedLabeling(header, {"edge": EncodedLabel(data, bit_length)})
    )


class TestLabelDecoderTotal:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.binary(max_size=48),
        bit_length=st.none() | st.integers(-8, 400),
    )
    def test_arbitrary_bytes(self, encoded, data, bit_length):
        header, _labels = encoded
        _decodes_or_codec_error(data, header, bit_length)

    @settings(max_examples=150, deadline=None)
    @given(
        pick=st.integers(min_value=0),
        flips=st.lists(st.integers(min_value=0), min_size=1, max_size=4),
        keep_length=st.booleans(),
    )
    def test_bit_flipped_labels(self, encoded, pick, flips, keep_length):
        header, labels = encoded
        label = labels[pick % len(labels)]
        data = bytearray(label.data)
        for flip in flips:
            bit = flip % (8 * len(data))
            data[bit >> 3] ^= 0x80 >> (bit & 7)
        bit_length = label.bit_length if keep_length else None
        _decodes_or_codec_error(bytes(data), header, bit_length)

    @settings(max_examples=100, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(
                st.integers(min_value=0),
                st.lists(st.integers(min_value=0), max_size=4),
                st.integers(-9, 9),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_bit_flipped_labelings(self, encoded, edits):
        # Whole labelings: some labels flipped or resized among honest
        # ones, all read against one header by one decoder.
        header, labels = encoded
        edited = dict(enumerate(labels))
        for pick, flips, resize in edits:
            key = pick % len(labels)
            label = edited[key]
            data = bytearray(label.data)
            for flip in flips:
                bit = flip % (8 * len(data))
                data[bit >> 3] ^= 0x80 >> (bit & 7)
            bits = max(0, min(label.bit_length + resize, 8 * len(data)))
            edited[key] = EncodedLabel(bytes(data), bits)
        _reads_or_codec_error(EncodedLabeling(header, edited))


#: JSON scalars, biased towards edit kinds and small vertex names.
_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers(-4, 12)
    | st.floats(allow_nan=True)
    | st.sampled_from(["", "add_edge", "remove_edge", "set_vertex_label",
                       "set_edge_label", "x"])
)

#: JSON values, as a service frame or wire batch carries them.
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["", "u", "v"]), inner, max_size=2),
    max_leaves=6,
)


class TestEditBatchWireTotal:
    @settings(max_examples=150, deadline=None)
    @given(data=st.lists(st.lists(_SCALAR, max_size=5) | _JSON, max_size=3)
           | _JSON)
    def test_batch_or_edit_error(self, data):
        try:
            batch = EditBatch.from_wire(data)
        except EditError:
            return
        assert isinstance(batch, EditBatch)


def _rows(width):
    return st.lists(st.lists(_SCALAR, max_size=width), max_size=4) | _JSON


class TestGraphWireTotal:
    @settings(max_examples=150, deadline=None)
    @given(
        payload=st.fixed_dictionaries(
            {},
            optional={
                "vertices": st.lists(_SCALAR, max_size=5) | _JSON,
                "edges": _rows(3),
                "vertex_labels": _rows(3),
                "edge_labels": _rows(4),
            },
        )
        | _JSON
    )
    def test_graph_or_protocol_error(self, payload):
        try:
            graph = graph_from_wire(payload)
        except ProtocolError:
            return
        assert isinstance(graph, Graph)


#: Frame bytes: arbitrary, JSON-ish token soup, or nested deeper than
#: the JSON parser recurses.
_FRAME_BYTES = (
    st.binary(max_size=64)
    | st.lists(
        st.sampled_from([b"[", b"]", b"{", b"}", b'"', b":", b",", b"1",
                         b"-", b"e", b"\\", b"\xff", b"null", b'"op"']),
        max_size=40,
    ).map(b"".join)
    | st.builds(
        lambda depth, opener: opener * depth,
        st.integers(0, 3000),
        st.sampled_from([b"[", b'{"op":']),
    )
)

#: Decoded frames: objects whose ``op`` is often a real one.
_FRAME_JSON = (
    st.dictionaries(
        st.sampled_from(["op", "id", "", "graph"]),
        st.sampled_from(OPS) | _JSON,
        max_size=3,
    )
    | _JSON
)


def _request_or_protocol_error(line):
    """A frame parses to a dict and a known op, or raises ProtocolError."""
    try:
        request = decode_line(line)
    except ProtocolError:
        return
    assert isinstance(request, dict)
    try:
        op = validate_request(request)
    except ProtocolError:
        return
    assert op in OPS


class TestServiceFrameTotal:
    @settings(max_examples=150, deadline=None)
    @given(line=_FRAME_BYTES)
    def test_arbitrary_bytes(self, line):
        _request_or_protocol_error(line)

    @settings(max_examples=100, deadline=None)
    @given(value=_FRAME_JSON)
    def test_encoded_json_values(self, value):
        _request_or_protocol_error(json.dumps(value).encode())
