"""Tests for the certificate wire codec (repro.codec).

The contract under test is the tentpole guarantee of the format:
``decode(encode(label)) == label`` for every label the pipeline can
produce, and the *measured* encoded size never exceeding the arithmetic
``label_bits`` accounting the reports used to quote.
"""

import dataclasses
import hashlib
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CertificationSession, certify
from repro.codec import (
    BitReader,
    BitStreamError,
    BitWriter,
    CodecError,
    EncodedLabel,
    EncodedLabeling,
    RecordTable,
    WireHeader,
    decode_labeling_columnar,
    encode_label,
    encode_labeling,
    encode_labeling_columnar,
    encode_table,
    labeling_digest,
    width_for,
    width_for_value,
)
from repro.core import LanewidthScheme, Theorem1Scheme
from repro.core.certificates import EdgeCertificate, label_bits
from repro.courcelle.algebra import canonical_state_repr
from repro.experiments import lanewidth_workload, pathwidth_workload
from repro.pls.adversary import corrupt_one_label
from repro.pls.model import Configuration
from repro.pls.scheme import Labeling


# ----------------------------------------------------------------------
# Bit-level I/O.
# ----------------------------------------------------------------------
class TestBitIO:
    @given(
        st.lists(
            st.integers(min_value=1, max_value=40).flatmap(
                lambda w: st.tuples(
                    st.integers(min_value=0, max_value=2**w - 1), st.just(w)
                )
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_field_sequence_round_trip(self, fields):
        writer = BitWriter()
        for value, width in fields:
            writer.write(value, width)
        assert writer.bit_length == sum(w for _v, w in fields)
        data = writer.to_bytes()
        assert len(data) == (writer.bit_length + 7) // 8
        reader = BitReader(data, writer.bit_length)
        for value, width in fields:
            assert reader.read(width) == value
        assert reader.remaining == 0

    def test_value_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(BitStreamError):
            writer.write(4, 2)
        with pytest.raises(BitStreamError):
            writer.write(-1, 8)

    def test_truncated_read_rejected(self):
        writer = BitWriter()
        writer.write(5, 3)
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        reader.read(3)
        with pytest.raises(BitStreamError):
            reader.read(1)

    def test_bit_limit_excludes_padding(self):
        writer = BitWriter()
        writer.write(1, 1)
        # One semantic bit, seven padding bits in the byte output.
        reader = BitReader(writer.to_bytes(), writer.bit_length)
        assert reader.read(1) == 1
        with pytest.raises(BitStreamError):
            reader.read(1)

    def test_width_helpers(self):
        assert width_for(1) == 1
        assert width_for(2) == 1
        assert width_for(3) == 2
        assert width_for(256) == 8
        assert width_for_value(0) == 1
        assert width_for_value(255) == 8
        assert width_for_value(256) == 9


# ----------------------------------------------------------------------
# Label round-trips over pipeline-generated labelings.
# ----------------------------------------------------------------------
def _lanewidth_labeling(width: int, n: int, seed: int):
    sequence, _graph = lanewidth_workload(width, n, seed)
    report = certify(sequence, "connected", rng=random.Random(seed + 1))
    assert not report.refused and report.accepted
    return report


def _accounted_bits(label, ctx) -> int:
    width = len(label.certificate.stack[0].info.lanes)
    return label_bits(label, ctx, width)


def _decoded(encoded) -> dict:
    """The labels the one decoder reads back from ``encoded``."""
    return decode_labeling_columnar(encoded).materialize()


def _decode_one(label: EncodedLabel, header: WireHeader):
    """One label decoded against ``header``, as a labeling of one edge."""
    return _decoded(EncodedLabeling(header, {"edge": label}))["edge"]


def _assert_table_round_trip(labeling, encoded):
    """``encoded`` (the labels of ``labeling`` against its header) reads
    back into a table that materializes to those labels, re-encodes to
    the same bytes and rebuilds the same header."""
    table = decode_labeling_columnar(encoded)
    assert table.materialize() == labeling.mapping
    _assert_byte_identical(encode_table(table, encoded.header), encoded)
    assert table.header(labeling.size_context) == encoded.header
    assert encoded.header == WireHeader.for_labeling(labeling)


class TestLabelRoundTrip:
    @given(
        width=st.integers(min_value=2, max_value=4),
        n=st.integers(min_value=8, max_value=48),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=12, deadline=None)
    def test_lanewidth_round_trip_and_measured_bound(self, width, n, seed):
        report = _lanewidth_labeling(width, n, seed)
        labeling = report.labeling
        encoded = encode_labeling(labeling)
        ctx = labeling.size_context
        for key, label in labeling.mapping.items():
            # The wire encoding must never exceed the accounted size.
            assert encoded.labels[key].bit_length <= _accounted_bits(
                label, ctx
            ), key
        _assert_table_round_trip(labeling, encoded)

    def test_pathwidth_mode_round_trip(self):
        graph, decomposition = pathwidth_workload(24, 2, seed=5)
        report = certify(
            graph,
            "connected",
            k=2,
            rng=random.Random(6),
            decomposer=lambda _g: decomposition,
        )
        assert report.accepted
        _assert_table_round_trip(
            report.labeling, encode_labeling(report.labeling)
        )

    def test_labeling_level_encode_matches_report_metrics(self):
        report = _lanewidth_labeling(3, 24, seed=11)
        encoded = encode_labeling(report.labeling)
        assert report.max_label_bits == encoded.max_bits
        assert report.total_label_bits == encoded.total_bits
        assert report.mean_label_bits == pytest.approx(encoded.mean_bits)
        # Measured is reported alongside (and below) the accounting.
        assert report.max_label_bits <= report.accounted_max_label_bits
        assert report.total_label_bits <= report.accounted_total_label_bits
        # The session attaches the wire form as a drill-down artifact.
        assert report.encoded.max_bits == encoded.max_bits

    def test_header_is_deterministic_and_picklable(self):
        report = _lanewidth_labeling(3, 20, seed=3)
        labeling = report.labeling
        h1 = WireHeader.for_labeling(labeling)
        h2 = WireHeader.for_labeling(labeling)
        assert h1 == h2
        revived = pickle.loads(pickle.dumps(h1))
        assert revived == h1
        # Decoding against the revived header (a fresh-process stand-in)
        # still reproduces the exact labels.
        key = next(iter(labeling.mapping))
        enc = encode_label(labeling.mapping[key], h1)
        assert _decode_one(enc, revived) == labeling.mapping[key]

    def test_size_context_round_trip(self):
        report = _lanewidth_labeling(2, 16, seed=9)
        header = WireHeader.for_labeling(report.labeling)
        ctx = header.size_context()
        original = report.labeling.size_context
        assert (ctx.n, ctx.id_bits, ctx.counter_bits, ctx.class_bits) == (
            original.n,
            original.id_bits,
            original.counter_bits,
            original.class_bits,
        )


# ----------------------------------------------------------------------
# Malformed input handling.
# ----------------------------------------------------------------------
class TestMalformedStreams:
    def test_truncated_label_rejected(self):
        report = _lanewidth_labeling(2, 12, seed=21)
        labeling = report.labeling
        header = WireHeader.for_labeling(labeling)
        key = max(
            labeling.mapping, key=lambda k: len(labeling.mapping[k].certificate.stack)
        )
        enc = encode_label(labeling.mapping[key], header)
        half = enc.data[: len(enc.data) // 2]
        for bits in (None, enc.bit_length):
            with pytest.raises(CodecError):
                _decode_one(EncodedLabel(half, bits), header)

    def test_wrong_bit_length_rejected(self):
        report = _lanewidth_labeling(2, 12, seed=22)
        labeling = report.labeling
        header = WireHeader.for_labeling(labeling)
        key = next(iter(labeling.mapping))
        enc = encode_label(labeling.mapping[key], header)
        with pytest.raises(CodecError):
            # Claiming extra trailing bits must be flagged, not ignored.
            _decode_one(EncodedLabel(enc.data, enc.bit_length - 1), header)

    def test_non_theorem1_label_rejected(self):
        report = _lanewidth_labeling(2, 12, seed=23)
        header = WireHeader.for_labeling(report.labeling)
        with pytest.raises(CodecError):
            encode_label("not a label", header)

    def test_foreign_identifier_rejected(self):
        # A label mentioning an identifier outside the header's table
        # cannot be encoded against that header.
        a = _lanewidth_labeling(2, 12, seed=24)
        b = _lanewidth_labeling(2, 12, seed=941)
        header_a = WireHeader.for_labeling(a.labeling)
        foreign = next(iter(b.labeling.mapping.values()))
        with pytest.raises(CodecError):
            encode_label(foreign, header_a)

    def test_unsupported_version_rejected(self):
        report = _lanewidth_labeling(2, 12, seed=25)
        header = WireHeader.for_labeling(report.labeling)
        fields = {
            name: getattr(header, name)
            for name in (
                "n",
                "universe_bits",
                "class_count",
                "id_table",
                "states",
                "tags",
                "lane_bits",
                "node_width",
                "counter_width",
                "depth_width",
                "embed_width",
                "path_width",
                "child_width",
            )
        }
        with pytest.raises(CodecError):
            WireHeader(version=99, **fields)


# ----------------------------------------------------------------------
# Session-level batch: every property's labeling on one host must
# round-trip, and sizes must come from the wire form.
# ----------------------------------------------------------------------
def test_session_batch_reports_measured_sizes():
    sequence, _graph = lanewidth_workload(3, 20, seed=31)
    session = CertificationSession(rng=random.Random(32))
    reports = session.certify(
        sequence, ["connected", "acyclic", "even-order"]
    )
    for key, report in reports.items():
        if report.refused:
            continue
        assert report.accepted, key
        assert report.max_label_bits == report.encoded.max_bits
        assert report.max_label_bits <= report.accounted_max_label_bits
        assert _decoded(report.encoded) == report.labeling.mapping


# ----------------------------------------------------------------------
# PR 10: the columnar bulk encoder must be byte-identical to the
# reference per-label encoder on every labeling the pipeline produces.
# ----------------------------------------------------------------------
def _assert_byte_identical(bulk, ref):
    assert bulk.header == ref.header
    assert bulk.location == ref.location
    assert set(bulk.labels) == set(ref.labels)
    for key in ref.labels:
        assert bulk.labels[key].data == ref.labels[key].data, key
        assert bulk.labels[key].bit_length == ref.labels[key].bit_length, key


class TestColumnarEncoderByteIdentity:
    @given(
        width=st.integers(min_value=2, max_value=4),
        n=st.integers(min_value=8, max_value=56),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=12, deadline=None)
    def test_direct_encoder_byte_identity(self, width, n, seed):
        """The bulk encoder driven with the reference walk's header."""
        labeling = _lanewidth_labeling(width, n, seed).labeling
        ref = encode_labeling(labeling)
        header = WireHeader.for_labeling(labeling)
        bulk = encode_labeling_columnar(labeling, header)
        _assert_byte_identical(bulk, ref)

    def test_wrapper_byte_identity_and_round_trip(self):
        labeling = _lanewidth_labeling(3, 40, seed=17).labeling
        ref = encode_labeling(labeling)
        bulk = encode_labeling_columnar(labeling)
        _assert_byte_identical(bulk, ref)
        assert _decoded(bulk) == labeling.mapping

    def test_pathwidth_mode_byte_identity(self):
        graph, decomposition = pathwidth_workload(24, 2, seed=5)
        report = certify(
            graph,
            "connected",
            k=2,
            rng=random.Random(6),
            decomposer=lambda _g: decomposition,
        )
        assert report.accepted
        ref = encode_labeling(report.labeling)
        header = WireHeader.for_labeling(report.labeling)
        bulk = encode_labeling_columnar(report.labeling, header)
        _assert_byte_identical(bulk, ref)


# ----------------------------------------------------------------------
# The bulk encoder's error contract: it has no fallback, so it must
# raise the codec's own errors and carry every field width itself.
# ----------------------------------------------------------------------
class TestColumnarEncoderContract:
    def test_foreign_identifier_raises_codec_error(self):
        a = _lanewidth_labeling(2, 12, seed=24)
        b = _lanewidth_labeling(2, 12, seed=941)
        header_a = WireHeader.for_labeling(a.labeling)
        with pytest.raises(CodecError):
            encode_labeling_columnar(b.labeling, header_a)

    def test_without_numpy_matches_reference_writer(self):
        """The encoder needs no numpy: in a process where ``import
        numpy`` fails, it writes the reference writer's bytes."""
        labeling = _lanewidth_labeling(3, 40, seed=17).labeling
        expected = labeling_digest(encode_labeling(labeling))
        script = (
            "import random, sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.api import certify\n"
            "from repro.codec import encode_labeling_columnar, labeling_digest\n"
            "from repro.experiments import lanewidth_workload\n"
            "sequence, _graph = lanewidth_workload(3, 40, 17)\n"
            "report = certify(sequence, 'connected', rng=random.Random(18),"
            " verify=False)\n"
            "print(labeling_digest(encode_labeling_columnar(report.labeling)))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        assert run.stdout.strip() == expected


# ----------------------------------------------------------------------
# One field rule: the record table marks a field of the wrong type or
# range, and the encoder turns the mark into CodecError — never another
# error, and never a bool or float written into an identifier or counter.
# ----------------------------------------------------------------------
def _with_first_label(labeling, rebuild):
    """``labeling`` with its first label (in key order) rebuilt."""
    mapping = dict(labeling.mapping)
    key = sorted(mapping, key=repr)[0]
    mapping[key] = rebuild(mapping[key])
    return Labeling(labeling.location, mapping, labeling.size_context)


def _root_record(label, **fields):
    """``label`` with fields of its root (T) record replaced."""
    stack = label.certificate.stack
    root = dataclasses.replace(stack[0], **fields)
    return dataclasses.replace(
        label, certificate=EdgeCertificate((root,) + stack[1:])
    )


def _pointer(**fields):
    return lambda label: _root_record(
        label,
        pointer=dataclasses.replace(
            label.certificate.stack[0].pointer, **fields
        ),
    )


_UNCARRIABLE = [
    *[(f"dist_a={v!r}", _pointer(dist_a=v)) for v in (1.5, None, "x", [], True)],
    *[(f"id_a={v!r}", _pointer(id_a=v)) for v in (1.5, True)],
    *[
        (
            f"root_member_id={v!r}",
            lambda label, v=v: _root_record(label, root_member_id=v),
        )
        for v in (None, 1.5, -5)
    ],
    (
        "lanes=None",
        lambda label: _root_record(
            label,
            info=dataclasses.replace(label.certificate.stack[0].info, lanes=None),
        ),
    ),
    ("embedded=None", lambda label: dataclasses.replace(label, embedded=None)),
]

#: Probes the reference header walk must refuse with ``CodecError`` too.
#: It expects well-typed fields, so a value of the wrong type is outside
#: its contract; a value out of range is not.
_REFERENCE_REFUSES = ("root_member_id=-5",)


class TestEncoderFieldContract:
    @pytest.mark.parametrize(
        "name, rebuild", _UNCARRIABLE, ids=[n for n, _r in _UNCARRIABLE]
    )
    def test_uncarriable_field_raises_codec_error(self, name, rebuild):
        sequence, _graph = lanewidth_workload(3, 24, 1)
        report = certify(
            sequence, "connected", rng=random.Random(1), verify=False
        )
        bad = _with_first_label(report.labeling, rebuild)
        mapping = bad.mapping
        table = RecordTable(list(mapping), list(mapping.values()))
        assert table.bad is not None  # marked, not raised
        with pytest.raises(CodecError):
            encode_labeling_columnar(bad)
        if name in _REFERENCE_REFUSES:
            with pytest.raises(CodecError):
                encode_labeling(bad)


# ----------------------------------------------------------------------
# The header derived from the record table is the reference walk's.
# ----------------------------------------------------------------------
def _labelings_both_modes():
    lanewidth = _lanewidth_labeling(3, 32, seed=4).labeling
    graph, decomposition = pathwidth_workload(24, 2, seed=5)
    theorem1 = certify(
        graph,
        "connected",
        k=2,
        rng=random.Random(6),
        decomposer=lambda _g: decomposition,
        verify=False,
    ).labeling
    return {"lanewidth": lanewidth, "theorem1": theorem1}


class TestTableHeader:
    @pytest.mark.parametrize("mode", ["lanewidth", "theorem1"])
    def test_honest_and_mutated_headers_match_the_reference(self, mode):
        honest = _labelings_both_modes()[mode]
        candidates = [honest] + [
            corrupt_one_label(honest, random.Random(seed))
            for seed in range(40)
        ]
        carried = 0
        for labeling in candidates:
            mapping = labeling.mapping
            table = RecordTable(list(mapping), list(mapping.values()))
            try:
                reference = encode_labeling(labeling)
            except Exception:
                # What the reference cannot carry, the table refuses.
                with pytest.raises(CodecError):
                    encode_labeling_columnar(labeling)
                continue
            carried += 1
            assert table.header(labeling.size_context) == reference.header
            assert reference.header == WireHeader.for_labeling(labeling)
            _assert_byte_identical(encode_labeling_columnar(labeling), reference)
            _assert_table_round_trip(labeling, reference)
        assert carried >= 10  # both branches run
        # The table the prover wrote, not walked, gives the same header.
        assert honest.mapping.table.header(
            honest.size_context
        ) == WireHeader.for_labeling(honest)


class TestTableDecode:
    """The one decoder reads a labeling's wire form into a record table,
    which materializes to the labels that were encoded."""

    @given(
        n=st.integers(min_value=8, max_value=40),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=8, deadline=None)
    def test_theorem1_round_trip(self, n, seed):
        graph, decomposition = pathwidth_workload(n, 2, seed=seed)
        report = certify(
            graph,
            "connected",
            k=2,
            rng=random.Random(seed),
            decomposer=lambda _g: decomposition,
            verify=False,
        )
        assert not report.refused, report.refusal
        _assert_table_round_trip(
            report.labeling, encode_labeling(report.labeling)
        )
        # The label stage's own wire form reads back the same way.
        _assert_table_round_trip(report.labeling, report.encoded)

    @pytest.mark.parametrize("mode", ["lanewidth", "theorem1"])
    def test_decoded_table_writes_every_row_once(self, mode):
        # Labels share their infos, records and stacks: the decoded
        # table holds one row per distinct one, as many as the prover
        # wrote, and builds no record object but the E and P leaves.
        labeling = _labelings_both_modes()[mode]
        prover = labeling.mapping.table
        table = decode_labeling_columnar(labeling.mapping.encoded())
        for column in ("infos", "r_kind", "stacks", "children", "embedded"):
            assert len(getattr(table, column)) == len(
                getattr(prover, column)
            ), column
        assert table.bad is None
        assert all(
            (record is None) == (kind in (0, 1))
            for record, kind in zip(table.records, table.r_kind)
        )

    def test_repeated_header_identifier_gives_one_row(self):
        # A header that lists one identifier twice, with half the labels
        # naming it by its first code and half by its second: the labels
        # read back as they were, and the table has one row per distinct
        # info, record and stack, as the honest table does.
        labeling = _labelings_both_modes()["lanewidth"]
        honest = labeling.mapping.encoded()
        h = honest.header
        fields = {
            f.name: getattr(h, f.name)
            for f in dataclasses.fields(WireHeader)
            if f.compare
        }
        fields["id_table"] = h.id_table + (h.id_table[0],)
        table = decode_labeling_columnar(honest)
        to_last = WireHeader(**fields)  # the lookup keeps the last code
        to_first = WireHeader(**fields)
        object.__setattr__(to_first, "_id_index", {
            x: i for i, x in reversed(list(enumerate(fields["id_table"])))
        })
        first, last = (
            encode_table(table, header).labels for header in (to_first, to_last)
        )
        keys = sorted(first, key=repr)
        mixed = {key: first[key] for key in keys[::2]}
        mixed.update((key, last[key]) for key in keys[1::2])
        assert mixed != honest.labels
        decoded = decode_labeling_columnar(EncodedLabeling(to_last, mixed))
        assert decoded.materialize() == labeling.mapping
        for column in ("infos", "r_kind", "stacks", "id_values"):
            assert len(getattr(decoded, column)) == len(
                getattr(table, column)
            ), column


# ----------------------------------------------------------------------
# Wire v1 pinned by golden digests.  The digests cover the header and
# every label's bytes, and were fixed once; both encoders must keep
# reproducing them.
# ----------------------------------------------------------------------
def _v1_pin(encoded):
    """The blake2b digest the golden v1 values were fixed over.

    Its stream is the first ``labeling_digest``'s, kept verbatim: each
    label's key repr, bytes and bit length with no framing between
    them.  ``labeling_digest`` length-prefixes those fields; this pin
    keeps the wire bytes tied to the values fixed with wire v1, where no
    collision can matter.
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
    for key in sorted(encoded.labels, key=repr):
        entry = encoded.labels[key]
        digest.update(repr(key).encode())
        digest.update(entry.data)
        digest.update(str(entry.bit_length).encode())
    return digest.hexdigest()


class TestWireV1Golden:
    """Every prove path pins the same bytes: ``certify``, the scheme's
    own ``prove`` on the same configuration, and ``report.scheme.prove``.

    Each mode pins two values: the v1 stream (:func:`_v1_pin`), fixed
    when wire v1 was, and the framed ``labeling_digest`` that keys
    compiled rounds."""

    @staticmethod
    def _assert_digest(labeling, pin, digest):
        # The label stage's own wire form (what the store persists),
        # then both encoders over the label objects.
        for encoded in (
            labeling.mapping.encoded(),
            encode_labeling_columnar(labeling),
            encode_labeling(labeling),
        ):
            assert _v1_pin(encoded) == pin
            assert labeling_digest(encoded) == digest

    def _assert_every_path(self, report, scheme, graph, pin, digest):
        config = Configuration.with_random_ids(graph, random.Random(6))
        for labeling in (
            report.labeling,
            scheme.prove(config),
            report.scheme.prove(report.config),
        ):
            self._assert_digest(labeling, pin, digest)

    def test_lanewidth_mode_digest(self):
        sequence, graph = lanewidth_workload(3, 64, 5)
        report = certify(
            sequence, "connected", rng=random.Random(6), verify=False
        )
        self._assert_every_path(
            report,
            LanewidthScheme("connected", sequence),
            graph,
            "0e039c77789e7b3ecacf8c64e1f1c342",
            "9663706db07708c250509024f2460334",
        )

    def test_pathwidth_mode_digest(self):
        graph, decomposition = pathwidth_workload(24, 2, seed=5)
        report = certify(
            graph,
            "connected",
            k=2,
            rng=random.Random(6),
            decomposer=lambda _g: decomposition,
            verify=False,
        )
        self._assert_every_path(
            report,
            Theorem1Scheme("connected", 2, decomposer=lambda _g: decomposition),
            graph,
            # Greedy (Obs. 4.3) lanes: the labeling changed, the format not.
            "e1f17f89ab2139ae493ae755f5d13137",
            "3afb1a64eed4ddb2f33c2813691a1528",
        )
