"""Tests for the persistent certificate store (repro.api.store).

The acceptance contract: ``certify → store.save → (fresh process)
store.load → verification round accepts``, with no prover stage re-run —
asserted through the session stage counters, which must stay empty on
the stored path.
"""

import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    CertificateStore,
    CertificationSession,
    StoreError,
    VerificationEngine,
    certify,
    make_executor,
)
from repro.api.artifacts import ARTIFACT_MAGIC, seal, unseal
from repro.api.store import StoredLabels
from repro.codec import (
    CodecError,
    EncodedLabel,
    EncodedLabeling,
    WireHeader,
    decode_labeling_columnar,
    encode_table,
)
from repro.codec.table import B
from repro.experiments import lanewidth_workload, pathwidth_workload

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _certified(tmp_path, seed=51, n=20, store=None):
    sequence, graph = lanewidth_workload(3, n, seed)
    report = certify(
        sequence, "connected", rng=random.Random(seed + 1), store=store
    )
    assert report.accepted and not report.refused
    return report, graph


def _certified_vectorized(store):
    """Certify ``lanewidth_workload(3, 24, 5)`` through a store-backed
    vectorized session, so the store also holds its compiled round."""
    sequence, graph = lanewidth_workload(3, 24, 5)
    session = CertificationSession(
        store=store,
        engine=VerificationEngine(make_executor("vectorized")),
        rng=random.Random(5),
    )
    assert session.certify(sequence, "connected").accepted
    return graph.fingerprint()


def _flip_bits(clean, rng):
    """``clean`` with 1-2 seeded bit flips."""
    data = bytearray(clean)
    for _flip in range(rng.randint(1, 2)):
        bit = rng.randrange(8 * len(data))
        data[bit >> 3] ^= 1 << (bit & 7)
    return bytes(data)


def _truncate_one_payload(manifest):
    key = next(iter(manifest["labels"]))
    data, bits = manifest["labels"][key]
    manifest["labels"][key] = (data[: max(1, len(data) // 4)], bits)


def _rewrite_manifest(path, edit):
    """Unseal the entry at ``path``, apply ``edit``, seal it back, so the
    edit reaches the checks behind the payload digest."""
    manifest = unseal(path.read_bytes())
    edit(manifest)
    path.write_bytes(seal(manifest))


class _Opens:
    """Pickles as a call to ``open(path, "w")``: loading it through an
    open unpickler creates the marker file."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


def _drop_report_key(manifest):
    del manifest["report"]["accepted"]


def _drop_vertex_id(manifest):
    manifest["ids"].popitem()


def _drop_header_field(manifest):
    # Pickles a header whose state lacks one field.
    object.__delattr__(manifest["header"], "path_width")


def _list_bit_length(manifest):
    key = next(iter(manifest["labels"]))
    data, bits = manifest["labels"][key]
    manifest["labels"][key] = (data, [bits])


def _manifest_encoded(manifest) -> EncodedLabeling:
    return EncodedLabeling(
        manifest["header"],
        {key: EncodedLabel(*entry) for key, entry in manifest["labels"].items()},
        manifest["location"],
    )


def _with_header(encoded, **changes) -> EncodedLabeling:
    """``encoded``'s labels against its header rebuilt with ``changes``."""
    header = {
        f.name: getattr(encoded.header, f.name)
        for f in dataclasses.fields(WireHeader)
        if f.compare
    }
    header.update(changes)
    return EncodedLabeling(
        WireHeader(**header), dict(encoded.labels), encoded.location
    )


def _last_entry(name, value):
    """The header with the last entry of one dictionary replaced."""
    def craft(encoded):
        entries = getattr(encoded.header, name)
        return _with_header(encoded, **{name: entries[:-1] + (value,)})
    return craft


def _dropped_entry(name):
    """The header without the last entry of one dictionary, whose code
    some label holds; every field width stays."""
    def craft(encoded):
        crafted = _with_header(
            encoded, **{name: getattr(encoded.header, name)[:-1]}
        )
        widths = ("id_index_bits", "class_bits", "tag_bits")
        assert [getattr(crafted.header, w) for w in widths] == [
            getattr(encoded.header, w) for w in widths
        ]
        return crafted
    return craft


def _side_bits_11(encoded):
    """One B record's side field written as ``11``."""
    table = decode_labeling_columnar(encoded)
    assert table.rows[B]
    table.rows[B][0] = table.rows[B][0][:-1] + (2,)
    return encode_table(table, encoded.header)


def _one_label(edit):
    """One label in the middle of the labeling edited, the rest honest."""
    def craft(encoded):
        labels = dict(encoded.labels)
        key = sorted(labels, key=repr)[len(labels) // 2]
        labels[key] = edit(labels[key])
        return EncodedLabeling(encoded.header, labels, encoded.location)
    return craft


#: Wire forms behind a valid envelope digest that the decoder refuses.
_CRAFTED = {
    "identifier-str": _last_entry("id_table", "x"),
    "identifier-bool": _last_entry("id_table", True),
    "identifier-2**70": _last_entry("id_table", 2**70),
    "state-unhashable": _last_entry("states", []),
    "tag-unhashable": _last_entry("tags", []),
    "side-bits-11": _side_bits_11,
    "identifier-code-past-table": _dropped_entry("id_table"),
    "state-code-past-table": _dropped_entry("states"),
    "tag-code-past-table": _dropped_entry("tags"),
    "truncated-label": _one_label(
        lambda e: EncodedLabel(e.data[: len(e.data) // 2], e.bit_length)
    ),
    "over-long-label": _one_label(
        lambda e: EncodedLabel(e.data + b"\0", e.bit_length + 8)
    ),
    "corrupt-label": _one_label(
        lambda e: EncodedLabel(b"\xff" * len(e.data), e.bit_length)
    ),
}


class TestSaveLoad:
    def test_save_load_round_trip(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path)
        path = store.save(report)
        assert path.exists()
        fingerprint = graph.fingerprint()
        assert (fingerprint, "connected") in store
        assert len(store) == 1

        loaded = store.load(fingerprint, "connected")
        assert loaded.property_key == "connected"
        assert loaded.labeling.mapping == report.labeling.mapping
        assert loaded.max_label_bits == report.max_label_bits
        assert loaded.encoded.max_bits == report.encoded.max_bits
        # The rehydrated config is the same network.
        assert loaded.config.graph.fingerprint() == fingerprint
        assert loaded.config.ids == report.config.ids

    def test_certify_with_store_saves_automatically(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=52, store=store)
        assert (graph.fingerprint(), "connected") in store
        # entries() lists what certify persisted.
        [(fingerprint, key, _path)] = store.entries()
        assert (fingerprint, key) == (graph.fingerprint(), "connected")

    def test_session_store_saves_batches(self, tmp_path):
        store = CertificateStore(tmp_path)
        sequence, graph = lanewidth_workload(3, 16, 53)
        session = CertificationSession(rng=random.Random(54), store=store)
        reports = session.certify(sequence, ["connected", "even-order"])
        saved = {key for _f, key, _p in store.entries()}
        accepted = {k for k, r in reports.items() if not r.refused}
        assert accepted <= saved | {"connected", "even-order"}
        for key in accepted:
            assert (graph.fingerprint(), key) in store

    def test_refused_report_is_not_storable(self, tmp_path):
        from repro.graphs.generators import cycle_graph

        store = CertificateStore(tmp_path)
        # An odd cycle is not bipartite: the honest prover must refuse,
        # and a refusal has no labeling to persist.
        report = certify(
            cycle_graph(7), "bipartite", k=2, rng=random.Random(56), store=store
        )
        assert report.refused
        with pytest.raises(StoreError):
            store.save(report)
        assert len(store) == 0

    def test_json_rebuilt_report_is_not_storable(self, tmp_path):
        from repro.api import CertificationReport

        store = CertificateStore(tmp_path)
        report, _graph = _certified(tmp_path, seed=57)
        rebuilt = CertificationReport.from_dict(report.to_dict())
        with pytest.raises(StoreError):
            store.save(rebuilt)


class TestReverifyWithoutProving:
    def test_session_verify_runs_no_prover_stage(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=61, store=store)
        loaded = store.load(graph.fingerprint(), "connected")
        session = CertificationSession()
        verification = session.verify(loaded)
        assert verification.accepted
        assert loaded.accepted
        # The stored path never touches a prover stage.
        assert session.stage_counters == {}

    def test_store_reverify_helper(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=62, store=store)
        out = store.reverify(
            graph.fingerprint(), "connected", engine=VerificationEngine()
        )
        assert out.accepted
        assert out.verification.accepted
        assert out.verification.views_built == out.n

    def test_fresh_process_load_and_verify(self, tmp_path):
        """The acceptance criterion, literally: a separate interpreter
        loads the entry and the verification round accepts, with the
        stage counters proving no prover stage ran."""
        store = CertificateStore(tmp_path)
        _report, graph = _certified(tmp_path, seed=63, store=store)
        script = (
            "import sys\n"
            "from repro.api import CertificateStore, CertificationSession\n"
            "store = CertificateStore(sys.argv[1])\n"
            "report = store.load(sys.argv[2], 'connected')\n"
            "session = CertificationSession()\n"
            "verification = session.verify(report)\n"
            "assert verification.accepted, verification.summary()\n"
            "assert session.stage_counters == {}, session.stage_counters\n"
            "print('REVERIFIED', report.max_label_bits)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), graph.fingerprint()],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "REVERIFIED" in proc.stdout


class TestIntegrity:
    def test_missing_entry(self, tmp_path):
        store = CertificateStore(tmp_path)
        with pytest.raises(StoreError):
            store.load("0" * 32, "connected")

    def test_non_store_file_rejected(self, tmp_path):
        store = CertificateStore(tmp_path)
        bogus = tmp_path / "bogus.cert"
        bogus.write_bytes(b"definitely not a certificate")
        with pytest.raises(StoreError):
            store.load_path(bogus)

    def test_truncated_envelope_rejected(self, tmp_path):
        # A bit-flipped or truncated pickle after the magic must surface
        # as StoreError, never a raw pickle exception.
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=66, store=store)
        path = store.path_for(graph.fingerprint(), "connected")
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(StoreError):
            store.load(graph.fingerprint(), "connected")
        path.write_bytes(ARTIFACT_MAGIC + b"\x80garbage")
        with pytest.raises(StoreError):
            store.load(graph.fingerprint(), "connected")

    def test_missing_manifest_fields_rejected(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=67, store=store)
        path = store.path_for(graph.fingerprint(), "connected")
        _rewrite_manifest(path, lambda manifest: manifest.pop("labels"))
        with pytest.raises(StoreError, match="missing fields"):
            store.load(graph.fingerprint(), "connected")

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        # Another graph's entry moved onto the requested path: the
        # manifest's fingerprint is not the one asked for.
        store = CertificateStore(tmp_path)
        _report, graph = _certified(tmp_path, seed=64, store=store)
        _other, other = _certified(tmp_path, seed=65, store=store)
        os.replace(
            store.path_for(other.fingerprint(), "connected"),
            store.path_for(graph.fingerprint(), "connected"),
        )
        with pytest.raises(StoreError, match="holds fingerprint"):
            store.load(graph.fingerprint(), "connected")
        assert store.metrics.snapshot()["misses"] == 1

    @pytest.mark.parametrize(
        "corrupt",
        [_drop_report_key, _drop_vertex_id, _drop_header_field, _list_bit_length],
    )
    def test_corrupt_manifest_is_a_counted_store_error(self, tmp_path, corrupt):
        # Fields that unpickle but do not parse (a report without
        # "accepted", identifiers missing a vertex, a header missing a
        # field, a non-integer bit length) are StoreErrors and misses.
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=68, store=store)
        path = store.path_for(graph.fingerprint(), "connected")
        _rewrite_manifest(path, corrupt)
        with pytest.raises(StoreError):
            store.load(graph.fingerprint(), "connected")
        assert store.metrics.snapshot()["misses"] == 1

    def test_bit_flips_load_or_raise_store_error(self, tmp_path):
        # Seeded 1-2 bit flips anywhere in an entry: each load returns
        # a report or raises StoreError, and each StoreError is a miss.
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=69, n=24, store=store)
        fingerprint = graph.fingerprint()
        path = store.path_for(fingerprint, "connected")
        clean = path.read_bytes()
        rng = random.Random(0)
        errors = 0
        for _ in range(400):
            data = bytearray(clean)
            for _flip in range(rng.randint(1, 2)):
                bit = rng.randrange(8 * len(data))
                data[bit >> 3] ^= 1 << (bit & 7)
            path.write_bytes(bytes(data))
            try:
                store.load(fingerprint, "connected")
            except StoreError:
                errors += 1
        assert errors > 0
        assert store.metrics.snapshot()["misses"] == errors

    @pytest.mark.parametrize("kind", ["serial", "vectorized"])
    def test_bit_flips_reverify_or_raise_store_error(self, tmp_path, kind):
        # The same sweep through store.reverify, whose round decodes
        # the labels late or never: each call returns a report or raises
        # StoreError, and each StoreError is a miss.
        store = CertificateStore(tmp_path)
        fingerprint = _certified_vectorized(store)
        path = store.path_for(fingerprint, "connected")
        clean = path.read_bytes()
        rng = random.Random(0)
        errors = 0
        for _ in range(300):
            path.write_bytes(_flip_bits(clean, rng))
            engine = VerificationEngine(make_executor(kind))
            try:
                store.reverify(fingerprint, "connected", engine=engine)
            except StoreError:
                errors += 1
        assert errors > 0
        assert store.metrics.snapshot()["misses"] == errors

    def test_corrupted_label_payload_rejected(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=65, store=store)
        path = store.path_for(graph.fingerprint(), "connected")
        # Truncate one certificate payload behind a valid digest: the
        # load succeeds, and the first read of the labels is the
        # decoder's StoreError.
        _rewrite_manifest(path, _truncate_one_payload)
        mapping = store.load(graph.fingerprint(), "connected").labeling.mapping
        with pytest.raises(StoreError, match="corrupted certificate payload"):
            dict(mapping)
        assert mapping.table is None and mapping.decoded is None

    def test_version_1_entry_is_a_counted_miss(self, tmp_path):
        # A version 1 entry (its own magic, then a bare pickle) is never
        # unpickled: it is one StoreError and one miss.
        store = CertificateStore(tmp_path)
        _report, graph = _certified(tmp_path, seed=66, store=store)
        path = store.path_for(graph.fingerprint(), "connected")
        manifest = unseal(path.read_bytes())
        manifest["store_version"] = 1
        path.write_bytes(
            b"repro-cert\x00" + pickle.dumps(manifest, protocol=4)
        )
        with pytest.raises(StoreError, match="corrupted store envelope"):
            store.load(graph.fingerprint(), "connected")
        assert store.metrics.snapshot()["misses"] == 1

    def test_unreadable_entry_is_left_out_of_the_listing(self, tmp_path):
        # One version 1 entry among readable ones: the listing skips it
        # as one counted miss and still names every other entry.
        store = CertificateStore(tmp_path)
        _certified(tmp_path, seed=66, store=store)
        _report, graph = _certified(tmp_path, seed=67, store=store)
        path = store.path_for(graph.fingerprint(), "connected")
        path.write_bytes(
            b"repro-cert\x00" + pickle.dumps({"store_version": 1}, protocol=4)
        )
        assert len(store) == 2 and store.stats()["entries"] == 2
        (entry,) = store.entries()
        assert entry[2] != path
        assert store.load(entry[0], entry[1]).labeling.mapping
        assert store.metrics.snapshot()["misses"] == 1


class TestCraftedPayloads:
    """Wire forms that unseal but do not decode: each is a
    :class:`CodecError` from the decoder, and a reverify on either
    engine is one counted :class:`StoreError` miss."""

    @pytest.mark.parametrize("kind", ["serial", "vectorized"])
    @pytest.mark.parametrize("craft", sorted(_CRAFTED))
    def test_crafted_payload_is_a_counted_miss(self, tmp_path, craft, kind):
        fingerprint = _certified_vectorized(CertificateStore(tmp_path))
        store = CertificateStore(tmp_path)

        def edit(manifest):
            encoded = _CRAFTED[craft](_manifest_encoded(manifest))
            with pytest.raises(CodecError):
                decode_labeling_columnar(encoded)
            manifest["header"] = encoded.header
            manifest["labels"] = {
                key: (label.data, label.bit_length)
                for key, label in encoded.labels.items()
            }

        _rewrite_manifest(store.path_for(fingerprint, "connected"), edit)
        with pytest.raises(StoreError, match="corrupted certificate payload"):
            store.reverify(
                fingerprint,
                "connected",
                engine=VerificationEngine(make_executor(kind)),
            )
        counts = store.metrics.snapshot()
        assert (counts["hits"], counts["misses"], counts["decodes"]) == (1, 1, 0)


class TestCraftedEnvelopes:
    """A sealed payload (valid digest) whose manifest pickles a call to
    ``open(marker, "w")`` runs nothing: every reader refuses the global
    before calling it, as a typed error or a counted miss."""

    @pytest.mark.parametrize("reader", ["load", "serial", "vectorized"])
    def test_crafted_entry_is_a_counted_store_error(self, tmp_path, reader):
        store_root = tmp_path / "store"
        fingerprint = _certified_vectorized(CertificateStore(store_root))
        marker = tmp_path / "marker"
        store = CertificateStore(store_root)
        _rewrite_manifest(
            store.path_for(fingerprint, "connected"),
            lambda manifest: manifest.update(graph=_Opens(marker)),
        )
        with pytest.raises(StoreError, match="envelope"):
            if reader == "load":
                store.load(fingerprint, "connected")
            else:
                store.reverify(
                    fingerprint,
                    "connected",
                    engine=VerificationEngine(make_executor(reader)),
                )
        assert not marker.exists()
        counts = store.metrics.snapshot()
        assert (counts["hits"], counts["misses"]) == (0, 1)

    def test_crafted_artifacts_are_recomputed(self, tmp_path):
        # A session certify over the store's artifact directory: every
        # node misses and reruns, to the same labels and verdicts.
        sequence, _graph = lanewidth_workload(3, 24, 5)

        def certify_into(store_root):
            session = CertificationSession(
                store=CertificateStore(store_root), rng=random.Random(5)
            )
            return session, session.certify(sequence, "connected")

        store_root = tmp_path / "store"
        cold_session, cold = certify_into(store_root)
        marker = tmp_path / "marker"
        paths = sorted((store_root / "artifacts").glob("*.art"))
        for path in paths:
            manifest = unseal(path.read_bytes())
            manifest["outputs"] = {
                name: _Opens(marker) for name in manifest["outputs"]
            }
            path.write_bytes(seal(manifest))
        session, report = certify_into(store_root)
        assert not marker.exists()
        assert session.artifacts.hits == 0
        assert session.artifacts.misses == len(paths)
        assert session.stage_counters == cold_session.stage_counters
        assert report.labeling.mapping == cold.labeling.mapping
        assert report.verification.verdicts == cold.verification.verdicts
        assert report.accepted

    def test_crafted_compiled_round_recompiles(self, tmp_path):
        store_root = tmp_path / "store"
        fingerprint = _certified_vectorized(CertificateStore(store_root))
        honest = CertificateStore(store_root).reverify(
            fingerprint,
            "connected",
            engine=VerificationEngine(make_executor("vectorized")),
        )
        marker = tmp_path / "marker"
        replaced = 0
        for path in (store_root / "artifacts").glob("*.art"):
            manifest = unseal(path.read_bytes())
            if manifest["stage"] == "compiled-round":
                manifest["outputs"]["state"] = _Opens(marker)
                path.write_bytes(seal(manifest))
                replaced += 1
        assert replaced == 1
        store = CertificateStore(store_root)
        report = store.reverify(
            fingerprint,
            "connected",
            engine=VerificationEngine(make_executor("vectorized")),
        )
        assert not marker.exists()
        assert store.artifact_cache().misses == 1
        stats = report.verification.kernel_stats
        assert stats["mode"] == "kernel"
        assert stats["compiled_round_cached"] is False
        assert report.verification.verdicts == honest.verification.verdicts
        assert report.accepted


class TestDigestFraming:
    """The labeling digest frames each label's fields.  Moving the
    first digit of a label's bit length onto the end of its bytes keeps
    an unframed stream, which would let the tampered entry attach the
    honest compiled round and be accepted; framed, its digest differs,
    the round compiles, and the payload that does not decode is a
    counted miss."""

    @staticmethod
    def _shift_digit(manifest):
        labels = manifest["labels"]
        key = next(
            key
            for key in sorted(labels, key=repr)
            if len(str(labels[key][1])) > 1 and str(labels[key][1])[1] != "0"
        )
        data, bits = labels[key]
        digits = str(bits)
        labels[key] = (data + digits[:1].encode(), int(digits[1:]))

    @pytest.mark.parametrize("kind", ["serial", "vectorized"])
    def test_shifted_bit_length_digit_is_a_counted_store_error(
        self, tmp_path, kind
    ):
        fingerprint = _certified_vectorized(CertificateStore(tmp_path))
        store = CertificateStore(tmp_path)
        _rewrite_manifest(
            store.path_for(fingerprint, "connected"), self._shift_digit
        )
        if kind == "vectorized":
            executor = make_executor(kind, artifacts=store.artifact_cache())
        else:
            executor = make_executor(kind)
        with pytest.raises(StoreError, match="corrupted certificate payload"):
            store.reverify(
                fingerprint, "connected", engine=VerificationEngine(executor)
            )
        assert store.metrics.snapshot()["misses"] == 1


class TestDeferredDecode:
    """When a stored labeling is decoded: only when a round reads it."""

    def _reverify(self, store, fingerprint, kind="vectorized"):
        engine = VerificationEngine(make_executor(kind))
        report = store.reverify(fingerprint, "connected", engine=engine)
        assert report.accepted
        return report

    def test_attached_reverify_decodes_nothing(self, tmp_path):
        # A fresh store and a bare vectorized engine: the store lends
        # its artifact cache, the round attaches the persisted compiled
        # round, and no label is decoded.
        fingerprint = _certified_vectorized(CertificateStore(tmp_path))
        store = CertificateStore(tmp_path)
        report = self._reverify(store, fingerprint)
        stats = report.verification.kernel_stats
        assert stats["compiled_round_cached"] is True
        assert stats["compile_seconds"] == 0
        assert report.verification.views_built == 0
        assert store.metrics.snapshot()["decodes"] == 0
        mapping = report.labeling.mapping
        assert isinstance(mapping, StoredLabels) and mapping.decoded is None
        # The attach vouched for the bytes: reading them afterwards works.
        assert mapping == store.load(fingerprint, "connected").labeling.mapping

    @pytest.mark.parametrize("mode", ["lanewidth", "theorem1"])
    def test_kernel_accepted_certify_builds_no_label(self, mode, monkeypatch):
        # A fresh certify's round compiles from the prover's record
        # table; when the kernels accept every vertex nothing reads a
        # label, so no label object exists.  The first read builds them
        # from the table, equal to what the wire form decodes to.
        monkeypatch.delenv("REPRO_VECTORIZED_AUDIT", raising=False)
        engine = VerificationEngine(make_executor("vectorized"))
        if mode == "lanewidth":
            target, _graph = lanewidth_workload(3, 48, 5)
            session = CertificationSession(rng=random.Random(5), engine=engine)
        else:
            target, _decomposition = pathwidth_workload(64, 3, 1)
            session = CertificationSession(
                k=8, rng=random.Random(5), engine=engine
            )
        report = session.certify(target, "connected")
        stats = report.verification.kernel_stats
        assert stats["mode"] == "kernel" and stats["fallback_vertices"] == 0
        mapping = report.labeling.mapping
        assert mapping.table is not None and mapping.decoded is None
        labels = decode_labeling_columnar(mapping.encoded()).materialize()
        assert dict(mapping) == labels
        assert mapping.decoded is not None

    def test_reverify_without_persisted_round_decodes_once(self, tmp_path):
        # A serial certify persists no compiled round, so the vectorized
        # round compiles, and compiling reads every label once.
        _report, graph = _certified(
            tmp_path, seed=70, n=24, store=CertificateStore(tmp_path)
        )
        store = CertificateStore(tmp_path)
        report = self._reverify(store, graph.fingerprint())
        assert report.verification.kernel_stats["compiled_round_cached"] is False
        assert store.metrics.snapshot()["decodes"] == 1
        # That round persisted its compiled form: the next one attaches.
        fresh = CertificateStore(tmp_path)
        self._reverify(fresh, graph.fingerprint())
        assert fresh.metrics.snapshot()["decodes"] == 0

    def test_compiling_reverify_builds_no_label(self, tmp_path, monkeypatch):
        # No persisted round: the vectorized round compiles from the
        # record table the wire form decodes to.  The kernels accept
        # every vertex, so no label object is built.
        monkeypatch.delenv("REPRO_VECTORIZED_AUDIT", raising=False)
        _report, graph = _certified(
            tmp_path, seed=70, n=24, store=CertificateStore(tmp_path)
        )
        store = CertificateStore(tmp_path)
        report = self._reverify(store, graph.fingerprint())
        stats = report.verification.kernel_stats
        assert stats["compiled_round_cached"] is False
        assert stats["kernel_accepted"] == report.n
        assert stats["fallback_vertices"] == 0
        mapping = report.labeling.mapping
        assert mapping.table is not None and mapping.decoded is None
        assert store.metrics.snapshot()["decodes"] == 1

    def test_loaded_report_attaches_the_persisted_round(
        self, tmp_path, monkeypatch
    ):
        # A plain load's mapping carries its digest too, so a round over
        # the loaded report attaches what a certify persisted.
        monkeypatch.delenv("REPRO_VECTORIZED_AUDIT", raising=False)
        fingerprint = _certified_vectorized(CertificateStore(tmp_path))
        store = CertificateStore(tmp_path)
        loaded = store.load(fingerprint, "connected")
        engine = VerificationEngine(
            make_executor("vectorized", artifacts=store.artifact_cache())
        )
        verification = engine.verify(
            loaded.config, loaded.scheme, loaded.labeling
        )
        assert verification.accepted
        assert verification.kernel_stats["compiled_round_cached"] is True
        mapping = loaded.labeling.mapping
        assert mapping.table is None and mapping.decoded is None

    def test_serial_reverify_decodes_once(self, tmp_path):
        fingerprint = _certified_vectorized(CertificateStore(tmp_path))
        store = CertificateStore(tmp_path)
        report = self._reverify(store, fingerprint, kind="serial")
        assert report.verification.views_built == 24
        assert store.metrics.snapshot()["decodes"] == 1

    def test_load_decodes_once(self, tmp_path):
        fingerprint = _certified_vectorized(CertificateStore(tmp_path))
        store = CertificateStore(tmp_path)
        loaded = store.load(fingerprint, "connected")
        mapping = loaded.labeling.mapping
        assert isinstance(mapping, StoredLabels)
        assert mapping.table is None and mapping.decoded is None
        assert len(mapping) == len(loaded.encoded.labels)
        # The first read decodes the wire form into the mapping's record
        # table once, and builds the labels from it.
        labels = dict(mapping)
        table = mapping.table
        assert table is not None and mapping.decoded is not None
        assert dict(mapping) == labels and mapping.table is table
        # Only reverify rounds count decodes.
        assert store.metrics.snapshot()["decodes"] == 0
        # An unread labeling pickles as its wire form, and decodes to
        # the same labels on either side of the pickle.
        unread = store.load(fingerprint, "connected")
        copy = pickle.loads(pickle.dumps(unread.labeling))
        assert copy.mapping.decoded is None and copy.mapping.table is None
        assert len(copy.mapping) == len(labels)
        assert copy.mapping == unread.labeling.mapping == labels

    def test_audit_mode_reverify_decodes_once(self, tmp_path, monkeypatch):
        # Audit mode re-checks every kernel accept through reference
        # views, so even an attached round reads the labels.
        fingerprint = _certified_vectorized(CertificateStore(tmp_path))
        monkeypatch.setenv("REPRO_VECTORIZED_AUDIT", "1")
        store = CertificateStore(tmp_path)
        report = self._reverify(store, fingerprint)
        assert report.verification.kernel_stats["compiled_round_cached"] is True
        assert store.metrics.snapshot()["decodes"] == 1

    @pytest.mark.parametrize("kind", ["serial", "vectorized"])
    def test_truncated_payload_reverify_raises(self, tmp_path, kind):
        fingerprint = _certified_vectorized(CertificateStore(tmp_path))
        store = CertificateStore(tmp_path)
        _rewrite_manifest(
            store.path_for(fingerprint, "connected"), _truncate_one_payload
        )
        with pytest.raises(StoreError, match="certificate payload"):
            store.reverify(
                fingerprint,
                "connected",
                engine=VerificationEngine(make_executor(kind)),
            )
        counts = store.metrics.snapshot()
        assert (counts["hits"], counts["misses"], counts["decodes"]) == (1, 1, 0)
