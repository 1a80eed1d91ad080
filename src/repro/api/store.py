"""Persistent certificate store: certify once, re-verify many times.

A :class:`CertificateStore` is a directory of certified instances keyed
by ``(graph fingerprint, property key)``.  Each entry persists exactly
what a verification round needs — the configuration (graph + vertex
identifiers), the verifier half of the scheme, and the labeling in
**wire form** (the shared :class:`~repro.codec.WireHeader` plus one
encoded byte string per edge; see ``docs/FORMAT.md``) — so a fresh
process can :meth:`load` the entry and run
:meth:`~repro.api.runtime.VerificationEngine.verify` (or
``session.verify(report)``) without ever re-running a prover stage.

    store = CertificateStore("certs/")
    report = certify(graph, "connected", k=2, store=store)   # saved
    ...
    # later, possibly in another process:
    loaded = store.load(graph.fingerprint(), "connected")
    verification = store_session.verify(loaded)              # no proving

Each entry is one envelope, the format every file the library writes
takes (:func:`~repro.api.artifacts.seal`; ``docs/FORMAT.md`` §
"Envelopes"): a magic, a payload digest, and a pickled manifest that
loads through an allow-list of the library's own classes.  Graphs,
identifiers, and algebra states are Python values, so the *container*
is a pickle, while the certificate payloads themselves stay raw codec
bytes — the part whose size the paper bounds and the reports measure.
Entries record the graph fingerprint they were proven against and
:meth:`load` recomputes it, so a corrupted or swapped graph is rejected
instead of silently verified.

Decoding the labels is most of what a load would cost, so a loaded
labeling decodes on first read (:class:`StoredLabels`).  That read-only
mapping also carries the digest of its wire form, which keys the
vectorized executor's compiled rounds: a round over a loaded report,
:meth:`reverify`'s included, attaches the round a certify persisted,
and one that compiles reads the labels as a record table, building no
label object.

Layout
------
Entries live in **fingerprint-prefix shards**: ``<root>/<fp[:2]>/<fp
prefix>-<property slug>.cert``.  256 shards keep directory listings
short under millions of entries and let concurrent writers touch
disjoint directories (see ``docs/FORMAT.md`` § "Sharded store layout").

Concurrent-writer safety: :meth:`save` publishes through
:func:`~repro.api.artifacts.publish` (a uniquely named temp file in the
destination shard, then :func:`os.replace`), as the artifact cache does,
so readers never observe half an entry and two processes saving the
same key cannot interleave bytes — last writer wins wholesale.  A crash
between write and publish leaves only a ``*.tmp`` orphan, which
:meth:`clean_orphans` (called by :meth:`compact`) removes once stale,
in the shards and in ``artifacts/`` alike.

Capacity: pass ``byte_budget=`` to bound the store's on-disk size.
:meth:`compact` (triggered by :meth:`save` when a budget is set) evicts
least-recently-used entries — :meth:`load` bumps an entry's mtime, so
recency is observable across processes — until the budget holds.  A
:class:`StoreMetrics` instance counts hits/misses/saves/evictions for
the service layer's observability snapshot.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections.abc import Mapping
from dataclasses import fields
from pathlib import Path
from types import MappingProxyType
from typing import Optional

from repro.api.artifacts import ArtifactCache, publish, seal, unseal
from repro.codec import (
    WIRE_VERSION,
    CodecError,
    EncodedLabel,
    EncodedLabeling,
    WireHeader,
    decode_labeling_columnar,
    encode_labeling_columnar,
    labeling_digest,
)
from repro.core.scheme import CertifyingScheme
from repro.courcelle.registry import resolve_algebra
from repro.pls.model import Configuration
from repro.pls.scheme import Labeling

#: Manifest version; bumped when the manifest layout changes (the label
#: payload format is versioned separately by WIRE_VERSION).  Version 1
#: entries were bare pickles, which no reader opens any more.
STORE_VERSION = 2

#: Shard name length: 2 hex characters of the fingerprint = 256 shards.
SHARD_PREFIX_LEN = 2

#: Temp files older than this are crash orphans, not writes in flight.
ORPHAN_AGE_SECONDS = 300.0

#: Manifest field -> the type :meth:`CertificateStore._read` requires.
_MANIFEST_FIELDS = {
    "fingerprint": str,
    "property_key": str,
    "graph": object,
    "ids": dict,
    "algebra": object,
    "algebra_key": object,
    "max_width": object,
    "header": WireHeader,
    "labels": dict,
    "location": str,
    "report": dict,
}

#: What rebuilding a corrupt entry's graph, identifiers, algebra or
#: report raises; :meth:`CertificateStore.load` turns each into a
#: :class:`StoreError`.
_PARSE_ERRORS = (AttributeError, KeyError, TypeError, ValueError)

_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]+")
_SHARD_RE = re.compile(r"^[0-9a-f]{%d}$" % SHARD_PREFIX_LEN)


class StoreError(ValueError):
    """Raised on missing, corrupted, or mismatched store entries."""


class StoreMetrics:
    """Lifetime counters for one store (thread-safe increments).

    ``hits``/``misses`` count :meth:`CertificateStore.load` outcomes
    (a miss is a lookup of an absent entry; corruption raises *and*
    counts as a miss — the entry is unusable either way; a
    :meth:`~CertificateStore.reverify` round that reads a payload which
    does not decode adds one more miss), ``saves`` successful
    publishes, ``evictions``/``bytes_evicted`` what
    :meth:`~CertificateStore.compact` removed, ``orphans_cleaned``
    stale temp files removed, and ``decodes`` the record-table decodes
    :meth:`~CertificateStore.reverify` rounds ran (at most one per
    round: a compile or the first label read decodes, an attached
    round whose kernels accept every vertex does not).
    :meth:`snapshot` returns a JSON-safe dict; the service layer embeds
    it in its own metrics snapshot.
    """

    FIELDS = (
        "hits",
        "misses",
        "saves",
        "evictions",
        "bytes_evicted",
        "orphans_cleaned",
        "decodes",
    )

    def __init__(self):
        self._lock = threading.Lock()
        for name in self.FIELDS:
            setattr(self, name, 0)

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> dict:
        with self._lock:
            return {name: getattr(self, name) for name in self.FIELDS}

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"StoreMetrics({pairs})"


class StoredLabels(Mapping):
    """A read-only ``edge -> label`` mapping that carries its wire form.

    It holds a private copy of an encoded labeling and that labeling's
    content :attr:`digest` (:func:`~repro.codec.labeling_digest`),
    computed when the mapping is built.  ``len()`` answers from the wire
    form.  The labels' :class:`~repro.codec.table.RecordTable` is
    :attr:`table`: the prover's, kept by :meth:`_from_prover` (the label
    stage builds every honest labeling's mapping that way), or ``None``
    until :meth:`record_table` decodes the wire form into one, through
    the one decoder, ``decode_labeling_columnar`` (looked up by name at
    read time).  A payload that does not decode raises
    :class:`StoreError`.  The vectorized round compiler reads the table;
    the first key lookup or iteration builds the label objects from it
    (:meth:`~repro.codec.table.RecordTable.materialize`, one object per
    distinct row), and only then.  :meth:`encoded` hands out a copy of
    the wire form.

    No public path changes the labels it serves: item assignment raises
    ``TypeError`` and :attr:`decoded` is a read-only view.  So the
    digest always names the labels served, and the vectorized executor
    keys compiled rounds on it: a round whose kernels accept every
    vertex never reads the labels, so no label object is built (and,
    for a stored mapping that attaches its round, nothing is decoded).
    To tamper with the labels, copy them into a plain ``dict``; a plain
    mapping has no wire identity, so its rounds always compile.

    It pickles as its wire form and source alone: the table lives in
    memory only, so a mapping read back from disk decodes again.
    """

    __slots__ = ("_encoded", "_digest", "_decoded", "source", "table")

    def __init__(self, encoded: EncodedLabeling, source: str):
        self._encoded = EncodedLabeling(
            encoded.header, dict(encoded.labels), encoded.location
        )
        self._digest = labeling_digest(self._encoded)
        self._decoded = None
        self.source = source
        self.table = None

    @classmethod
    def _from_prover(cls, encoded: EncodedLabeling, table) -> "StoredLabels":
        """Serve the labels of ``table``, which ``encoded`` was just
        encoded from.

        Nothing checks that the two agree, so only the label stage
        (:class:`~repro.api.pipeline.LabelStage`) calls this, on the
        table it has just encoded; everyone else builds the mapping
        from the wire form alone.
        """
        stored = cls(encoded, "prover")
        stored.table = table
        return stored

    def __reduce__(self):
        return StoredLabels, (self._encoded, self.source)

    @property
    def digest(self) -> str:
        """Content digest of the wire form: the compiled-round key's link."""
        return self._digest

    def encoded(self) -> EncodedLabeling:
        """A copy of the wire form; editing it changes nothing served."""
        enc = self._encoded
        return EncodedLabeling(enc.header, dict(enc.labels), enc.location)

    @property
    def decoded(self):
        """A read-only view of the labels once read, else ``None``."""
        if self._decoded is None:
            return None
        return MappingProxyType(self._decoded)

    def record_table(self):
        """The labels' record table, decoded from the wire form on the
        first call when the prover did not hand one over."""
        if self.table is None:
            try:
                self.table = decode_labeling_columnar(self._encoded)
            except (CodecError,) + _PARSE_ERRORS as exc:
                raise StoreError(
                    f"corrupted certificate payload in {self.source}: {exc}"
                ) from exc
        return self.table

    def _labels(self) -> dict:
        if self._decoded is None:
            self._decoded = self.record_table().materialize()
        return self._decoded

    def __getitem__(self, key):
        return self._labels()[key]

    def __iter__(self):
        return iter(self._labels())

    def __len__(self) -> int:
        return len(self._encoded.labels)


def _slug(text: str) -> str:
    """Human-readable filename stem for a property key.

    Distinct keys can collide after slugging (e.g. the session's
    duplicate suffix ``colorable#2`` vs a real ``colorable-2`` key), so
    the stem always ends with a short digest of the *exact* key — two
    different keys never share an entry path.
    """
    import hashlib

    stem = _SLUG_RE.sub("-", text) or "property"
    digest = hashlib.blake2b(text.encode(), digest_size=4).hexdigest()
    return f"{stem}-{digest}"


class CertificateStore:
    """A sharded directory of persisted certificates, one file per entry.

    Parameters
    ----------
    root:
        Directory holding the entries (created on first use).  Entry
        files are named ``<fingerprint prefix>-<property slug>-<key
        digest>.cert`` inside the ``<fingerprint[:2]>`` shard — the
        digest keeps distinct property keys on distinct paths even when
        they slug identically; the full fingerprint lives inside the
        envelope and is what :meth:`load` matches on.
    byte_budget:
        Optional cap on the summed size of entry files.  When set,
        :meth:`save` triggers :meth:`compact`, which evicts
        least-recently-used entries until the store fits.  ``None``
        (default) never evicts.
    metrics:
        Optional :class:`StoreMetrics` to count against (a fresh one is
        created otherwise) — share one instance to aggregate several
        stores, or read ``store.metrics.snapshot()``.

    Writers are concurrent-safe (unique temp file + ``os.replace``);
    there is still no cross-process *index*, because the workload is
    append-mostly and fingerprint-addressed — the filesystem is the
    index.
    """

    suffix = ".cert"

    def __init__(self, root, byte_budget: Optional[int] = None, metrics=None):
        if byte_budget is not None and byte_budget <= 0:
            raise ValueError("byte_budget must be positive (or None)")
        self.root = Path(root)
        self.byte_budget = byte_budget
        self.metrics = metrics if metrics is not None else StoreMetrics()
        self._artifact_cache = None

    # ------------------------------------------------------------------
    def artifact_cache(self):
        """The store's persistent prover-artifact cache (lazy, shared).

        Structural artifacts (decomposition, lanes, completion,
        hierarchy) and per-property evaluations live under
        ``<root>/artifacts/``, next to the certificates — see
        :mod:`repro.api.artifacts` and ``docs/FORMAT.md`` § "Artifact
        envelopes".  Sessions carrying this store adopt the cache
        automatically, so a fresh process certifying a previously seen
        graph runs zero structural prover stages.
        """
        if self._artifact_cache is None:
            self._artifact_cache = ArtifactCache(self.root / "artifacts")
        return self._artifact_cache

    # ------------------------------------------------------------------
    # Layout: shards.
    # ------------------------------------------------------------------
    def shard_for(self, fingerprint: str) -> Path:
        """The shard directory owning ``fingerprint``."""
        return self.root / fingerprint[:SHARD_PREFIX_LEN]

    def path_for(self, fingerprint: str, property_key: str) -> Path:
        """The entry path for one ``(graph, property)``."""
        return self.shard_for(fingerprint) / (
            f"{fingerprint[:16]}-{_slug(property_key)}{self.suffix}"
        )

    def _shards(self) -> list:
        """Every shard directory."""
        if not self.root.is_dir():
            return []
        return [
            path
            for path in self.root.iterdir()
            if path.is_dir() and _SHARD_RE.match(path.name)
        ]

    def _entry_paths(self) -> list:
        """Every entry file, sorted."""
        return sorted(
            path
            for shard in self._shards()
            for path in shard.glob(f"*{self.suffix}")
        )

    # ------------------------------------------------------------------
    # Enumeration and accounting.
    # ------------------------------------------------------------------
    def __contains__(self, key) -> bool:
        fingerprint, property_key = key
        return self.path_for(fingerprint, property_key).exists()

    def __len__(self) -> int:
        return len(self._entry_paths())

    def entries(self) -> list:
        """Return ``(fingerprint, property_key, path)`` for every readable
        entry.

        An entry that does not read (a version 1, crafted or corrupt
        envelope, or a file removed mid-walk) is left out and counted as
        one miss, so one bad entry does not hide the others.
        """
        out = []
        for path in self._entry_paths():
            try:
                manifest = self._read(path)
            except StoreError:
                self.metrics.add("misses")
                continue
            out.append((manifest["fingerprint"], manifest["property_key"], path))
        return out

    def stats(self) -> dict:
        """Layout accounting: entry count, bytes, shards, stragglers.

        Pure filesystem arithmetic (no envelope is parsed), so it is
        cheap enough for the service metrics snapshot.  Lifetime
        counters (hits/misses/evictions/...) live on :attr:`metrics`.
        """
        paths = self._entry_paths()
        total = 0
        for path in paths:
            try:
                total += path.stat().st_size
            except OSError:
                continue  # evicted/replaced underneath us mid-walk
        orphans = len(self._orphan_paths(max_age_seconds=None))
        return {
            "entries": len(paths),
            "bytes": total,
            "shards": len({path.parent for path in paths}),
            "tmp_orphans": orphans,
            "byte_budget": self.byte_budget,
        }

    # ------------------------------------------------------------------
    # Eviction / compaction / orphan cleanup.
    # ------------------------------------------------------------------
    def _orphan_paths(self, max_age_seconds: Optional[float]) -> list:
        """Temp files in the shards and the artifact cache (optionally:
        older than ``max_age_seconds``)."""
        candidates = [
            path
            for directory in self._shards() + [self.artifact_cache().root]
            for path in directory.glob("*.tmp")
        ]
        if max_age_seconds is None:
            return sorted(candidates)
        deadline = time.time() - max_age_seconds
        stale = []
        for path in candidates:
            try:
                if path.stat().st_mtime <= deadline:
                    stale.append(path)
            except OSError:
                continue  # the writer finished (or another cleaner won)
        return sorted(stale)

    def clean_orphans(
        self, max_age_seconds: float = ORPHAN_AGE_SECONDS
    ) -> int:
        """Remove stale ``*.tmp`` crash orphans; return how many.

        Both the store and its artifact cache publish through temp
        files, so this sweeps the shards and ``artifacts/``.  A temp
        file younger than ``max_age_seconds`` may be another
        process's write in flight and is left alone — pass ``0`` only
        when no writer can be active (tests, offline compaction).
        """
        removed = 0
        for path in self._orphan_paths(max_age_seconds):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        if removed:
            self.metrics.add("orphans_cleaned", removed)
        return removed

    def compact(self, byte_budget: Optional[int] = None) -> list:
        """Evict least-recently-used entries until the budget holds.

        ``byte_budget`` defaults to the store's own; with neither set
        only orphan cleanup runs.  Recency is the entry file's mtime —
        :meth:`save` writes it fresh and :meth:`load` bumps it, so "used"
        means served, across processes.  Returns the evicted paths.
        The store's own artifact cache directory is never touched: a
        prover artifact miss is a recompute, priced separately.
        """
        self.clean_orphans()
        budget = self.byte_budget if byte_budget is None else byte_budget
        if budget is None:
            return []
        aged = []  # (mtime, size, path)
        total = 0
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            aged.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        aged.sort()
        evicted = []
        for mtime, size, path in aged:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue  # concurrent eviction/replacement: already gone
            total -= size
            evicted.append(path)
            self.metrics.add("evictions")
            self.metrics.add("bytes_evicted", size)
        return evicted

    # ------------------------------------------------------------------
    def save(self, report) -> Path:
        """Persist one certified report; return the entry path.

        The report must carry its artifacts (``config`` + ``labeling``,
        i.e. it came from a live ``certify`` call, not from JSON) and
        must not be a prover refusal.  The labeling is persisted in wire
        form — ``report.encoded`` when the session already encoded it,
        else encoded here — and the structured report metadata rides
        along so :meth:`load` can hand back a fully populated
        :class:`~repro.api.results.CertificationReport`.

        The write is atomic and concurrent-safe
        (:func:`~repro.api.artifacts.publish`): a reader never sees a
        partial entry; a crash mid-write leaves only a temp orphan for
        :meth:`clean_orphans`.
        """
        if report.refused:
            raise StoreError("cannot store a refused report (no labeling)")
        if report.config is None or report.labeling is None:
            raise StoreError(
                "report carries no artifacts to store (was it rebuilt "
                "from JSON?)"
            )
        encoded = getattr(report, "encoded", None)
        if encoded is None:
            encoded = encode_labeling_columnar(report.labeling)
        config = report.config
        fingerprint = config.graph.fingerprint()
        scheme = report.scheme
        algebra = getattr(scheme, "algebra", None)
        if algebra is None or getattr(scheme, "max_width", None) is None:
            raise StoreError(
                "report scheme must expose the verifier half "
                "(algebra + max_width) to be storable"
            )
        manifest = {
            "store_version": STORE_VERSION,
            "wire_version": WIRE_VERSION,
            "fingerprint": fingerprint,
            "property_key": report.property_key,
            "graph": config.graph,
            "ids": dict(config.ids),
            "algebra_key": getattr(algebra, "key", None),
            "algebra": algebra,
            "max_width": scheme.max_width,
            "header": encoded.header,
            "labels": {
                key: (enc.data, enc.bit_length)
                for key, enc in encoded.labels.items()
            },
            "location": encoded.location,
            "report": report.to_dict(),
        }
        path = self.path_for(fingerprint, report.property_key)
        publish(path, seal(manifest))
        self.metrics.add("saves")
        if self.byte_budget is not None:
            self.compact()
        return path

    # ------------------------------------------------------------------
    def _read(self, path: Path) -> dict:
        try:
            manifest = unseal(path.read_bytes())
        except OSError as exc:
            raise StoreError(f"cannot read store entry {path}: {exc}") from exc
        except ValueError as exc:
            # Wrong magic (a version 1 entry, say), a digest mismatch, or
            # a payload that names a global outside the allow-list.
            raise StoreError(
                f"corrupted store envelope in {path}: {exc}"
            ) from exc
        if manifest.get("store_version") != STORE_VERSION:
            raise StoreError(
                f"unsupported store version {manifest.get('store_version')} "
                f"in {path} (this build speaks v{STORE_VERSION})"
            )
        missing = [key for key in _MANIFEST_FIELDS if key not in manifest]
        if missing:
            raise StoreError(
                f"store entry {path} is missing fields: {', '.join(missing)}"
            )
        mistyped = [
            key
            for key, kind in _MANIFEST_FIELDS.items()
            if not isinstance(manifest[key], kind)
        ]
        if not mistyped and not all(
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], bytes)
            and isinstance(entry[1], int)
            for entry in manifest["labels"].values()
        ):
            mistyped.append("labels")
        if mistyped:
            raise StoreError(
                f"store entry {path} has mistyped fields: {', '.join(mistyped)}"
            )
        # Unpickling restores a header's fields without running its
        # constructor, so a crafted envelope can yield a header missing
        # one; rebuilding it checks every field is present.
        header = manifest["header"]
        try:
            manifest["header"] = WireHeader(
                **{
                    f.name: getattr(header, f.name)
                    for f in fields(WireHeader)
                    if f.compare
                }
            )
        except (AttributeError, CodecError) as exc:
            raise StoreError(f"corrupted wire header in {path}: {exc}") from exc
        return manifest

    def load(self, fingerprint: str, property_key: str):
        """Rehydrate one entry as a ready-to-verify report.

        Returns a :class:`~repro.api.results.CertificationReport` whose
        artifacts (``config``, verifier-half ``scheme``, ``labeling``,
        and the wire-form ``encoded``) are reconstructed from disk:
        ``session.verify(report)`` or a bare
        :class:`~repro.api.runtime.VerificationEngine` can run the round
        immediately, with zero prover stages.  The stored graph is
        re-fingerprinted on load and must match both the requested and
        the recorded fingerprint.

        The labeling's mapping is a :class:`StoredLabels`: the labels
        are decoded the first time anything reads them, and a payload
        that does not decode raises :class:`StoreError` then.  A round
        over the report attaches a persisted compiled round through the
        mapping's digest, or compiles from the decoded record table;
        either way the kernels build no label object.  A damaged entry
        fails here, on its envelope digest.

        Serving an entry bumps its mtime, which is the recency signal
        :meth:`compact` evicts against.
        """
        path = self.path_for(fingerprint, property_key)
        try:
            manifest = self._read(path)
            if manifest["property_key"] != property_key:
                raise StoreError(
                    f"{path} holds property {manifest['property_key']!r}, "
                    f"not {property_key!r}"
                )
            if manifest["fingerprint"] != fingerprint:
                raise StoreError(
                    f"{path} holds fingerprint "
                    f"{manifest['fingerprint'][:16]}..., caller asked for "
                    f"{fingerprint[:16]}..."
                )
            report = self._rehydrate(manifest, path)
        except StoreError:
            # Absent, mismatched or corrupt: the entry is unusable.
            self.metrics.add("misses")
            raise
        self.metrics.add("hits")
        try:
            os.utime(path)  # LRU recency bump (shared, cross-process)
        except OSError:
            pass  # read-only store: eviction recency degrades to save time
        return report

    def _rehydrate(self, manifest: dict, path: Path):
        """Build the ready-to-verify report from a validated manifest.

        Raises :class:`StoreError` when the graph, identifiers, algebra
        or report of the entry do not parse; its labels decode on first
        read.
        """
        from repro.api.results import CertificationReport

        graph = manifest["graph"]
        try:
            observed = graph.fingerprint()
        except _PARSE_ERRORS as exc:
            raise StoreError(f"corrupted graph in {path}: {exc!r}") from exc
        if observed != manifest["fingerprint"]:
            raise StoreError(
                f"graph fingerprint mismatch in {path}: entry claims "
                f"{manifest['fingerprint'][:16]}..., graph hashes to "
                f"{str(observed)[:16]}..."
            )
        encoded = EncodedLabeling(
            header=manifest["header"],
            labels={
                key: EncodedLabel(data=data, bit_length=bits)
                for key, (data, bits) in manifest["labels"].items()
            },
            location=manifest["location"],
        )
        try:
            algebra = manifest["algebra"]
            if algebra is None and manifest["algebra_key"] is not None:
                algebra = resolve_algebra(manifest["algebra_key"])
            config = Configuration(graph, manifest["ids"])
            scheme = CertifyingScheme(algebra, manifest["max_width"])
            report = CertificationReport.from_dict(manifest["report"])
            labeling = Labeling(
                location=encoded.location,
                mapping=StoredLabels(encoded, str(path)),
                size_context=encoded.header.size_context(),
            )
        except _PARSE_ERRORS as exc:
            raise StoreError(f"corrupted store entry {path}: {exc!r}") from exc
        report.config = config
        report.scheme = scheme
        report.labeling = labeling
        report.encoded = encoded
        return report

    def load_path(self, path) -> "CertificationReport":
        """Rehydrate an entry from an explicit file path.

        The manifest is read and validated once (no double parse); the
        recorded fingerprint is still checked against the stored graph.
        """
        path = Path(path)
        return self._rehydrate(self._read(path), path)

    # ------------------------------------------------------------------
    def reverify(
        self,
        fingerprint: str,
        property_key: str,
        engine=None,
    ):
        """Load one entry and run the verification round on it.

        Returns the loaded report with ``report.verification`` /
        ``report.accepted`` refreshed by the round — the certify-once /
        re-verify-many fast path, with no prover stage anywhere.

        The labels are decoded only if the round reads them: a compile
        reads them once, as a record table, and a fallback view, audit
        mode or the serial engine materialize label objects from that
        table; an attached round whose kernels accept every vertex reads
        nothing.  The store lends its artifact cache to an executor that
        has none, so a bare vectorized engine attaches too.  A payload
        that does not decode raises :class:`StoreError` and counts as a
        miss; once this returns, ``report.labeling`` reads without
        error.  A round that decoded the labels counts one ``decodes``.
        """
        from repro.api.runtime import VerificationEngine, lend_artifacts

        report = self.load(fingerprint, property_key)
        engine = engine or VerificationEngine()
        lend_artifacts(engine, self.artifact_cache())
        try:
            verification = engine.verify(
                report.config, report.scheme, report.labeling
            )
        except StoreError:
            self.metrics.add("misses")
            raise
        if report.labeling.mapping.table is not None:
            self.metrics.add("decodes")
        report.verification = verification
        report.result = verification.as_result()
        report.accepted = verification.accepted
        return report
