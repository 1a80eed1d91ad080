"""Persistent, content-addressed cache of prover-stage artifacts.

The plan layer (:mod:`repro.api.plan`) gives every artifact a content
fingerprint: a stage node's key is the hash of its name, its parameters,
and the keys of the artifacts it consumes, rooted in the graph
fingerprint.  An :class:`ArtifactCache` maps those node keys to the
artifacts the node produced, in two layers:

* an **in-memory layer** (always present) — the per-session reuse that
  :class:`~repro.api.session.CertificationSession` used to implement
  with a private memo dict;
* an optional **disk layer** — one envelope file per node under a cache
  directory, so a *fresh process* batch-certifying a previously seen
  graph resolves every structural node from disk and runs zero prover
  stages.  :meth:`CertificateStore.artifact_cache()
  <repro.api.store.CertificateStore.artifact_cache>` places this
  directory next to the certificates (``<store>/artifacts/``), which is
  how sessions with a store get persistence for free.

Envelopes (``docs/FORMAT.md`` § "Envelopes"): every file the library
writes — these artifacts, compiled rounds and certificate store entries
— is a magic prefix, a 16-byte blake2b digest of the payload, then the
payload, a pickled manifest (here ``{artifact_version, key, stage,
outputs, seconds}``).  :func:`seal` builds one, :func:`publish` writes
it and :func:`unseal` reads it: the digest is checked before the
payload loads (a bit-flipped pickle can still load, with changed
values), and the load resolves only allow-listed classes, so it runs no
code a writer chose.  A mismatched, truncated, crafted or unreadable
artifact is a **miss** — a corrupt cache must never break
certification, only slow it down.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import pickle
from pathlib import Path
from typing import Optional

_TMP_COUNTER = itertools.count()

#: Envelope magic + version; bumped when the manifest layout changes.
ARTIFACT_MAGIC = b"repro-artifact\x00"
ARTIFACT_VERSION = 2
#: Bytes of the blake2b payload digest between the magic and the payload.
ARTIFACT_DIGEST_SIZE = 16

#: Version folded into every node key by the plan layer; bumping it
#: invalidates all previously persisted artifacts at once (used when a
#: stage's semantics change without its parameters changing).
PLAN_CACHE_VERSION = 1

#: Packages whose classes an envelope may name.  None of them touches
#: files, sockets, threads or processes.
_TRUSTED_PACKAGES = (
    "repro.graphs",
    "repro.pathwidth",
    "repro.core",
    "repro.courcelle",
    "repro.codec",
    "repro.pls",
)
#: The other globals an envelope may name: the stored labels' mapping,
#: and what a pickled numpy array and its dtype refer to.
_TRUSTED_GLOBALS = frozenset(
    {
        ("repro.api.store", "StoredLabels"),
        ("numpy", "ndarray"),
        ("numpy", "dtype"),
        ("numpy._core.multiarray", "_reconstruct"),  # numpy 2
        ("numpy.core.multiarray", "_reconstruct"),  # numpy 1
    }
)


def _trusted(module: str) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in _TRUSTED_PACKAGES
    )


class _Loader(pickle.Unpickler):
    """Unpickler that resolves only allow-listed globals.

    A payload can name any global, and loading calls what it names, so
    an open loader runs whatever the writer chose.  This one admits the
    pairs in :data:`_TRUSTED_GLOBALS` and undotted names of classes
    defined in :data:`_TRUSTED_PACKAGES`; builtins, functions, dotted
    names and classes merely imported into those packages raise.
    """

    def find_class(self, module, name):
        if (module, name) in _TRUSTED_GLOBALS:
            return super().find_class(module, name)
        if _trusted(module) and "." not in name:
            found = super().find_class(module, name)
            if isinstance(found, type) and _trusted(found.__module__):
                return found
        raise pickle.UnpicklingError(f"envelope names {module}.{name}")


def seal(manifest: dict) -> bytes:
    """The envelope of ``manifest``: magic, payload digest, payload."""
    body = pickle.dumps(manifest, protocol=4)
    digest = hashlib.blake2b(body, digest_size=ARTIFACT_DIGEST_SIZE)
    return ARTIFACT_MAGIC + digest.digest() + body


def unseal(payload: bytes) -> dict:
    """The manifest :func:`seal` put in ``payload``.

    Raises :class:`ValueError` when the magic or the digest does not
    match, when the payload does not load through the allow-list, or
    when it does not hold a dict.
    """
    if not payload.startswith(ARTIFACT_MAGIC):
        raise ValueError("not an envelope")
    start = len(ARTIFACT_MAGIC) + ARTIFACT_DIGEST_SIZE
    body = payload[start:]
    digest = hashlib.blake2b(body, digest_size=ARTIFACT_DIGEST_SIZE)
    if payload[len(ARTIFACT_MAGIC):start] != digest.digest():
        raise ValueError("payload digest mismatch")
    try:
        manifest = _Loader(io.BytesIO(body)).load()
    except Exception as exc:
        raise ValueError(f"payload does not load: {exc!r}") from exc
    if not isinstance(manifest, dict):
        raise ValueError("payload holds no manifest")
    return manifest


def publish(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically.

    The bytes go to a uniquely named ``<name>.<pid>.<counter>.tmp`` next
    to ``path``, published with :func:`os.replace`: a reader never sees
    a partial file, and two writers of one path never share a temp file,
    so the last publish wins wholesale.  A crash leaves only the temp
    file, which :meth:`~repro.api.store.CertificateStore.clean_orphans`
    removes once stale.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / (
        f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER):x}.tmp"
    )
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


class ArtifactEntry:
    """One resolved plan node: its outputs and what producing them cost."""

    __slots__ = ("stage", "outputs", "seconds")

    def __init__(self, stage: str, outputs: dict, seconds: float):
        self.stage = stage
        self.outputs = dict(outputs)
        self.seconds = seconds

    def __repr__(self) -> str:
        return (
            f"ArtifactEntry(stage={self.stage!r}, "
            f"outputs={sorted(self.outputs)}, seconds={self.seconds:.6f})"
        )


class ArtifactCache:
    """Two-layer (memory + optional disk) cache of plan-node artifacts.

    Parameters
    ----------
    root:
        Optional directory for the disk layer (created on first write).
        ``None`` keeps the cache purely in-memory — the right default
        for throwaway sessions.

    ``hits`` / ``misses`` / ``stores`` count lookups for observability;
    tests and benchmarks assert on them the way they assert on session
    stage counters.
    """

    suffix = ".art"

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else None
        self._memory: dict = {}  # node key -> ArtifactEntry
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Optional[Path]:
        """Disk path of one node key (None for memory-only caches)."""
        if self.root is None:
            return None
        return self.root / f"{key[:40]}{self.suffix}"

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[ArtifactEntry]:
        """Return the entry for ``key``, or ``None`` on a miss.

        Disk hits are promoted into the memory layer so repeated lookups
        within a session stay dict-cheap.
        """
        entry = self._memory.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        entry = self._read(key)
        if entry is not None:
            self._memory[key] = entry
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def put(
        self,
        key: str,
        stage: str,
        outputs: dict,
        seconds: float,
        persist: bool = True,
    ) -> ArtifactEntry:
        """Store one resolved node; write through to disk when allowed.

        ``persist=False`` pins the entry to the memory layer — used for
        artifacts keyed by process-local parameters (e.g. a witness
        decomposer closure without a ``cache_key``).
        """
        entry = ArtifactEntry(stage, outputs, seconds)
        self._memory[key] = entry
        self.stores += 1
        if persist and self.root is not None:
            self._write(key, entry)
        return entry

    def annotate(self, key: str, name: str, value) -> None:
        """Attach a derived output to an existing entry (both layers).

        Rewrites the entry's envelope.  The library no longer calls it:
        the label node emits its wire form as an output, written once.
        Unknown keys are ignored — annotation is an optimization, never
        a correctness requirement.
        """
        entry = self._memory.get(key)
        if entry is None:
            return
        entry.outputs[name] = value
        if self.root is not None and self.path_for(key).exists():
            self._write(key, entry)

    # ------------------------------------------------------------------
    def _write(self, key: str, entry: ArtifactEntry) -> None:
        manifest = {
            "artifact_version": ARTIFACT_VERSION,
            "key": key,
            "stage": entry.stage,
            "outputs": entry.outputs,
            "seconds": entry.seconds,
        }
        try:
            data = seal(manifest)
        except Exception:
            # Unpicklable prover state (exotic custom algebras): the
            # memory layer still serves this session; disk just misses.
            return
        publish(self.path_for(key), data)

    def _read(self, key: str) -> Optional[ArtifactEntry]:
        path = self.path_for(key)
        if path is None:
            return None
        try:
            manifest = unseal(path.read_bytes())
        except (OSError, ValueError):
            return None  # absent, truncated, bit-flipped or forbidden
        if manifest.get("artifact_version") != ARTIFACT_VERSION:
            return None
        if manifest.get("key") != key:
            return None  # hash-prefix collision or swapped file
        outputs = manifest.get("outputs")
        if not isinstance(outputs, dict):
            return None
        return ArtifactEntry(
            manifest.get("stage", "?"), outputs, manifest.get("seconds", 0.0)
        )
