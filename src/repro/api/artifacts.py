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

Envelope format (see ``docs/FORMAT.md`` § "Artifact envelopes"): a magic
prefix, a 16-byte blake2b digest of the payload, then the payload — a
pickled manifest ``{artifact_version, key, stage, outputs, seconds}``.
The payload is arbitrary prover state (graphs, decompositions,
hierarchies, evaluations), so the container uses pickle exactly like the
certificate store envelope.  The digest is checked before unpickling
(a bit-flipped pickle can still load, with changed values) and the
recorded ``key`` after; a mismatched, truncated, or unreadable entry is
treated as a **miss** — a corrupt cache must never break certification,
only slow it down.
"""

from __future__ import annotations

import hashlib
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
        self.root.mkdir(parents=True, exist_ok=True)
        manifest = {
            "artifact_version": ARTIFACT_VERSION,
            "key": key,
            "stage": entry.stage,
            "outputs": entry.outputs,
            "seconds": entry.seconds,
        }
        try:
            body = pickle.dumps(manifest, protocol=4)
        except Exception:
            # Unpicklable prover state (exotic custom algebras): the
            # memory layer still serves this session; disk just misses.
            return
        path = self.path_for(key)
        # Unique temp name (as in the certificate store): two processes
        # resolving the same node concurrently must never interleave
        # bytes in a shared temp file — last publish wins wholesale.
        tmp = path.parent / (
            f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER):x}.tmp"
        )
        digest = hashlib.blake2b(body, digest_size=ARTIFACT_DIGEST_SIZE)
        try:
            tmp.write_bytes(ARTIFACT_MAGIC + digest.digest() + body)
            os.replace(tmp, path)  # atomic publish
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def _read(self, key: str) -> Optional[ArtifactEntry]:
        path = self.path_for(key)
        if path is None:
            return None
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        if not payload.startswith(ARTIFACT_MAGIC):
            return None
        start = len(ARTIFACT_MAGIC) + ARTIFACT_DIGEST_SIZE
        body = payload[start:]
        digest = hashlib.blake2b(body, digest_size=ARTIFACT_DIGEST_SIZE)
        if payload[len(ARTIFACT_MAGIC):start] != digest.digest():
            return None  # truncated / bit-flipped: recompute
        try:
            manifest = pickle.loads(body)
        except Exception:
            return None  # written by an incompatible build
        if not isinstance(manifest, dict):
            return None
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
