"""Numpy round-array precompilation beside :class:`ViewFactory`.

``ViewFactory`` (``repro.pls.model``) slices python lists per vertex to
build ``LocalView`` objects.  The vectorized executors need the same
round snapshot as flat ``int64`` arrays instead: CSR ``indptr`` /
``neighbors`` / ``incident``, plus the per-vertex identifier column.
:class:`RoundArrays` captures exactly that — it is deliberately *dumb*
(no certificate knowledge, no imports from ``repro.core``; the
dependency arrow runs ``repro.core -> repro.pls`` and must not reverse).

numpy is an optional dependency of the repo; building a
:class:`RoundArrays` raises ``RuntimeError`` when it is absent, and
``repro.api.vectorized`` checks :data:`HAVE_NUMPY` first and falls back
to the reference verifier.
"""

from __future__ import annotations

from typing import Sequence

try:  # pragma: no cover - exercised indirectly via HAVE_NUMPY
    import numpy as _np
except Exception:  # pragma: no cover - numpy is present in CI
    _np = None

HAVE_NUMPY = _np is not None

#: Sentinel for "no identifier" slots in the kernel columns.  Chosen far
#: outside the validated identifier range (see ``_check_int``) so it can
#: never collide with a real vertex id.
NONE_ID = -(1 << 61)

#: Identifiers and record ids must fit comfortably inside int64 with
#: headroom for the packed (hi << 31 | lo) segment keys the kernels use.
_ID_LIMIT = 1 << 60


class NotVectorizable(ValueError):
    """Raised when a round cannot be mirrored into flat int64 arrays."""


def _require_numpy():
    if _np is None:  # pragma: no cover - numpy is present in CI
        raise RuntimeError(
            "numpy is required for repro.pls.arrays; install it or use "
            "the serial executor"
        )
    return _np


def _check_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise NotVectorizable("%s is not a plain int: %r" % (what, value))
    if not (-_ID_LIMIT < value < _ID_LIMIT):
        raise NotVectorizable("%s out of int64 kernel range: %r" % (what, value))
    return value


class RoundArrays:
    """Flat int64 mirrors of one verification round's topology.

    Fields
    ------
    n, m:
        vertex / edge counts.
    indptr, neighbors, incident:
        the CSR arrays from :class:`repro.graphs.csr.CSRAdjacency`,
        converted to ``int64`` numpy arrays.  ``neighbors`` holds dense
        vertex indices, ``incident`` holds edge indices aligned with the
        canonical sorted edge tuple.
    identifiers:
        per-dense-vertex integer identifier (the ``ids`` assignment).
    """

    __slots__ = ("n", "m", "indptr", "neighbors", "incident", "identifiers")

    def __init__(self, n, m, indptr, neighbors, incident, identifiers):
        self.n = int(n)
        self.m = int(m)
        self.indptr = indptr
        self.neighbors = neighbors
        self.incident = incident
        self.identifiers = identifiers

    @classmethod
    def from_csr(cls, csr, identifiers: Sequence[int]) -> "RoundArrays":
        """Build from a ``CSRAdjacency`` plus an identifier column.

        ``identifiers[i]`` is the integer id of dense vertex ``i`` (the
        order of ``csr.vertices``).  Raises :class:`NotVectorizable` if
        any identifier is not a plain bounded int or collides with the
        :data:`NONE_ID` sentinel.
        """
        np = _require_numpy()
        ids = [_check_int(x, "vertex identifier") for x in identifiers]
        if any(x == NONE_ID for x in ids):
            raise NotVectorizable("identifier collides with NONE_ID sentinel")
        n = len(csr.vertices)
        if len(ids) != n:
            raise NotVectorizable(
                "identifier column length %d != vertex count %d" % (len(ids), n)
            )
        return cls(
            n=n,
            m=len(csr.edges),
            indptr=np.asarray(csr.indptr, dtype=np.int64),
            neighbors=np.asarray(csr.neighbors, dtype=np.int64),
            incident=np.asarray(csr.incident, dtype=np.int64),
            identifiers=np.asarray(ids, dtype=np.int64),
        )
