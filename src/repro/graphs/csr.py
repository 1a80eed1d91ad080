"""Immutable CSR (compressed sparse row) adjacency snapshots.

:class:`repro.graphs.Graph` keeps a mutable dict-of-sets adjacency for
construction, but every read-heavy consumer — the verification round's
view building, degeneracy orderings, decomposition heuristics, minor
searches — wants the same three things over and over: neighbors in
sorted order, stable edge indices, and cached degrees.  A
:class:`CSRAdjacency` is a one-shot, immutable snapshot providing
exactly that:

* ``vertices``: the vertex names in sorted order; the *dense index* of a
  vertex is its position here, so index order equals name order and a
  sorted index row is a sorted name row for free;
* ``indptr``/``neighbors``: the classic CSR pair — the neighbors of the
  vertex with dense index ``i`` are ``neighbors[indptr[i]:indptr[i+1]]``
  (dense indices, ascending);
* ``incident``: parallel to ``neighbors``; ``incident[p]`` is the *edge
  index* of the edge to ``neighbors[p]``.  Edge index ``e`` names
  ``edges[e]``, the canonical edge keys in sorted order — stable for the
  lifetime of the snapshot, which is what lets a verification round
  resolve edge input labels and edge certificates by integer index
  instead of ``edge_key`` dictionary lookups;
* ``degrees``: ``degrees[i] == indptr[i+1] - indptr[i]``, precomputed.

Snapshots are built by :meth:`Graph.csr` on first use and invalidated by
structural mutation; label changes do not touch them (labels live on the
graph).  Everything here is plain CPython lists/tuples — per-element
indexed access is the workload, and the package stays dependency-free.
"""

from __future__ import annotations

from itertools import accumulate, chain


def nul_terminated(texts) -> bytes:
    """UTF-8 of each string followed by a NUL byte, concatenated.

    One ``update`` with this feeds a hash the same bytes as an
    ``update(text.encode())`` plus ``update(b"\\x00")`` per string, at a
    fraction of the calls.
    """
    return "".join([text + "\x00" for text in texts]).encode()


class CSRAdjacency:
    """One immutable CSR snapshot of a graph's structure.

    Do not mutate the arrays; :class:`~repro.graphs.Graph` hands the same
    snapshot to every reader (and shares it with copies) precisely
    because it cannot change.
    """

    __slots__ = (
        "vertices",
        "index",
        "indptr",
        "neighbors",
        "incident",
        "edges",
        "degrees",
        "_edge_index",
        "_name_rows",
        "_fingerprint_base",
    )

    def __init__(self, adjacency: dict):
        verts = sorted(adjacency)
        index = {v: i for i, v in enumerate(verts)}
        position = index.__getitem__
        rows = [sorted(map(position, adjacency[v])) for v in verts]
        degrees = [len(row) for row in rows]
        indptr = [0, *accumulate(degrees)]
        neighbors = list(chain.from_iterable(rows))
        # Edge numbering: scanning rows in index order and keeping only
        # j > i yields the canonical keys already sorted (index order is
        # name order), so edge e here is edges()[e] of the legacy API.
        # The same scan reaches each row's lower neighbours in ascending
        # order, which is the order of their slots: ``cursor[j]`` is the
        # next slot of row j to fill, and once the scan reaches row i it
        # has filled every lower neighbour's and points at the first
        # j > i.
        edges = []
        edge_index: dict = {}
        incident = [0] * len(neighbors)
        cursor = indptr[:-1]
        for i in range(len(verts)):
            name = verts[i]
            for p in range(cursor[i], indptr[i + 1]):
                j = neighbors[p]
                e = len(edges)
                edge_index[(i, j)] = e
                edges.append((name, verts[j]))
                incident[p] = e
                incident[cursor[j]] = e
                cursor[j] += 1
        self.vertices = tuple(verts)
        self.index = index
        self.indptr = indptr
        self.neighbors = neighbors
        self.incident = incident
        self.edges = tuple(edges)
        self.degrees = degrees
        self._edge_index = edge_index
        self._name_rows: dict = {}
        self._fingerprint_base = None

    # ------------------------------------------------------------------
    def __getstate__(self):
        # Hash objects cannot be pickled; the base digest is a pure
        # cache, rebuilt on demand after transport.  Name-row tuples are
        # likewise derived — dropping them keeps payloads lean.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_fingerprint_base", "_name_rows")
        }

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self._name_rows = {}
        self._fingerprint_base = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def row(self, i: int) -> list:
        """Return the dense-index neighbor row of vertex index ``i``."""
        return self.neighbors[self.indptr[i] : self.indptr[i + 1]]

    def incident_row(self, i: int) -> list:
        """Return the edge indices incident to vertex index ``i``."""
        return self.incident[self.indptr[i] : self.indptr[i + 1]]

    def name_row(self, vertex) -> tuple:
        """Return the neighbors of ``vertex`` as names, sorted (cached)."""
        i = self.index[vertex]
        cached = self._name_rows.get(i)
        if cached is None:
            verts = self.vertices
            cached = tuple(verts[j] for j in self.row(i))
            self._name_rows[i] = cached
        return cached

    def edge_index_of(self, u, v) -> int:
        """Return the stable edge index of ``{u, v}`` (KeyError if absent)."""
        i, j = self.index[u], self.index[v]
        return self._edge_index[(i, j) if i < j else (j, i)]

    def fingerprint_base(self):
        """Return the structural half of the content hash, unfinalized.

        The digest covers the sorted vertex names and canonical edge keys
        — exactly the snapshot's own content, so it is computed once per
        snapshot and shared by every graph holding it (``Graph.copy()``
        included).  Callers ``copy()`` the returned hash object before
        finalizing or mixing in label bytes; the byte stream matches the
        historical ``Graph.fingerprint`` prefix, keeping fingerprints
        stable across this optimization.
        """
        if self._fingerprint_base is None:
            import hashlib

            digest = hashlib.blake2b(digest_size=16)
            digest.update(nul_terminated(map(repr, self.vertices)))
            digest.update(b"\x01")
            digest.update(nul_terminated(map(repr, self.edges)))
            self._fingerprint_base = digest
        return self._fingerprint_base

    def __repr__(self) -> str:
        return f"CSRAdjacency(n={self.n}, m={self.m})"
