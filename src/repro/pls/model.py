"""Configurations and local views — the PLS communication model.

Section 1.1: a configuration is a connected graph ``G`` with a state
assignment; each vertex's state contains a distinct O(log n)-bit
identifier plus the input labels of the vertex and its incident edges.
During verification a vertex sees its own state, its own certificate, and
the certificates arriving over its incident edges — nothing else.

Modeling note (documented in DESIGN.md): certificates are delivered
*per port*.  A vertex can tell which incident edge carried which
certificate (and knows that edge's input label), but it cannot see the
neighbor's identifier unless the certificate itself mentions it.  This is
the standard port-numbered LOCAL reception and is equivalent to the
paper's multiset formulation for all upper and lower bounds reproduced
here (certificates that need correlation carry endpoint IDs explicitly,
paying for them inside the measured label size).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.graphs import Graph, edge_key
from repro.graphs.generators import assign_random_ids


@dataclass
class Configuration:
    """A network: graph + distinct vertex identifiers (+ input labels).

    Input labels live on the graph itself (``Graph.vertex_label`` /
    ``Graph.edge_label``); identifiers are kept separate because the
    prover cannot choose them.
    """

    graph: Graph
    ids: dict

    def __post_init__(self):
        vertices = set(self.graph.vertices())
        if set(self.ids) != vertices:
            raise ValueError("ids must cover exactly the vertex set")
        if len(set(self.ids.values())) != len(self.ids):
            raise ValueError("identifiers must be distinct")

    @classmethod
    def with_random_ids(
        cls, graph: Graph, rng: Optional[random.Random] = None, universe_bits: int = 32
    ) -> "Configuration":
        """Attach fresh random distinct IDs to ``graph``."""
        return cls(graph, assign_random_ids(graph, rng, universe_bits))

    @property
    def n(self) -> int:
        return self.graph.n

    def vertex_of_id(self, identifier: int):
        """Return the vertex carrying ``identifier`` (test helper)."""
        for v, x in self.ids.items():
            if x == identifier:
                return v
        raise KeyError(f"no vertex has id {identifier}")


@dataclass(frozen=True)
class EdgePort:
    """One incident edge as seen by a vertex: input label + certificate."""

    input_label: object
    certificate: object


@dataclass
class LocalView:
    """Everything one vertex sees during the verification round."""

    identifier: int
    vertex_input_label: object
    degree: int
    n_hint: int  # |V| is common knowledge up to a constant factor (log n bits)
    own_certificate: object = None  # vertex-labeled schemes only
    neighbor_certificates: tuple = ()  # vertex-labeled schemes: multiset
    ports: tuple = ()  # edge-labeled schemes: EdgePort per incident edge


def build_vertex_view(
    config: Configuration, vertex, labeling: dict
) -> LocalView:
    """Local view for a vertex-labeled scheme (one-off reference path).

    ``ports`` pairs each incident edge's input label with the certificate
    of the neighbor behind it (port-numbered reception); the plain
    neighbor-certificate multiset is also provided for schemes that do not
    need the correlation.

    This is the dict-built reference construction; a verification round
    building every view should use a :class:`ViewFactory`, which produces
    identical :class:`LocalView` objects from the graph's CSR core
    (property-tested equality).
    """
    graph = config.graph
    neighbors = sorted(graph.neighbors(vertex))
    ports = tuple(
        EdgePort(
            input_label=graph.edge_label(*edge_key(vertex, u)),
            certificate=labeling.get(u),
        )
        for u in neighbors
    )
    return LocalView(
        identifier=config.ids[vertex],
        vertex_input_label=graph.vertex_label(vertex),
        degree=len(neighbors),
        n_hint=graph.n,
        own_certificate=labeling.get(vertex),
        neighbor_certificates=tuple(labeling.get(u) for u in neighbors),
        ports=ports,
    )


def build_edge_view(config: Configuration, vertex, labeling: dict) -> LocalView:
    """Local view for an edge-labeled scheme (one-off reference path)."""
    graph = config.graph
    ports = []
    for u in sorted(graph.neighbors(vertex)):
        key = edge_key(vertex, u)
        ports.append(
            EdgePort(
                input_label=graph.edge_label(*key),
                certificate=labeling.get(key),
            )
        )
    return LocalView(
        identifier=config.ids[vertex],
        vertex_input_label=graph.vertex_label(vertex),
        degree=len(ports),
        n_hint=graph.n,
        ports=tuple(ports),
    )


class ViewFactory:
    """Builds every :class:`LocalView` of one round from the CSR core.

    The per-vertex builders above re-derive the same facts for every
    vertex: copy + sort the neighbor set, recompute ``edge_key`` and
    chase two dictionaries per incident edge.  A factory does that work
    *once per round* — identifiers, vertex input labels, and certificates
    resolved into arrays parallel to the graph's CSR vertex order, edge
    input labels and edge certificates resolved by stable edge index —
    and then each view is a pair of array slices with zero per-vertex
    dictionary traffic.  The certificate column is read from the
    mapping on first use, not up front.

    The factory deliberately still emits the same :class:`LocalView`
    type: the verifier's locality boundary (one vertex sees its ports and
    nothing else) is enforced by what the view *contains*, not by how it
    was assembled, and the tier-1 property tests pin factory views equal
    to the reference builders'.

    Parameters
    ----------
    config:
        The configuration whose round is being run.
    mapping:
        ``labeling.mapping`` — vertex keys for ``location="vertices"``,
        canonical edge keys for ``location="edges"``.
    location:
        ``"vertices"`` or ``"edges"``.
    """

    __slots__ = (
        "config",
        "location",
        "_csr",
        "_n",
        "_identifiers",
        "_vertex_inputs",
        "_edge_inputs",
        "_mapping",
        "_certs",
    )

    def __init__(self, config: Configuration, mapping: dict, location: str):
        if location not in ("vertices", "edges"):
            raise ValueError("location must be 'vertices' or 'edges'")
        graph = config.graph
        csr = graph.csr
        ids = config.ids
        self.config = config
        self.location = location
        self._csr = csr
        self._n = csr.n
        self._identifiers = [ids[v] for v in csr.vertices]
        vertex_labels = graph.vertex_labels()  # one copy per round
        self._vertex_inputs = [vertex_labels.get(v) for v in csr.vertices]
        edge_labels = graph.edge_labels()
        self._edge_inputs = [edge_labels.get(e) for e in csr.edges]
        self._mapping = mapping
        self._certs = None

    def _certificates(self) -> list:
        """The certificate column, read from the mapping on first use.

        Parallel to ``csr.vertices`` or ``csr.edges`` (by location).  A
        round that neither compiles nor builds a view (an attached
        compiled round whose kernels accept every vertex) never reads
        the mapping, so a lazily decoded labeling stays undecoded.
        """
        if self._certs is None:
            csr = self._csr
            keys = csr.vertices if self.location == "vertices" else csr.edges
            mapping = self._mapping
            self._certs = [mapping.get(key) for key in keys]
        return self._certs

    @property
    def vertices(self) -> tuple:
        """The vertex names in CSR (sorted) order; dense index = position."""
        return self._csr.vertices

    def index_of(self, vertex) -> int:
        """Return the dense index of ``vertex`` (KeyError if absent)."""
        return self._csr.index[vertex]

    @property
    def csr(self):
        """The underlying :class:`CSRAdjacency` snapshot of this round."""
        return self._csr

    @property
    def identifiers(self) -> list:
        """Per-dense-vertex integer identifiers (CSR vertex order)."""
        return self._identifiers

    @property
    def edge_certificates(self):
        """Per-edge certificate column (edge-labeled rounds; else None).

        Aligned with ``csr.edges``: entry ``k`` is the certificate on the
        canonical edge with stable index ``k`` (``None`` if unlabeled).
        """
        return self._certificates() if self.location == "edges" else None

    def round_arrays(self):
        """Numpy :class:`repro.pls.arrays.RoundArrays` mirror of this round.

        Raises :class:`repro.pls.arrays.NotVectorizable` when identifiers
        are not plain bounded ints, ``RuntimeError`` when numpy is absent.
        """
        from repro.pls.arrays import RoundArrays

        return RoundArrays.from_csr(self._csr, self._identifiers)

    def view_at(self, index: int) -> LocalView:
        """Build the :class:`LocalView` of the vertex with dense ``index``."""
        csr = self._csr
        start, stop = csr.indptr[index], csr.indptr[index + 1]
        neighbors = csr.neighbors
        incident = csr.incident
        edge_inputs = self._edge_inputs
        certs = self._certificates()
        if self.location == "vertices":
            ports = tuple(
                EdgePort(
                    input_label=edge_inputs[incident[p]],
                    certificate=certs[neighbors[p]],
                )
                for p in range(start, stop)
            )
            return LocalView(
                identifier=self._identifiers[index],
                vertex_input_label=self._vertex_inputs[index],
                degree=stop - start,
                n_hint=self._n,
                own_certificate=certs[index],
                neighbor_certificates=tuple(
                    certs[neighbors[p]] for p in range(start, stop)
                ),
                ports=ports,
            )
        ports = tuple(
            EdgePort(
                input_label=edge_inputs[incident[p]],
                certificate=certs[incident[p]],
            )
            for p in range(start, stop)
        )
        return LocalView(
            identifier=self._identifiers[index],
            vertex_input_label=self._vertex_inputs[index],
            degree=stop - start,
            n_hint=self._n,
            ports=ports,
        )

    def view(self, vertex) -> LocalView:
        """Build the :class:`LocalView` of ``vertex`` (by name)."""
        return self.view_at(self._csr.index[vertex])


def view_factory_for(
    config: Configuration, labeling, location: Optional[str] = None
) -> ViewFactory:
    """Return a :class:`ViewFactory` for one round.

    ``labeling`` may be a :class:`~repro.pls.scheme.Labeling` (its
    location wins unless overridden) or a plain mapping (``location``
    required).
    """
    mapping = getattr(labeling, "mapping", labeling)
    where = location or getattr(labeling, "location", None)
    if where is None:
        raise ValueError("location required for plain mappings")
    return ViewFactory(config, mapping, where)
