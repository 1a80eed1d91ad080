"""CSR core ≡ legacy dict-backed Graph semantics, and ViewFactory ≡
per-vertex view builders.

The array-backed refactor promises *identical observable behavior*: the
CSR snapshot is a read cache, not a semantic change.  These property
tests pin that — neighbors, degrees, edge sets, incident edges,
fingerprints, and locally-built views must agree with the reference
(dict-scan) constructions on arbitrary small graphs, through arbitrary
interleavings of mutation and reading.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import CSRAdjacency, Graph, edge_key
from repro.graphs.generators import random_connected_gnp
from repro.pls.model import (
    Configuration,
    ViewFactory,
    build_edge_view,
    build_vertex_view,
    view_factory_for,
)
from repro.pls.scheme import Labeling
from repro.pls.bits import SizeContext


@st.composite
def small_graphs(draw):
    """An arbitrary simple graph on 1..10 vertices, edges in random order."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = [pair for pair in pairs if draw(st.booleans())]
    order = draw(st.permutations(chosen))
    g = Graph(vertices=range(n))
    for u, v in order:
        g.add_edge(u, v)
    return g


@st.composite
def adjacencies(draw):
    """A symmetric adjacency dict on 0..12 vertices with arbitrary int
    names, isolated vertices and the empty graph included."""
    names = draw(st.lists(st.integers(-40, 40), max_size=12, unique=True))
    adjacency = {v: set() for v in names}
    for u, v in itertools.combinations(names, 2):
        if draw(st.booleans()):
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


def _reference_edges(g: Graph) -> list:
    """The legacy edges() computation: scan adjacency sets, sort keys."""
    seen = []
    for u in g:
        for v in g.neighbors(u):
            if u <= v:
                seen.append((u, v))
    return sorted(seen)


class TestCSRAgreesWithDictBacking:
    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_queries_match_reference(self, g):
        csr = g.csr
        assert list(csr.vertices) == sorted(set(g))
        assert g.vertices() == sorted(set(g))
        assert g.edges() == _reference_edges(g)
        assert g.m == len(_reference_edges(g))
        for v in g:
            assert g.neighbors_sorted(v) == tuple(sorted(g.neighbors(v)))
            assert g.degree(v) == len(g.neighbors(v))
            assert g.incident_edges(v) == sorted(
                edge_key(v, u) for u in g.neighbors(v)
            )

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_edge_index_is_stable_and_consistent(self, g):
        edges = g.edges()
        for e, (u, v) in enumerate(edges):
            assert g.edge_index(u, v) == e
            assert g.edge_index(v, u) == e
        # Stable across repeated reads (same snapshot).
        assert g.edges() == edges

    @given(small_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_mutation_invalidates_snapshot(self, g, rng):
        before = g.edges()
        assert g.csr is g.csr  # cached while unmutated
        non_edges = [
            (u, v)
            for u in g.vertices()
            for v in g.vertices()
            if u < v and not g.has_edge(u, v)
        ]
        if non_edges:
            u, v = rng.choice(non_edges)
            g.add_edge(u, v)
            assert g.edges() == sorted(before + [(u, v)])
            g.remove_edge(u, v)
        assert g.edges() == before
        assert g.m == len(before)

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_matches_legacy_construction(self, g):
        # Rebuild through a different insertion order: fingerprints are
        # content hashes, not history hashes.
        rebuilt = Graph(vertices=reversed(g.vertices()))
        for u, v in reversed(g.edges()):
            rebuilt.add_edge(u, v)
        assert rebuilt.fingerprint() == g.fingerprint()
        assert rebuilt.fingerprint(include_labels=False) == g.fingerprint(
            include_labels=False
        )

    def test_copy_shares_snapshot_until_mutation(self):
        g = random_connected_gnp(12, 0.3, random.Random(5))
        snapshot = g.csr
        clone = g.copy()
        assert clone._csr is snapshot
        clone.add_edge(0, 11) if not clone.has_edge(0, 11) else clone.remove_edge(0, 11)
        assert g.csr is snapshot  # original untouched
        assert clone._csr is not snapshot or clone._csr is None

    @given(adjacencies())
    @settings(max_examples=150, deadline=None)
    def test_build_matches_the_definition(self, adjacency):
        """Sorted vertices, sorted neighbour rows, the canonical edge keys
        in sorted order, and ``incident[p]`` naming the edge to
        ``neighbors[p]``."""
        csr = CSRAdjacency(adjacency)
        verts = sorted(adjacency)
        index = {v: i for i, v in enumerate(verts)}
        rows = [sorted(index[u] for u in adjacency[v]) for v in verts]
        assert csr.vertices == tuple(verts) and csr.index == index
        assert csr.neighbors == [j for row in rows for j in row]
        assert csr.degrees == [len(row) for row in rows]
        assert csr.indptr == [0] + list(itertools.accumulate(csr.degrees))
        edges = sorted({edge_key(u, v) for u in verts for v in adjacency[u]})
        assert csr.edges == tuple(edges)
        assert len(csr.incident) == len(csr.neighbors)
        for i, v in enumerate(verts):
            for p in range(csr.indptr[i], csr.indptr[i + 1]):
                u = verts[csr.neighbors[p]]
                assert csr.edges[csr.incident[p]] == edge_key(v, u)
        for e, (u, v) in enumerate(edges):
            assert csr.edge_index_of(u, v) == csr.edge_index_of(v, u) == e

    def test_raw_csr_shape_invariants(self):
        g = Graph(edges=[(0, 2), (0, 1), (1, 2), (2, 3)])
        csr = g.csr
        assert isinstance(csr, CSRAdjacency)
        assert csr.n == 4 and csr.m == 4
        assert csr.indptr[0] == 0 and csr.indptr[-1] == 2 * csr.m
        for i in range(csr.n):
            row = csr.row(i)
            assert row == sorted(row)
            assert len(row) == csr.degrees[i]
            # incident edge indices point back at this row's edges
            for p, e in zip(row, csr.incident_row(i)):
                assert csr.edges[e] == edge_key(
                    csr.vertices[i], csr.vertices[p]
                )


@st.composite
def labeled_configurations(draw):
    """A connected configuration with random input labels + certificates."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    g = random_connected_gnp(draw(st.integers(2, 9)), 0.4, rng)
    for v in g.vertices():
        if rng.random() < 0.5:
            g.set_vertex_label(v, rng.randrange(3))
    for u, v in g.edges():
        if rng.random() < 0.5:
            g.set_edge_label(u, v, rng.randrange(3))
    config = Configuration.with_random_ids(g, rng)
    vertex_mapping = {
        v: rng.randrange(100) for v in g.vertices() if rng.random() < 0.8
    }
    edge_mapping = {
        key: rng.randrange(100) for key in g.edges() if rng.random() < 0.8
    }
    return config, vertex_mapping, edge_mapping


class TestViewFactoryMatchesReferenceBuilders:
    @given(labeled_configurations())
    @settings(max_examples=50, deadline=None)
    def test_vertex_views_identical(self, case):
        config, vertex_mapping, _ = case
        factory = ViewFactory(config, vertex_mapping, "vertices")
        for vertex in config.graph.vertices():
            assert factory.view(vertex) == build_vertex_view(
                config, vertex, vertex_mapping
            )

    @given(labeled_configurations())
    @settings(max_examples=50, deadline=None)
    def test_edge_views_identical(self, case):
        config, _, edge_mapping = case
        factory = ViewFactory(config, edge_mapping, "edges")
        for vertex in config.graph.vertices():
            assert factory.view(vertex) == build_edge_view(
                config, vertex, edge_mapping
            )

    def test_view_factory_for_accepts_labelings_and_mappings(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        config = Configuration.with_random_ids(g, random.Random(1))
        labeling = Labeling("edges", {(0, 1): 7}, SizeContext(3))
        factory = view_factory_for(config, labeling)
        assert factory.location == "edges"
        assert factory.view(1).ports[0].certificate == 7
        by_mapping = view_factory_for(config, {0: 1}, location="vertices")
        assert by_mapping.location == "vertices"
        try:
            view_factory_for(config, {0: 1})
        except ValueError as exc:
            assert "location" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("plain mapping without location must fail")
