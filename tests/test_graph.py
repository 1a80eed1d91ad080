"""Unit tests for the core Graph data structure."""

import pytest

from repro.graphs import Graph, edge_key
from repro.graphs.generators import cycle_graph, path_graph, star_graph


class TestEdgeKey:
    def test_canonical_order(self):
        assert edge_key(3, 1) == (1, 3)
        assert edge_key(1, 3) == (1, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            edge_key(2, 2)


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert g.n == 0
        assert g.m == 0
        assert g.vertices() == []
        assert g.edges() == []

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex(1)
        g.add_vertex(1)
        assert g.n == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.n == 2
        assert g.m == 1
        assert g.has_edge(2, 1)

    def test_add_edge_idempotent(self):
        g = Graph(edges=[(1, 2), (1, 2), (2, 1)])
        assert g.m == 1

    def test_init_with_vertices_and_edges(self):
        g = Graph(vertices=[5], edges=[(1, 2)])
        assert set(g.vertices()) == {1, 2, 5}

    def test_remove_edge(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.has_edge(2, 3)
        assert 1 in g  # vertex stays

    def test_remove_missing_edge_raises(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(KeyError):
            g.remove_edge(1, 3)

    def test_remove_vertex(self):
        g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        g.remove_vertex(2)
        assert g.n == 2
        assert g.m == 1
        assert g.has_edge(1, 3)


class TestLabels:
    def test_vertex_labels(self):
        g = Graph(vertices=[1, 2])
        g.set_vertex_label(1, "a")
        assert g.vertex_label(1) == "a"
        assert g.vertex_label(2) is None
        assert g.vertex_label(2, default="x") == "x"

    def test_vertex_label_missing_vertex(self):
        g = Graph()
        with pytest.raises(KeyError):
            g.set_vertex_label(1, "a")

    def test_edge_labels_symmetric(self):
        g = Graph(edges=[(1, 2)])
        g.set_edge_label(2, 1, "real")
        assert g.edge_label(1, 2) == "real"

    def test_edge_label_missing_edge(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(KeyError):
            g.set_edge_label(1, 3, "x")

    def test_labels_survive_copy(self):
        g = Graph(edges=[(1, 2)])
        g.set_vertex_label(1, "a")
        g.set_edge_label(1, 2, "b")
        h = g.copy()
        assert h.vertex_label(1) == "a"
        assert h.edge_label(1, 2) == "b"

    def test_label_removed_with_edge(self):
        g = Graph(edges=[(1, 2)])
        g.set_edge_label(1, 2, "b")
        g.remove_edge(1, 2)
        g.add_edge(1, 2)
        assert g.edge_label(1, 2) is None


class TestQueries:
    def test_neighbors_is_copy(self):
        g = Graph(edges=[(1, 2)])
        nbrs = g.neighbors(1)
        nbrs.add(99)
        assert 99 not in g.neighbors(1)

    def test_degree(self):
        g = star_graph(4)
        assert g.degree(0) == 4
        assert g.degree(1) == 1
        assert g.max_degree() == 4

    def test_incident_edges(self):
        g = Graph(edges=[(2, 1), (2, 3)])
        assert g.incident_edges(2) == [(1, 2), (2, 3)]

    def test_iteration(self):
        g = Graph(vertices=[3, 1, 2])
        assert sorted(g) == [1, 2, 3]
        assert len(g) == 3


class TestTraversal:
    def test_bfs_order(self):
        g = path_graph(4)
        assert g.bfs_order(0) == [0, 1, 2, 3]

    def test_shortest_path_endpoints(self):
        g = cycle_graph(6)
        p = g.shortest_path(0, 3)
        assert p[0] == 0 and p[-1] == 3
        assert len(p) == 4  # distance 3 in a 6-cycle

    def test_shortest_path_same_vertex(self):
        g = path_graph(3)
        assert g.shortest_path(1, 1) == [1]

    def test_shortest_path_disconnected(self):
        g = Graph(vertices=[1, 2])
        assert g.shortest_path(1, 2) is None

    def test_shortest_path_edges_exist(self):
        g = cycle_graph(8)
        p = g.shortest_path(0, 4)
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)

    def test_distances(self):
        g = path_graph(5)
        assert g.distances_from(0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_components(self):
        g = Graph(edges=[(1, 2), (3, 4)])
        g.add_vertex(5)
        assert g.connected_components() == [[1, 2], [3, 4], [5]]

    def test_is_connected(self):
        assert path_graph(5).is_connected()
        assert not Graph(vertices=[1, 2]).is_connected()
        assert Graph().is_connected()

    def test_spanning_tree(self):
        g = cycle_graph(7)
        t = g.spanning_tree(0)
        assert t.n == 7
        assert t.m == 6
        assert t.is_connected()


class TestStructureTests:
    def test_cycle_detection(self):
        assert cycle_graph(4).has_cycle()
        assert not path_graph(4).has_cycle()
        assert not star_graph(3).has_cycle()

    def test_forest_and_tree(self):
        assert path_graph(4).is_forest()
        assert path_graph(4).is_tree()
        g = Graph(edges=[(1, 2), (3, 4)])
        assert g.is_forest()
        assert not g.is_tree()
        assert not cycle_graph(4).is_forest()

    def test_path_and_cycle_recognizers(self):
        assert path_graph(1).is_path_graph()
        assert path_graph(6).is_path_graph()
        assert not cycle_graph(6).is_path_graph()
        assert not star_graph(3).is_path_graph()
        assert cycle_graph(3).is_cycle_graph()
        assert not path_graph(3).is_cycle_graph()


class TestDerivation:
    def test_induced_subgraph(self):
        g = cycle_graph(5)
        h = g.induced_subgraph([0, 1, 2])
        assert h.edges() == [(0, 1), (1, 2)]

    def test_induced_subgraph_missing_vertex(self):
        g = path_graph(3)
        with pytest.raises(KeyError):
            g.induced_subgraph([0, 99])

    def test_edge_subgraph_keeps_all_vertices(self):
        g = cycle_graph(4)
        h = g.edge_subgraph([(0, 1)])
        assert h.n == 4
        assert h.m == 1

    def test_edge_subgraph_missing_edge(self):
        g = path_graph(3)
        with pytest.raises(KeyError):
            g.edge_subgraph([(0, 2)])

    def test_relabeled(self):
        g = path_graph(3)
        h = g.relabeled({0: 10, 1: 11, 2: 12})
        assert h.edges() == [(10, 11), (11, 12)]

    def test_relabeled_rejects_collision(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.relabeled({0: 1})

    def test_disjoint_union(self):
        g = path_graph(2)
        h = Graph(edges=[(10, 11)])
        u = g.disjoint_union(h)
        assert u.n == 4
        assert u.m == 2

    def test_disjoint_union_overlap_rejected(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            g.disjoint_union(path_graph(3))

    def test_same_graph(self):
        assert path_graph(4).same_graph(path_graph(4))
        assert not path_graph(4).same_graph(cycle_graph(4))

    def test_networkx_roundtrip(self):
        g = cycle_graph(5)
        assert Graph.from_networkx(g.to_networkx()).same_graph(g)


class TestFingerprintCacheInvalidation:
    """Graph.fingerprint is served from the CSR snapshot + a memo; every
    mutation class must invalidate it (regression for the cached path)."""

    def test_repeated_calls_are_memoized(self):
        g = path_graph(6)
        first = g.fingerprint()
        # Same snapshot, same label version: the memo must serve this.
        assert g.fingerprint() == first
        assert g._fp_cache[True][2] == first

    def test_structural_mutation_invalidates(self):
        g = path_graph(6)
        baseline = g.fingerprint()
        g.add_edge(0, 5)
        assert g.fingerprint() != baseline
        g.remove_edge(0, 5)
        assert g.fingerprint() == baseline  # content equality restored
        g.add_vertex(99)
        assert g.fingerprint() != baseline
        g.remove_vertex(99)
        assert g.fingerprint() == baseline

    def test_label_mutation_invalidates(self):
        g = path_graph(6)
        baseline = g.fingerprint()
        structural = g.fingerprint(include_labels=False)
        g.set_vertex_label(0, "x")
        assert g.fingerprint() != baseline
        assert g.fingerprint(include_labels=False) == structural
        g.set_edge_label(0, 1, "real")
        assert g.fingerprint() != baseline
        # Removing a labeled edge drops its label: fingerprint changes.
        g.remove_edge(0, 1)
        assert g.fingerprint(include_labels=False) != structural

    def test_copy_shares_snapshot_but_not_staleness(self):
        g = path_graph(5)
        baseline = g.fingerprint()
        h = g.copy()
        assert h.fingerprint() == baseline
        h.add_edge(0, 4)
        assert h.fingerprint() != baseline
        assert g.fingerprint() == baseline  # the original is untouched

    def test_pickle_roundtrip_recomputes(self):
        import pickle

        g = path_graph(5)
        g.set_vertex_label(2, "mid")
        baseline = g.fingerprint()
        clone = pickle.loads(pickle.dumps(g))
        assert clone.fingerprint() == baseline

    def test_fingerprint_values_are_pinned(self):
        # Store entries, artifact keys and compiled-round keys are all
        # addressed by these digests, so their bytes must never drift.
        g = path_graph(6)
        g.set_vertex_label(2, "mid")
        g.set_vertex_label(0, ("x", 1))
        g.set_edge_label(1, 2, "tag")
        g.set_edge_label(4, 5, "real")
        g.add_vertex(9)
        assert g.fingerprint() == "cbb616fbc91ca36849ccd6e194511568"
        assert g.fingerprint("edges") == "80c19dd99f70468d3e61ed4662ff4215"
        assert g.fingerprint(False) == "168786f593fb6f18c5da37685b3d85bf"
        named = Graph(edges=[("a", "b"), ("b", "c")])
        assert named.fingerprint() == "7511e4eb0a348a44b0473ca9d8e728b2"
        assert Graph().fingerprint() == "3918c58061547dffc0618e6bf1d46ea2"

    def test_pickle_rebuilds_derived_state(self):
        # A pickle must not carry a CSR snapshot or a fingerprint memo
        # that disagrees with the adjacency: the loaded graph indexes
        # and fingerprints like one built fresh from the same edges.
        import pickle

        g = path_graph(5)
        g.set_edge_label(1, 2, "tag")
        fresh = g.copy()
        fresh._csr = None
        other = star_graph(4)
        g._csr = other.csr
        g._fp_cache = {True: (g._csr, g.labels_version, other.fingerprint())}
        clone = pickle.loads(pickle.dumps(g))
        assert clone.csr.vertices == fresh.csr.vertices
        assert clone.csr.index == fresh.csr.index
        assert clone.csr.edges == fresh.csr.edges
        assert clone.fingerprint() == fresh.fingerprint()
        assert clone.m == fresh.m == 4
        assert clone.edge_label(1, 2) == "tag"

    def test_unpickles_default_slot_state(self):
        # Pickles written before Graph had __getstate__ carry the default
        # (None, {slot: value}) state, derived slots included.
        import pickle

        g = cycle_graph(5)
        g.set_vertex_label(0, "x")
        baseline = g.fingerprint()
        with pytest.MonkeyPatch.context() as patch:
            patch.delattr(Graph, "__getstate__")
            blob = pickle.dumps(g, protocol=4)
        assert b"_fp_cache" in blob
        clone = pickle.loads(blob)
        assert clone._csr is None and clone._fp_cache == {}
        assert clone.same_graph(g)
        assert clone.m == g.m
        assert clone.fingerprint() == baseline
