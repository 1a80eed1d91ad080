"""Tests for Sections 4 and 5: lane partitions, completions, lanewidth,
merges, hierarchies — every bound the paper states, asserted."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstructionSequence,
    KLanePartition,
    apply_construction,
    bridge_merge,
    build_completion,
    build_hierarchy,
    build_lane_partition,
    construction_sequence_from_completion,
    evaluate_hierarchy,
    f_bound,
    g_bound,
    greedy_lane_partition,
    h_bound,
    hierarchy_depth,
    parent_merge,
    random_lanewidth_sequence,
    tree_merge,
    validate_hierarchy,
)
from repro.core.hierarchy import to_klane
from repro.core.klane_graph import KLaneGraph
from repro.core.lanewidth import final_designated
from repro.courcelle import algebra_for
from repro.courcelle.boundary import REAL, VIRTUAL
from repro.experiments import lanewidth_workload
from repro.graphs import Graph
from repro.graphs.generators import (
    caterpillar_graph,
    cycle_graph,
    ladder_graph,
    path_graph,
    random_pathwidth_graph,
    spider_graph,
    star_graph,
)
from repro.mso.properties import is_bipartite
from repro.pathwidth import PathDecomposition
from repro.pathwidth.exact import exact_path_decomposition


def _rep_of(graph):
    return exact_path_decomposition(graph).to_interval_representation()


class TestBoundFunctions:
    def test_values_match_paper(self):
        assert [f_bound(k) for k in (1, 2, 3)] == [1, 4, 18]
        assert [g_bound(k) for k in (1, 2, 3)] == [0, 6, 32]
        assert [h_bound(k) for k in (1, 2, 3)] == [0, 9, 49]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            f_bound(0)


class TestGreedyLanePartition:
    def test_width_bound(self):
        rep = _rep_of(cycle_graph(10))
        partition = greedy_lane_partition(rep)
        assert partition.width <= rep.width()

    def test_partition_valid(self):
        rep = _rep_of(ladder_graph(5))
        greedy_lane_partition(rep).validate()

    def test_invalid_partition_rejected(self):
        rep = _rep_of(path_graph(4))
        # Two overlapping intervals in one lane.
        with pytest.raises(ValueError):
            KLanePartition(rep, [[0, 1], [2], [3]])


class TestProposition46:
    FAMILIES = [
        path_graph(20),
        cycle_graph(12),
        caterpillar_graph(6, 2),
        ladder_graph(8),
        spider_graph(3, 3),
        star_graph(8),
    ]

    @pytest.mark.parametrize("graph", FAMILIES, ids=lambda g: f"n{g.n}m{g.m}")
    def test_bounds_on_families(self, graph):
        rep = _rep_of(graph)
        k = rep.width()
        result = build_lane_partition(graph, rep)
        result.partition.validate()
        result.weak_embedding.validate()
        result.head_embedding.validate()
        assert result.partition.width <= f_bound(k)
        assert result.weak_embedding.congestion() <= g_bound(k)
        assert result.full_embedding().congestion() <= h_bound(k)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_bounds_on_random_graphs(self, seed):
        rng = random.Random(seed)
        k = rng.choice([1, 2, 3])
        graph, bags = random_pathwidth_graph(30, k, rng)
        rep = PathDecomposition(graph, bags).to_interval_representation()
        width = rep.width()
        result = build_lane_partition(graph, rep)
        result.partition.validate()
        result.full_embedding().validate()
        assert result.partition.width <= f_bound(width)
        assert result.weak_embedding.congestion() <= g_bound(width)
        assert result.full_embedding().congestion() <= h_bound(width)

    def test_requires_connected(self):
        g = Graph(vertices=[0, 1])
        rep_source = Graph(edges=[(0, 1)])
        from repro.pathwidth.interval import IntervalRepresentation

        rep = IntervalRepresentation(g, {0: (0, 0), 1: (1, 1)})
        with pytest.raises(ValueError):
            build_lane_partition(g, rep)


class TestCompletion:
    def test_real_subgraph_roundtrip(self):
        g = cycle_graph(8)
        rep = _rep_of(g)
        partition = build_lane_partition(g, rep).partition
        completion = build_completion(g, partition)
        assert set(completion.real_subgraph().edges()) == set(g.edges())

    def test_lanes_become_paths(self):
        g = caterpillar_graph(4, 2)
        rep = _rep_of(g)
        partition = build_lane_partition(g, rep).partition
        completion = build_completion(g, partition)
        for lane in partition.lanes:
            for a, b in zip(lane, lane[1:]):
                assert completion.graph.has_edge(a, b)

    def test_heads_form_path(self):
        g = ladder_graph(5)
        rep = _rep_of(g)
        partition = build_lane_partition(g, rep).partition
        completion = build_completion(g, partition)
        heads = partition.heads()
        for a, b in zip(heads, heads[1:]):
            assert completion.graph.has_edge(a, b)

    def test_weak_completion_skips_heads(self):
        g = ladder_graph(4)
        rep = _rep_of(g)
        partition = build_lane_partition(g, rep).partition
        completion = build_completion(g, partition, weak=True)
        assert completion.e2 == []


class TestConstructionSequences:
    def test_apply_simple(self):
        seq = ConstructionSequence(
            width=2,
            initial_vertices=(0, 1),
            initial_edge_tags=(REAL,),
            ops=[("V", 0, 2, REAL), ("E", 0, 1, REAL)],
        )
        g = apply_construction(seq)
        assert g.n == 3
        assert g.has_edge(0, 2) and g.has_edge(2, 1)

    def test_duplicate_edge_rejected(self):
        seq = ConstructionSequence(
            width=2,
            initial_vertices=(0, 1),
            ops=[("E", 0, 1, REAL)],
        )
        with pytest.raises(ValueError):
            apply_construction(seq)

    def test_self_lane_rejected(self):
        seq = ConstructionSequence(
            width=2, initial_vertices=(0, 1), ops=[("E", 1, 1, REAL)]
        )
        with pytest.raises(ValueError):
            apply_construction(seq)

    def test_random_sequences_connected(self):
        rng = random.Random(2)
        for _ in range(15):
            seq = random_lanewidth_sequence(3, rng.randrange(20), rng)
            g = apply_construction(seq)
            assert g.is_connected()
            assert g.n == seq.n

    def test_proposition_52_roundtrip(self):
        """completion -> sequence -> graph reproduces the completion."""
        rng = random.Random(9)
        for k in (1, 2, 3):
            g, bags = random_pathwidth_graph(25, k, rng)
            rep = PathDecomposition(g, bags).to_interval_representation()
            partition = build_lane_partition(g, rep).partition
            completion = build_completion(g, partition)
            seq = construction_sequence_from_completion(completion)
            rebuilt = apply_construction(seq)
            assert set(rebuilt.edges()) == set(completion.graph.edges())
            for u, v in rebuilt.edges():
                assert rebuilt.edge_label(u, v) == completion.graph.edge_label(u, v)


class TestKLaneMerges:
    def _single_vertex(self, name, lane):
        return KLaneGraph(
            Graph(vertices=[name]), frozenset([lane]), {lane: name}, {lane: name}
        )

    def test_bridge_merge(self):
        a = self._single_vertex("a", 0)
        b = self._single_vertex("b", 1)
        merged = bridge_merge(a, b, 0, 1)
        assert merged.graph.has_edge("a", "b")
        assert merged.lanes == frozenset([0, 1])

    def test_bridge_merge_requires_disjoint_lanes(self):
        a = self._single_vertex("a", 0)
        b = self._single_vertex("b", 0)
        with pytest.raises(ValueError):
            bridge_merge(a, b, 0, 0)

    def test_parent_merge(self):
        parent = KLaneGraph(
            Graph(edges=[("p", "q")]), frozenset([0]), {0: "p"}, {0: "q"}
        )
        child = KLaneGraph(
            Graph(edges=[("q", "r")]), frozenset([0]), {0: "q"}, {0: "r"}
        )
        merged = parent_merge(child, parent)
        assert merged.t_out[0] == "r"
        assert merged.t_in[0] == "p"
        assert merged.graph.m == 2

    def test_parent_merge_rejects_lane_superset(self):
        parent = self._single_vertex("p", 0)
        child = KLaneGraph(
            Graph(vertices=["p", "x"]),
            frozenset([0, 1]),
            {0: "p", 1: "x"},
            {0: "p", 1: "x"},
        )
        with pytest.raises(ValueError):
            parent_merge(child, parent)

    def test_tree_merge_matches_sequential(self):
        parent = KLaneGraph(
            Graph(edges=[("p", "q")]), frozenset([0]), {0: "p"}, {0: "q"}
        )
        child = KLaneGraph(
            Graph(edges=[("q", "r")]), frozenset([0]), {0: "q"}, {0: "r"}
        )
        grandchild = KLaneGraph(
            Graph(edges=[("r", "s")]), frozenset([0]), {0: "r"}, {0: "s"}
        )
        merged = tree_merge(
            [parent, child, grandchild], {0: None, 1: 0, 2: 1}, 0
        )
        assert merged.t_out[0] == "s"
        assert merged.graph.n == 4


class TestProposition56:
    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=40, deadline=None)
    def test_random_hierarchies(self, seed):
        rng = random.Random(seed)
        w = rng.choice([2, 3, 4])
        seq = random_lanewidth_sequence(w, rng.randrange(0, 22), rng)
        graph = apply_construction(seq)
        root = build_hierarchy(seq)
        validate_hierarchy(root, graph)
        assert hierarchy_depth(root) <= 2 * w  # Observation 5.5
        klane = to_klane(root)
        assert set(klane.graph.edges()) == set(graph.edges())
        assert klane.t_out == final_designated(seq)

    def test_depth_bound_is_observed(self):
        rng = random.Random(4)
        worst = 0
        for _ in range(30):
            w = 3
            seq = random_lanewidth_sequence(w, 20, rng, edge_probability=0.5)
            root = build_hierarchy(seq)
            worst = max(worst, hierarchy_depth(root))
        assert worst <= 2 * 3

    def test_evaluation_matches_direct_checks(self):
        rng = random.Random(6)
        for _ in range(20):
            w = rng.choice([2, 3])
            seq = random_lanewidth_sequence(w, rng.randrange(0, 20), rng)
            graph = apply_construction(seq)
            root = build_hierarchy(seq)
            cases = {
                "connected": graph.is_connected(),
                "acyclic": graph.is_forest(),
                "bipartite": is_bipartite(graph),
                "even-order": graph.n % 2 == 0,
            }
            for key, want in cases.items():
                evaluation = evaluate_hierarchy(root, algebra_for(key))
                assert evaluation.accepts(root) == want

    def test_evaluation_stack_depth_is_independent_of_member_chains(self):
        """Member chains grow with n (≈200 deep at n=1024); the T-node
        fold must not spend a Python frame per chain level.  Evaluate
        under a recursion limit a few dozen frames above the caller and
        compare with the unconstrained evaluation, class for class."""
        seq, _graph = lanewidth_workload(3, 256, 1)
        root = build_hierarchy(seq)
        algebra = algebra_for("connected")
        expected = evaluate_hierarchy(root, algebra)

        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            constrained = evaluate_hierarchy(root, algebra)
        finally:
            sys.setrecursionlimit(limit)

        assert constrained.node_eval == expected.node_eval
        assert constrained.subtree_eval == expected.subtree_eval
        assert constrained.accepts(root)

    def test_full_chain_from_pathwidth(self):
        rng = random.Random(8)
        for k in (1, 2):
            graph, bags = random_pathwidth_graph(20, k, rng)
            rep = PathDecomposition(graph, bags).to_interval_representation()
            partition = build_lane_partition(graph, rep).partition
            completion = build_completion(graph, partition)
            seq = construction_sequence_from_completion(completion)
            root = build_hierarchy(seq)
            validate_hierarchy(root, completion.graph)
            evaluation = evaluate_hierarchy(root, algebra_for("connected"))
            assert evaluation.accepts(root)  # real subgraph is connected
