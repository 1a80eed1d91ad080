"""Tests for interval representations, path/tree decompositions, exact DP."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.graphs.generators import (
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    grid_graph,
    ladder_graph,
    path_graph,
    random_pathwidth_graph,
    random_tree,
    spider_graph,
    star_graph,
)
from repro.pathwidth import (
    IntervalRepresentation,
    PathDecomposition,
    TreeDecomposition,
    balanced_binary_decomposition,
    exact_pathwidth,
    heuristic_path_decomposition,
    optimal_vertex_ordering,
)
from repro.pathwidth.exact import (
    exact_path_decomposition,
    subset_dp_pathwidth,
)
from repro.pathwidth.heuristics import bfs_ordering, greedy_boundary_ordering


class TestIntervalRepresentation:
    def test_validates_edge_overlap(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(ValueError):
            IntervalRepresentation(g, {0: (0, 0), 1: (2, 3)})

    def test_validates_nonempty(self):
        g = Graph(vertices=[0])
        with pytest.raises(ValueError):
            IntervalRepresentation(g, {0: (3, 1)})

    def test_validates_coverage(self):
        g = Graph(vertices=[0, 1])
        with pytest.raises(ValueError):
            IntervalRepresentation(g, {0: (0, 1)})

    def test_width_of_path_intervals(self):
        g = path_graph(3)
        rep = IntervalRepresentation(g, {0: (0, 1), 1: (1, 2), 2: (2, 3)})
        assert rep.width() == 2

    def test_strictly_before(self):
        g = Graph(vertices=[0, 1])
        rep = IntervalRepresentation(g, {0: (0, 1), 1: (3, 4)})
        assert rep.strictly_before(0, 1)
        assert not rep.strictly_before(1, 0)

    def test_union_interval(self):
        g = path_graph(3)
        rep = IntervalRepresentation(g, {0: (0, 1), 1: (1, 2), 2: (2, 5)})
        assert rep.union_interval([0, 1, 2]) == (0, 5)

    def test_argmin_argmax(self):
        g = path_graph(3)
        rep = IntervalRepresentation(g, {0: (0, 1), 1: (1, 4), 2: (3, 4)})
        assert rep.argmin_left() == 0
        assert rep.argmax_right() == 1  # tie on R=4 broken by vertex order

    def test_from_ordering_path(self):
        g = path_graph(4)
        rep = IntervalRepresentation.from_ordering(g, [0, 1, 2, 3])
        assert rep.width() == 2  # pathwidth 1 -> width 2

    def test_from_ordering_requires_permutation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            IntervalRepresentation.from_ordering(g, [0, 1])

    def test_restriction(self):
        g = path_graph(4)
        rep = IntervalRepresentation.from_ordering(g, [0, 1, 2, 3])
        sub = rep.restricted_to([0, 1])
        assert set(sub.intervals) == {0, 1}


class TestPathDecomposition:
    def test_width(self):
        g = path_graph(3)
        d = PathDecomposition(g, [[0, 1], [1, 2]])
        assert d.width() == 1

    def test_missing_vertex_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            PathDecomposition(g, [[0, 1]])

    def test_uncovered_edge_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            PathDecomposition(g, [[0, 1], [2]])

    def test_noncontiguous_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            PathDecomposition(g, [[0, 1], [1, 2], [0, 2]])

    def test_trivial(self):
        g = complete_graph(4)
        d = PathDecomposition.trivial(g)
        assert d.width() == 3

    def test_interval_roundtrip_preserves_width(self):
        rng = random.Random(5)
        for k in (1, 2, 3):
            g, bags = random_pathwidth_graph(25, k, rng)
            d = PathDecomposition(g, bags)
            rep = d.to_interval_representation()
            assert rep.width() == d.width() + 1 or rep.width() <= d.width() + 1
            d2 = PathDecomposition.from_interval_representation(rep)
            assert d2.width() <= d.width()


class TestExactPathwidth:
    KNOWN = [
        (path_graph(2), 1),
        (path_graph(8), 1),
        (cycle_graph(5), 2),
        (star_graph(4), 1),
        (caterpillar_graph(4, 2), 1),
        (spider_graph(3, 2), 2),
        (complete_graph(4), 3),
        (complete_graph(6), 5),
        (ladder_graph(5), 2),
        (grid_graph(3, 3), 3),
    ]

    @pytest.mark.parametrize("graph,expected", KNOWN)
    def test_known_values(self, graph, expected):
        assert exact_pathwidth(graph) == expected

    def test_single_vertex(self):
        assert exact_pathwidth(Graph(vertices=[0])) == 0

    def test_ordering_achieves_value(self):
        g = cycle_graph(7)
        ordering = optimal_vertex_ordering(g)
        rep = IntervalRepresentation.from_ordering(g, ordering)
        assert rep.width() - 1 == exact_pathwidth(g)

    def test_exact_decomposition_is_optimal(self):
        for g in (cycle_graph(6), ladder_graph(4), spider_graph(3, 2)):
            d = exact_path_decomposition(g)
            assert d.width() == exact_pathwidth(g)

    def test_components(self):
        g = path_graph(4).disjoint_union(cycle_graph(5).relabeled({i: i + 10 for i in range(5)}))
        assert exact_pathwidth(g) == 2

    def test_dp_size_limit(self):
        with pytest.raises(ValueError):
            subset_dp_pathwidth(path_graph(30))

    def test_default_engine_passes_old_dp_limit(self):
        # The branch-and-bound default has no size cap.
        assert exact_pathwidth(path_graph(30)) == 1

    def test_trees_have_low_pathwidth(self):
        rng = random.Random(9)
        for _ in range(5):
            t = random_tree(12, rng)
            # Trees on n vertices have pathwidth O(log n); for n=12, <= 3.
            assert exact_pathwidth(t) <= 3

    @given(st.integers(min_value=3, max_value=9))
    @settings(max_examples=7, deadline=None)
    def test_cycles_always_two(self, n):
        assert exact_pathwidth(cycle_graph(n)) == 2


class TestHeuristics:
    def test_bfs_ordering_is_permutation(self):
        g = grid_graph(3, 3)
        order = bfs_ordering(g)
        assert sorted(order) == g.vertices()

    def test_greedy_ordering_is_permutation(self):
        g = grid_graph(3, 3)
        order = greedy_boundary_ordering(g)
        assert sorted(order) == g.vertices()

    def test_heuristic_valid_decomposition(self):
        rng = random.Random(21)
        g, _bags = random_pathwidth_graph(30, 2, rng)
        d = heuristic_path_decomposition(g)
        d.validate()

    def test_heuristic_optimal_on_paths(self):
        d = heuristic_path_decomposition(path_graph(20))
        assert d.width() == 1

    def test_heuristic_near_optimal_on_cycles(self):
        d = heuristic_path_decomposition(cycle_graph(20))
        assert d.width() <= 3

    def test_heuristic_vs_exact_small(self):
        count = 0
        for g in enumerate_graphs(5):
            count += 1
            if count > 60:
                break
            d = heuristic_path_decomposition(g)
            assert d.width() >= exact_pathwidth(g)


class TestTreeDecomposition:
    def test_from_path_decomposition(self):
        g = path_graph(5)
        d = PathDecomposition(g, [[0, 1], [1, 2], [2, 3], [3, 4]])
        td = TreeDecomposition.from_path_decomposition(d)
        assert td.width() == 1
        assert td.depth() == 4

    def test_invalid_occurrence_connectivity(self):
        g = path_graph(3)
        bags = {0: [0, 1], 1: [1, 2], 2: [0, 1]}
        with pytest.raises(ValueError):
            TreeDecomposition(g, bags, [(0, 1), (1, 2)], 0)

    def test_root_path(self):
        g = path_graph(5)
        d = PathDecomposition(g, [[0, 1], [1, 2], [2, 3], [3, 4]])
        td = TreeDecomposition.from_path_decomposition(d)
        assert td.root_path(3) == [0, 1, 2, 3]


class TestBalancedDecomposition:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 100])
    def test_on_paths(self, n):
        g = path_graph(n)
        d = PathDecomposition(g, [[i, i + 1] for i in range(n - 1)])
        bd = balanced_binary_decomposition(d)
        bd.validate()
        assert bd.width() <= 3 * d.width() + 2
        # depth O(log s): allow a generous constant.
        import math

        assert bd.depth() <= 2 * math.ceil(math.log2(max(len(d.bags), 2))) + 2

    def test_on_random_pathwidth_graphs(self):
        rng = random.Random(31)
        for k in (1, 2, 3):
            g, bags = random_pathwidth_graph(50, k, rng)
            d = PathDecomposition(g, bags)
            bd = balanced_binary_decomposition(d)
            bd.validate()
            assert bd.width() <= 3 * d.width() + 2
