"""Tests for interval representations, path/tree decompositions, exact DP.

The heuristic portfolio and the bag conversion are also checked against
test-only references: the beam search that rescores every candidate's
boundary from its whole placed set and copies its ordering, the
one-bag-per-point scan over all intervals, and the (P1) check that
tests every edge against every bag.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import pathwidth_workload
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
from repro.pathwidth.bitsets import boundary_size, iter_bits, neighbor_masks
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


def _reference_greedy_ordering(graph, beam_width=4) -> list:
    """The beam search with per-candidate boundary rescans and copies."""
    if graph.n == 0:
        return []
    vertices, masks = neighbor_masks(graph)
    index_of = {v: i for i, v in enumerate(vertices)}
    full = (1 << graph.n) - 1
    start = min(vertices, key=graph.degree)
    beams = [(0, (start,), 1 << index_of[start])]
    for _ in range(graph.n - 1):
        candidates = []
        for worst, ordering, placed in beams:
            frontier = 0
            for i in iter_bits(placed):
                frontier |= masks[i]
            frontier &= ~placed
            if not frontier:
                frontier = full & ~placed
            for i in iter_bits(frontier):
                after = placed | (1 << i)
                candidates.append(
                    (
                        max(worst, boundary_size(after, masks)),
                        ordering + (vertices[i],),
                        after,
                    )
                )
        candidates.sort(key=lambda item: (item[0], item[1]))
        seen_sets = set()
        beams = []
        for entry in candidates:
            if entry[2] in seen_sets:
                continue
            seen_sets.add(entry[2])
            beams.append(entry)
            if len(beams) >= beam_width:
                break
    return list(beams[0][1])


def _reference_bags(rep) -> list:
    """One bag per point of the span, each a scan over all intervals."""
    if not rep.intervals:
        return []
    lo, hi = rep.span()
    bags = []
    for p in range(lo, hi + 1):
        bag = [v for v, (l, r) in rep.intervals.items() if l <= p <= r]
        if bag:
            bags.append(sorted(set(bag)))
    return bags


def _reference_heuristic_bags(graph) -> list:
    """Both orderings turned into bags; the first of least width wins."""
    best = None
    for ordering in (bfs_ordering(graph), _reference_greedy_ordering(graph)):
        rep = IntervalRepresentation.from_ordering(graph, ordering)
        bags = _reference_bags(rep)
        width = max(len(bag) for bag in bags) - 1
        if best is None or width < best[0]:
            best = (width, bags)
    return best[1]


def _reference_rejection(graph, bags):
    """The validation with a per-bag (P1) scan: its message, or None."""
    bags = [sorted(set(bag)) for bag in bags]
    seen: dict = {}
    for index, bag in enumerate(bags):
        for v in bag:
            if v not in graph:
                return f"bag vertex {v!r} not in graph"
            seen.setdefault(v, []).append(index)
    missing = set(graph.vertices()) - set(seen)
    if missing:
        return f"vertices missing from all bags: {sorted(missing)!r}"
    for v, indices in seen.items():
        if indices[-1] - indices[0] + 1 != len(indices):
            return f"vertex {v!r} occurs in non-contiguous bags {indices}"
    bag_sets = [set(bag) for bag in bags]
    for u, v in graph.edges():
        if not any(u in bag and v in bag for bag in bag_sets):
            return f"edge {u!r}-{v!r} not covered by any bag"
    return None


def _rejection(graph, bags):
    try:
        PathDecomposition(graph, bags)
    except ValueError as error:
        return str(error)
    return None


def _names(draw, rng, n) -> list:
    """Integer names, or strings whose order ("v10" < "v2") is not numeric."""
    names = [f"v{i}" for i in range(n)] if draw(st.booleans()) else list(range(n))
    rng.shuffle(names)
    return names


@st.composite
def _graphs(draw, max_n=60):
    """Random graphs, connected (a random tree plus chords) or not."""
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from((0.0, 0.02, 0.06, 0.15)))
    connected = draw(st.booleans())
    names = _names(draw, rng, n)
    g = Graph(vertices=names)
    for i in range(1, n):
        if connected:
            g.add_edge(names[i], names[rng.randrange(i)])
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(names[i], names[j])
    return g


@st.composite
def _fragmented_graphs(draw, max_n=60):
    """Many components and many isolated vertices: each vertex joins one
    of a few small components (a random tree plus chords) or stays alone,
    so the greedy search meets an empty frontier again and again."""
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    isolated_share = draw(st.sampled_from((0.0, 0.2, 0.5, 0.9)))
    parts = draw(st.integers(1, max(1, n // 2)))
    names = _names(draw, rng, n)
    g = Graph(vertices=names)
    components: list = [[] for _ in range(parts)]
    for v in names:
        if rng.random() >= isolated_share:
            components[rng.randrange(parts)].append(v)
    for members in components:
        for i in range(1, len(members)):
            g.add_edge(members[i], members[rng.randrange(i)])
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if rng.random() < 0.1 and not g.has_edge(members[i], members[j]):
                    g.add_edge(members[i], members[j])
    return g


@st.composite
def _interval_representations(draw):
    """Arbitrary representations: gap points, shared points, any offset."""
    n = draw(st.integers(1, 30))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.integers(0, 40))
    names = _names(draw, rng, n)
    intervals = {}
    for v in names:
        left = rng.randint(-5, span)
        intervals[v] = (left, left + rng.randint(0, 6))
    g = Graph(vertices=names)
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            (lu, ru), (lv, rv) = intervals[u], intervals[v]
            if max(lu, lv) <= min(ru, rv) and rng.random() < 0.5:
                g.add_edge(u, v)
    return IntervalRepresentation(g, intervals)


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(graph=_graphs())
    def test_greedy_ordering_matches(self, graph):
        assert greedy_boundary_ordering(graph) == _reference_greedy_ordering(graph)

    @settings(max_examples=60, deadline=None)
    @given(graph=_graphs())
    def test_heuristic_bags_match(self, graph):
        bags = heuristic_path_decomposition(graph).bags
        assert bags == _reference_heuristic_bags(graph)

    @settings(max_examples=120, deadline=None)
    @given(graph=_fragmented_graphs())
    def test_greedy_ordering_matches_on_fragmented_graphs(self, graph):
        # An empty frontier scores only a bounded number of candidates.
        assert greedy_boundary_ordering(graph) == _reference_greedy_ordering(graph)

    @settings(max_examples=40, deadline=None)
    @given(graph=_fragmented_graphs())
    def test_heuristic_bags_match_on_fragmented_graphs(self, graph):
        bags = heuristic_path_decomposition(graph).bags
        assert bags == _reference_heuristic_bags(graph)

    @settings(max_examples=100, deadline=None)
    @given(rep=_interval_representations())
    def test_bags_match_on_arbitrary_representations(self, rep):
        bags = PathDecomposition.from_interval_representation(rep).bags
        assert bags == _reference_bags(rep)

    def test_gap_and_idle_points(self):
        # Points 2-3 are covered by no interval (no bag); points 6-8 by
        # one no interval starts or ends at (one bag each).
        g = Graph(vertices=["a", "b", "c"])
        g.add_edge("b", "c")
        rep = IntervalRepresentation(
            g, {"a": (0, 1), "b": (4, 9), "c": (5, 5)}
        )
        bags = PathDecomposition.from_interval_representation(rep).bags
        assert bags == _reference_bags(rep)
        assert bags == [["a"], ["a"], ["b"], ["b", "c"]] + [["b"]] * 4

    @settings(max_examples=150, deadline=None)
    @given(rep=_interval_representations(), data=st.data())
    def test_validate_rejects_what_the_reference_rejects(self, rep, data):
        graph = rep.graph
        bags = _reference_bags(rep)
        v = data.draw(st.sampled_from(graph.vertices()))
        holding = [i for i, bag in enumerate(bags) if v in bag]
        kind = data.draw(st.sampled_from(("drop", "gap", "trim", "none")))
        if kind == "drop":  # a vertex leaves every bag
            bags = [[u for u in bag if u != v] for bag in bags]
        elif kind == "gap":  # a vertex lands in one more, maybe distant, bag
            i = data.draw(st.integers(0, len(bags) - 1))
            bags[i] = bags[i] + [v]
        elif kind == "trim":  # a vertex leaves its first or last bag
            i = holding[-1] if data.draw(st.booleans()) else holding[0]
            bags[i] = [u for u in bags[i] if u != v]
        assert _rejection(graph, bags) == _reference_rejection(graph, bags)

    def test_each_corruption_is_rejected(self):
        g = path_graph(4)
        good = [[0, 1], [1, 2], [2, 3]]
        for bags in (
            [[0, 1], [1], [3]],  # 2 dropped
            [[0, 1], [1, 2], [2, 3], [0]],  # 0 occurs non-contiguously
            [[0, 1], [2], [2, 3]],  # edge 1-2 uncovered
        ):
            assert _reference_rejection(g, bags) is not None
            assert _rejection(g, bags) == _reference_rejection(g, bags)
        assert _rejection(g, good) is None

    @pytest.mark.parametrize("seed", [1, 11, 17, 24])
    def test_heuristic_misses_keep_their_bags(self, seed):
        # The n=256 workload hosts on which the heuristic misses the
        # planted width 3.
        graph, _planted = pathwidth_workload(256, 3, seed)
        decomposition = heuristic_path_decomposition(graph)
        assert decomposition.width() == 4
        assert decomposition.bags == _reference_heuristic_bags(graph)


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
