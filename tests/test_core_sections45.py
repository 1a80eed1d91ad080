"""Tests for Sections 4 and 5: lane partitions, completions, lanewidth,
merges, hierarchies — every bound the paper states, asserted."""

import random
import sys
from contextlib import contextmanager

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
from repro.core.klane_graph import KLaneGraph, to_klane
from repro.core.lanewidth import final_designated
from repro.courcelle import algebra_for
from repro.courcelle.boundary import REAL, VIRTUAL
from repro.core.lane_partition import greedy_lanes
from repro.experiments import lanewidth_workload, pathwidth_workload
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


@contextmanager
def _recursion_headroom(frames: int):
    """Run the body under a recursion limit ``frames`` above the caller."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


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

        with _recursion_headroom(40):
            constrained = evaluate_hierarchy(root, algebra)

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


def _one_lane_chain(length: int) -> ConstructionSequence:
    """Width 2, then ``length`` V-inserts on lane 0: one member chain."""
    return ConstructionSequence(
        width=2,
        initial_vertices=(0, 1),
        initial_edge_tags=(REAL,),
        ops=[("V", 0, v, REAL) for v in range(2, 2 + length)],
    )


def _reference_check(root, graph) -> None:
    """The prover's self-check before the one-pass check: edge, tag,
    vertex and depth checks over whole-subtree walks, then the reference
    k-lane merges."""
    edges = root.all_edges()
    keys = [key for key, _tag in edges]
    if len(keys) != len(set(keys)) or set(keys) != set(graph.edges()):
        raise ValueError("edges")
    for key, tag in edges:
        if graph.edge_label(*key) != tag:
            raise ValueError("tags")
    if root.all_vertices() != set(graph.vertices()):
        raise ValueError("vertices")
    if hierarchy_depth(root) > 2 * len(root.lanes):
        raise ValueError("depth")
    to_klane(root)


def _reference_rejects(root, graph) -> bool:
    try:
        _reference_check(root, graph)
    except Exception:  # the reference merges fail in many shapes
        return True
    return False


def _honest(seed: int):
    rng = random.Random(seed)
    seq = random_lanewidth_sequence(
        rng.choice([2, 3, 4]), rng.randrange(4, 30), rng
    )
    return build_hierarchy(seq), apply_construction(seq), rng


def _drop_leaf_member(t_node, rng) -> bool:
    """Remove a member with no kids (not the root member) from a T node."""
    parents = set(t_node.member_parent.values())
    leaves = [
        index for index in range(len(t_node.children))
        if index not in parents and index != t_node.root_member
    ]
    if not leaves:
        return False
    gone = rng.choice(leaves)
    del t_node.children[gone]
    t_node.member_parent = {
        index - (index > gone): (
            None if parent is None else parent - (parent > gone)
        )
        for index, parent in t_node.member_parent.items()
        if index != gone
    }
    t_node.root_member -= t_node.root_member > gone
    return True


def _corrupt(root, graph, kind: str, rng):
    """Apply one corruption to the hierarchy (or, for
    ``extra-graph-edge``, to the graph) in place; return the (possibly
    new) root."""
    nodes = list(root.walk())
    if kind == "swap-terminal":
        node = rng.choice([x for x in nodes if len(x.lanes) >= 2])
        terminals = rng.choice([node.t_in, node.t_out])
        a, b = rng.sample(sorted(terminals), 2)
        terminals[a], terminals[b] = terminals[b], terminals[a]
    elif kind == "wrong-terminal":
        node = rng.choice(nodes)
        lane = rng.choice(sorted(node.t_out))
        node.t_out[lane] = rng.choice(sorted(graph.vertices()))
    elif kind == "duplicate-edge":
        e_nodes = [x for x in nodes if x.kind == "E"]
        if len(e_nodes) >= 2:
            a, b = rng.sample(e_nodes, 2)
            a.edge, a.edge_tag = b.edge, b.edge_tag
    elif kind == "flip-tag":
        e_nodes = [x for x in nodes if x.kind == "E"]
        if e_nodes:
            node = rng.choice(e_nodes)
            node.edge_tag = VIRTUAL if node.edge_tag == REAL else REAL
    elif kind == "extra-graph-edge":
        vertices = sorted(graph.vertices())
        missing = [
            (u, v) for u in vertices for v in vertices
            if u < v and not graph.has_edge(u, v)
        ]
        if missing:
            u, v = rng.choice(missing)
            graph.add_edge(u, v)
            graph.set_edge_label(u, v, REAL)
    elif kind == "drop-vertex":
        t_nodes = [x for x in nodes if x.kind == "T"]
        rng.shuffle(t_nodes)
        any(_drop_leaf_member(t_node, rng) for t_node in t_nodes)
    elif kind == "overlapping-bridge":
        b_nodes = [x for x in nodes if x.kind == "B"]
        if b_nodes:
            node = rng.choice(b_nodes)
            lane = node.bridge[0]
            right = node.children[1]
            if right.kind == "V":
                right.lanes = (lane,)
                right.t_in = {lane: right.vertex}
                right.t_out = {lane: right.vertex}
            node.bridge = (lane, lane)
    elif kind == "reparent-member":
        t_node = rng.choice([x for x in nodes if x.kind == "T"])
        if len(t_node.children) >= 2:
            member = rng.choice(
                [i for i in range(len(t_node.children)) if i != t_node.root_member]
            )
            t_node.member_parent[member] = rng.choice(
                [i for i in range(len(t_node.children)) if i != member]
            )
    elif kind == "depth-overflow":
        # Single-member T wrappers keep every other condition intact.
        from repro.core.hierarchy import HierarchyNode

        for _ in range(2 * len(root.lanes) + rng.choice([0, 3000])):
            root = HierarchyNode(
                kind="T",
                lanes=root.lanes,
                t_in=dict(root.t_in),
                t_out=dict(root.t_out),
                children=[root],
                member_parent={0: None},
                root_member=0,
            )
    else:
        raise AssertionError(kind)
    return root


CORRUPTIONS = (
    "swap-terminal",
    "wrong-terminal",
    "duplicate-edge",
    "flip-tag",
    "extra-graph-edge",
    "drop-vertex",
    "overlapping-bridge",
    "reparent-member",
    "depth-overflow",
)


class TestOnePassValidation:
    """``validate_hierarchy`` checks what the reference k-lane merges
    check, in one pass, on explicit stacks."""

    def test_validation_stack_depth_is_independent_of_member_chains(self):
        """Greedy lanes make member chains about n/3 deep; a width-2
        chain of 2 × the recursion limit V-inserts is one member chain
        that long.  Validate both under a recursion limit a few dozen
        frames above the caller."""
        seq, graph = lanewidth_workload(3, 256, 1)
        root = build_hierarchy(seq)
        chain = _one_lane_chain(2 * sys.getrecursionlimit())
        chain_root = build_hierarchy(chain)
        chain_graph = apply_construction(chain)
        with _recursion_headroom(40):
            depths = (
                validate_hierarchy(root, graph),
                validate_hierarchy(chain_root, chain_graph),
            )
        assert depths == (hierarchy_depth(root), hierarchy_depth(chain_root))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_honest_random_hierarchies_pass_both_checks(self, seed):
        root, graph, _rng = _honest(seed)
        assert validate_hierarchy(root, graph) == hierarchy_depth(root)
        _reference_check(root, graph)

    @pytest.mark.parametrize("builder", ["greedy", "prop-4.6"])
    def test_honest_theorem1_hierarchies_pass_both_checks(self, builder):
        for n, k, seed in ((40, 2, 1), (60, 3, 2), (80, 3, 3)):
            graph, decomposition = pathwidth_workload(n, k, seed)
            rep = decomposition.to_interval_representation()
            build = greedy_lanes if builder == "greedy" else build_lane_partition
            completion = build_completion(graph, build(graph, rep).partition)
            root = build_hierarchy(
                construction_sequence_from_completion(completion)
            )
            assert validate_hierarchy(root, completion.graph) == hierarchy_depth(
                root
            )
            _reference_check(root, completion.graph)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(CORRUPTIONS),
    )
    @settings(max_examples=120, deadline=None)
    def test_corruptions_the_reference_catches_are_caught(self, seed, kind):
        root, graph, rng = _honest(seed)
        root = _corrupt(root, graph, kind, rng)
        try:
            validate_hierarchy(root, graph)
        except ValueError:
            return  # the only exception type it may raise
        assert not _reference_rejects(root, graph), kind

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_each_corruption_is_caught(self, kind):
        """Every corruption kind, on a host where it bites."""
        for seed in range(200):
            root, graph, rng = _honest(seed)
            root = _corrupt(root, graph, kind, rng)
            if _reference_rejects(root, graph):
                with pytest.raises(ValueError):
                    validate_hierarchy(root, graph)
                return
        raise AssertionError(f"no host where {kind} bites")

