"""Tests for the PLS framework: model, simulator, classic schemes,
pointer scheme, transforms, and the lower-bound splice attack."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.graphs.generators import (
    cycle_graph,
    ladder_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.pls import (
    AcyclicityScheme,
    BipartitenessScheme,
    Configuration,
    EdgeToVertexScheme,
    PointerScheme,
    SpanningTreeScheme,
    run_verification,
)
from repro.pls.adversary import corrupt_one_label, transplant_labels
from repro.pls.bits import ClassIndexer, SizeContext, id_bits_for, uint_bits
from repro.pls.classic import TREE_MARK
from repro.pls.lower_bound import DistanceModScheme, find_collision, splice_attack
from repro.pls.pointer import PointerLabel, verify_pointer_ports
from repro.pls.scheme import ProverFailure
from repro.pls.simulator import prove_and_verify


class TestConfiguration:
    def test_distinct_ids_required(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            Configuration(g, {0: 7, 1: 7})

    def test_ids_must_cover(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            Configuration(g, {0: 7})

    def test_random_ids(self):
        config = Configuration.with_random_ids(cycle_graph(6), random.Random(1))
        assert len(set(config.ids.values())) == 6

    def test_vertex_of_id(self):
        config = Configuration.with_random_ids(path_graph(3), random.Random(2))
        for v, x in config.ids.items():
            assert config.vertex_of_id(x) == v


class TestBits:
    def test_uint_bits(self):
        assert uint_bits(0) == 1
        assert uint_bits(1) == 1
        assert uint_bits(255) == 8

    def test_id_bits_scale(self):
        assert id_bits_for(2) < id_bits_for(2**20)
        assert id_bits_for(2**40) == 32  # capped at the universe

    def test_class_indexer(self):
        indexer = ClassIndexer()
        a = indexer.index_of("aaa")
        b = indexer.index_of("bbb")
        assert indexer.index_of("aaa") == a
        assert a != b
        assert indexer.class_count == 2
        assert indexer.bits_per_class == 1


class TestBipartiteness:
    def test_accepts_even_cycle(self):
        config = Configuration.with_random_ids(cycle_graph(8), random.Random(1))
        _lab, result = prove_and_verify(config, BipartitenessScheme())
        assert result.accepted

    def test_prover_fails_on_odd_cycle(self):
        config = Configuration.with_random_ids(cycle_graph(7), random.Random(1))
        with pytest.raises(ProverFailure):
            BipartitenessScheme().prove(config)

    def test_corruption_rejected(self):
        rng = random.Random(3)
        config = Configuration.with_random_ids(cycle_graph(10), rng)
        scheme = BipartitenessScheme()
        labeling, _ = prove_and_verify(config, scheme)
        bad = corrupt_one_label(labeling, rng)
        result = run_verification(config, scheme, bad)
        assert not result.accepted

    def test_one_bit_labels(self):
        config = Configuration.with_random_ids(path_graph(100), random.Random(4))
        scheme = BipartitenessScheme()
        labeling, _ = prove_and_verify(config, scheme)
        assert labeling.max_label_bits(scheme) == 1


class TestAcyclicity:
    def test_accepts_trees(self):
        rng = random.Random(5)
        for _ in range(5):
            config = Configuration.with_random_ids(random_tree(20, rng), rng)
            _lab, result = prove_and_verify(config, AcyclicityScheme())
            assert result.accepted

    def test_accepts_forests(self):
        g = Graph(edges=[(0, 1), (1, 2), (3, 4)])
        config = Configuration.with_random_ids(g, random.Random(6))
        _lab, result = prove_and_verify(config, AcyclicityScheme())
        assert result.accepted

    def test_prover_fails_on_cycle(self):
        config = Configuration.with_random_ids(cycle_graph(5), random.Random(6))
        with pytest.raises(ProverFailure):
            AcyclicityScheme().prove(config)

    def test_no_labeling_accepts_cycles(self):
        """Exhaustive small check of soundness on C4 with tiny label space."""
        from repro.pls.classic import RootedDistanceLabel
        from repro.pls.scheme import Labeling

        g = cycle_graph(4)
        config = Configuration(g, {v: v + 10 for v in g.vertices()})
        scheme = AcyclicityScheme()
        vertices = g.vertices()
        import itertools

        for roots in itertools.product([10, 11], repeat=4):
            for dists in itertools.product(range(4), repeat=4):
                mapping = {
                    v: RootedDistanceLabel(r, d)
                    for v, r, d in zip(vertices, roots, dists)
                }
                labeling = Labeling("vertices", mapping, SizeContext(4))
                assert not run_verification(config, scheme, labeling).accepted


class TestSpanningTree:
    def test_accepts_marked_tree(self):
        rng = random.Random(7)
        g = cycle_graph(9)
        tree = g.spanning_tree(0)
        for u, v in tree.edges():
            g.set_edge_label(u, v, TREE_MARK)
        config = Configuration.with_random_ids(g, rng)
        _lab, result = prove_and_verify(config, SpanningTreeScheme())
        assert result.accepted

    def test_prover_rejects_non_tree_marks(self):
        g = cycle_graph(4)
        for u, v in g.edges():
            g.set_edge_label(u, v, TREE_MARK)  # the whole cycle marked
        config = Configuration.with_random_ids(g, random.Random(8))
        with pytest.raises(ProverFailure):
            SpanningTreeScheme().prove(config)

    def test_unmarked_graph_fails(self):
        g = path_graph(4)  # no marks at all
        config = Configuration.with_random_ids(g, random.Random(8))
        with pytest.raises(ProverFailure):
            SpanningTreeScheme().prove(config)


class TestPointerScheme:
    def test_accepts(self):
        rng = random.Random(9)
        for g in (cycle_graph(8), ladder_graph(4), star_graph(5)):
            config = Configuration.with_random_ids(g, rng)
            _lab, result = prove_and_verify(config, PointerScheme())
            assert result.accepted

    def test_explicit_target(self):
        rng = random.Random(10)
        config = Configuration.with_random_ids(path_graph(6), rng)
        target = config.ids[3]
        _lab, result = prove_and_verify(config, PointerScheme(target))
        assert result.accepted

    def test_corruption_rejected(self):
        rng = random.Random(11)
        config = Configuration.with_random_ids(cycle_graph(8), rng)
        scheme = PointerScheme()
        labeling, _ = prove_and_verify(config, scheme)
        rejected = 0
        trials = 0
        for _ in range(20):
            bad = corrupt_one_label(labeling, rng)
            if bad.mapping == labeling.mapping:
                continue
            trials += 1
            if not run_verification(config, scheme, bad).accepted:
                rejected += 1
        assert rejected >= trials - 2  # redundant-field mutations may pass

    def test_transplant_to_other_graph_rejected(self):
        """Labels pointing at an id absent from the new graph must fail."""
        rng = random.Random(12)
        config_a = Configuration.with_random_ids(cycle_graph(6), rng)
        scheme = PointerScheme()
        labeling, _ = prove_and_verify(config_a, scheme)
        config_b = Configuration.with_random_ids(cycle_graph(6), rng)
        moved = transplant_labels(labeling, config_b.graph.edges())
        assert moved is not None
        result = run_verification(config_b, scheme, moved)
        assert not result.accepted


def _set_based_pointer_ports(identifier, labels) -> bool:
    """The pointer checks as separate set-building passes: the oracle for
    :func:`verify_pointer_ports`, which reads its labels in one pass."""
    if not labels:
        return False
    if any(not isinstance(label, PointerLabel) for label in labels):
        return False
    targets = {label.target_id for label in labels}
    if len(targets) != 1:
        return False
    target = targets.pop()
    own = {label.record_for(identifier) for label in labels}
    if None in own or len(own) != 1:
        return False
    d = own.pop()
    if identifier == target:
        return d == 0
    if d == 0:
        return False
    others = [label.other_record(identifier) for label in labels]
    return any(rec is not None and rec[1] == d - 1 for rec in others)


def _outcome(check, identifier, labels):
    try:
        return ("value", check(identifier, labels))
    except Exception as exc:  # the class is what must agree
        return ("raises", type(exc))


_IDS = st.integers(1, 4)
_DISTANCES = st.one_of(
    st.integers(-1, 3), st.none(), st.booleans(), st.text(max_size=2),
    st.sampled_from([0.0, 1.0, 0.5]),
)
_POINTER_LABELS = st.builds(
    PointerLabel,
    target_id=st.one_of(_IDS, st.sampled_from(["1", True])),
    id_a=_IDS,
    dist_a=_DISTANCES,
    id_b=_IDS,
    dist_b=_DISTANCES,
)


class TestPointerPorts:
    @settings(max_examples=400, deadline=None)
    @given(
        identifier=_IDS,
        labels=st.lists(
            st.one_of(
                _POINTER_LABELS,
                _POINTER_LABELS,
                _POINTER_LABELS,
                st.sampled_from([None, 0, "label", (1, 0)]),
            ),
            max_size=5,
        ),
    )
    def test_one_pass_matches_the_set_based_checks(self, identifier, labels):
        """Same value, or the same exception class, as the oracle on
        non-labels, odd distance types, mixed targets, an identifier no
        label names and the target itself (the identifiers are 1..4)."""
        assert _outcome(verify_pointer_ports, identifier, labels) == _outcome(
            _set_based_pointer_ports, identifier, labels
        )

    def test_parent_test_waits_for_the_target_test(self):
        """A str distance only breaks the parent test's ``d - 1``: the
        target itself answers ``d == 0`` first, anyone else raises."""
        label = PointerLabel(target_id=1, id_a=1, dist_a="x", id_b=2, dist_b="x")
        assert verify_pointer_ports(1, [label]) is False
        with pytest.raises(TypeError):
            verify_pointer_ports(2, [label])


class TestEdgeToVertexTransform:
    def test_pointer_through_transform(self):
        rng = random.Random(13)
        config = Configuration.with_random_ids(ladder_graph(5), rng)
        scheme = EdgeToVertexScheme(PointerScheme())
        labeling, result = prove_and_verify(config, scheme)
        assert result.accepted
        assert labeling.location == "vertices"

    def test_requires_edge_scheme(self):
        with pytest.raises(ValueError):
            EdgeToVertexScheme(BipartitenessScheme())

    def test_corruption_rejected(self):
        rng = random.Random(14)
        config = Configuration.with_random_ids(cycle_graph(8), rng)
        scheme = EdgeToVertexScheme(PointerScheme())
        labeling, _ = prove_and_verify(config, scheme)
        rejected = trials = 0
        for _ in range(20):
            bad = corrupt_one_label(labeling, rng)
            if bad.mapping == labeling.mapping:
                continue
            trials += 1
            if not run_verification(config, scheme, bad).accepted:
                rejected += 1
        assert rejected >= trials - 2


class TestLowerBound:
    def test_scheme_complete_on_paths(self):
        rng = random.Random(15)
        for modulus in (3, 5, 64):
            config = Configuration.with_random_ids(path_graph(30), rng)
            _lab, result = prove_and_verify(config, DistanceModScheme(modulus))
            assert result.accepted, modulus

    def test_collision_finder(self):
        assert find_collision([0, 1, 0, 1, 0, 1]) is not None
        assert find_collision([0, 1, 2, 3, 4]) is None

    def test_attack_succeeds_below_log_n(self):
        rng = random.Random(16)
        for modulus in (4, 8, 16):
            outcome = splice_attack(DistanceModScheme(modulus), 64, rng)
            assert outcome.collision_found
            assert outcome.cycle_accepted  # the forged cycle slips through
            assert outcome.cycle_length % modulus == 0

    def test_attack_fails_at_log_n(self):
        rng = random.Random(17)
        outcome = splice_attack(DistanceModScheme(128), 64, rng)
        assert not outcome.collision_found

    def test_sound_scheme_rejects_cycles(self):
        """With modulus >= n the scheme rejects every tested cycle labeling."""
        rng = random.Random(18)
        scheme = DistanceModScheme(50)
        g = cycle_graph(8)
        config = Configuration.with_random_ids(g, rng)
        from repro.pls.scheme import Labeling

        for _ in range(200):
            mapping = {v: rng.randrange(50) for v in g.vertices()}
            labeling = Labeling("vertices", mapping, SizeContext(8))
            assert not run_verification(config, scheme, labeling).accepted
