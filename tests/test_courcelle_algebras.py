"""Differential validation of every homomorphism-class algebra.

The contract of Proposition 2.4 (realized by :class:`BoundedAlgebra`) is
that the finite-state classes decide the property under every composition.
Each algebra is replayed over randomized composition sequences alongside
the explicit :class:`BoundariedGraph` reference, and the verdicts must
agree with the property's independent ground-truth checker.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.courcelle import (
    ArityLimitExceeded,
    BoundariedGraph,
    ProductAlgebra,
    WholeGraphAlgebra,
    algebra_for,
    available_algebra_keys,
    random_op_sequence,
)
from repro.courcelle import algebra as algebra_module
from repro.courcelle.algebra import canonical_state_repr
from repro.courcelle.boundary import OpSequence, REAL, VIRTUAL
from repro.graphs import Graph
from repro.graphs.minors import _has_path_of_order
from repro.mso.properties import (
    has_dominating_set_at_most,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    has_independent_set_at_least,
    has_perfect_matching,
    has_vertex_cover_at_most,
    is_bipartite,
    is_q_colorable,
)

CHECKERS = {
    "connected": lambda g: g.is_connected(),
    "acyclic": lambda g: g.is_forest(),
    "bipartite": is_bipartite,
    "tree": lambda g: g.is_tree(),
    "even-order": lambda g: g.n % 2 == 0,
    "odd-order": lambda g: g.n % 2 == 1,
    "order-at-least-5": lambda g: g.n >= 5,
    "max-degree-2": lambda g: g.max_degree() <= 2,
    "max-degree-3": lambda g: g.max_degree() <= 3,
    "colorable-2": is_bipartite,
    "colorable-3": lambda g: is_q_colorable(g, 3),
    "vertex-cover-1": lambda g: has_vertex_cover_at_most(g, 1),
    "vertex-cover-2": lambda g: has_vertex_cover_at_most(g, 2),
    "vertex-cover-3": lambda g: has_vertex_cover_at_most(g, 3),
    "independent-set-2": lambda g: has_independent_set_at_least(g, 2),
    "independent-set-3": lambda g: has_independent_set_at_least(g, 3),
    "independent-set-4": lambda g: has_independent_set_at_least(g, 4),
    "dominating-set-1": lambda g: has_dominating_set_at_most(g, 1),
    "dominating-set-2": lambda g: has_dominating_set_at_most(g, 2),
    "perfect-matching": has_perfect_matching,
    "hamiltonian-path": has_hamiltonian_path,
    "hamiltonian-cycle": has_hamiltonian_cycle,
    "path-length-2": lambda g: _has_path_of_order(g, 3),
    "path-length-3": lambda g: _has_path_of_order(g, 4),
    "path-length-4": lambda g: _has_path_of_order(g, 5),
    "no-path-length-4": lambda g: not _has_path_of_order(g, 5),
    "star3-minor-free": lambda g: g.max_degree() <= 2,
    "k3-minor-free": lambda g: g.is_forest(),
    "p5-minor-free": lambda g: not _has_path_of_order(g, 5),
}


def _agree(seq, key):
    graph = seq.run_reference().real_subgraph()
    algebra = algebra_for(key)
    try:
        state, arity = seq.run_algebra(algebra)
    except ValueError:
        return  # arity guard tripped; nothing to compare
    assert algebra.accepts(state, arity) == bool(CHECKERS[key](graph)), (
        f"{key} disagrees on ops {seq.ops}"
    )


class TestBoundariedGraphReference:
    def test_new(self):
        bg = BoundariedGraph.new(3)
        assert bg.arity == 3
        assert bg.graph.n == 3 and bg.graph.m == 0

    def test_add_edge_and_tags(self):
        bg = BoundariedGraph.new(2).add_edge(0, 1, VIRTUAL)
        assert bg.graph.m == 1
        assert bg.real_subgraph().m == 0

    def test_duplicate_edge_rejected(self):
        bg = BoundariedGraph.new(2).add_edge(0, 1, REAL)
        with pytest.raises(ValueError):
            bg.add_edge(0, 1, REAL)

    def test_join_gluing(self):
        left = BoundariedGraph.new(2).add_edge(0, 1, REAL)
        right = BoundariedGraph.new(2).add_edge(0, 1, REAL)
        glued = left.join(right, [(1, 0)])
        assert glued.arity == 3
        assert glued.graph.n == 3
        assert glued.graph.m == 2  # a path on 3 vertices

    def test_join_rejects_edge_identification(self):
        left = BoundariedGraph.new(2).add_edge(0, 1, REAL)
        right = BoundariedGraph.new(2).add_edge(0, 1, REAL)
        with pytest.raises(ValueError):
            left.join(right, [(0, 0), (1, 1)])

    def test_forget(self):
        bg = BoundariedGraph.new(3).forget([2, 0])
        assert bg.boundary == (2, 0)

    def test_forgotten_vertex_remains(self):
        bg = BoundariedGraph.new(3).forget([0])
        assert bg.graph.n == 3

    def test_triangle_via_ops(self):
        seq = OpSequence(
            [
                ("new", 3),
                ("edge", 0, 1, REAL),
                ("edge", 1, 2, REAL),
                ("edge", 0, 2, REAL),
            ]
        )
        g = seq.run_reference().real_subgraph()
        assert g.is_cycle_graph()


class TestRegistry:
    def test_unknown_key(self):
        with pytest.raises(KeyError):
            algebra_for("no-such-property")

    def test_available_keys_nonempty(self):
        keys = available_algebra_keys()
        assert "connected" in keys
        assert any("vertex-cover" in k for k in keys)

    @pytest.mark.parametrize("key", sorted(CHECKERS))
    def test_all_keys_resolve(self, key):
        assert algebra_for(key) is not None


class TestHandPickedSequences:
    """Small deterministic compositions with known outcomes."""

    def _path3(self):
        return OpSequence(
            [("new", 3), ("edge", 0, 1, REAL), ("edge", 1, 2, REAL)]
        )

    def _triangle(self):
        return OpSequence(
            [
                ("new", 3),
                ("edge", 0, 1, REAL),
                ("edge", 1, 2, REAL),
                ("edge", 0, 2, REAL),
            ]
        )

    def _two_triangles_glued(self):
        """Two triangles sharing one vertex (a bowtie)."""
        return OpSequence(
            [
                ("new", 3),
                ("edge", 0, 1, REAL),
                ("edge", 1, 2, REAL),
                ("edge", 0, 2, REAL),
                ("new", 3),
                ("edge", 0, 1, REAL),
                ("edge", 1, 2, REAL),
                ("edge", 0, 2, REAL),
                ("join", ((0, 0),)),
            ]
        )

    def test_path_connected(self):
        alg = algebra_for("connected")
        state, arity = self._path3().run_algebra(alg)
        assert alg.accepts(state, arity)

    def test_triangle_not_acyclic(self):
        alg = algebra_for("acyclic")
        state, arity = self._triangle().run_algebra(alg)
        assert not alg.accepts(state, arity)

    def test_triangle_not_bipartite(self):
        alg = algebra_for("bipartite")
        state, arity = self._triangle().run_algebra(alg)
        assert not alg.accepts(state, arity)

    def test_triangle_hamiltonian_cycle(self):
        alg = algebra_for("hamiltonian-cycle")
        state, arity = self._triangle().run_algebra(alg)
        assert alg.accepts(state, arity)

    def test_path_no_hamiltonian_cycle(self):
        alg = algebra_for("hamiltonian-cycle")
        state, arity = self._path3().run_algebra(alg)
        assert not alg.accepts(state, arity)

    def test_bowtie_shapes(self):
        seq = self._two_triangles_glued()
        g = seq.run_reference().real_subgraph()
        assert g.n == 5 and g.m == 6
        for key in ("connected", "hamiltonian-path", "vertex-cover-2"):
            _agree(seq, key)

    def test_virtual_edges_invisible(self):
        seq = OpSequence(
            [("new", 3), ("edge", 0, 1, REAL), ("edge", 1, 2, VIRTUAL)]
        )
        alg = algebra_for("connected")
        state, arity = seq.run_algebra(alg)
        assert not alg.accepts(state, arity)  # real part is disconnected

    def test_parent_merge_figure_eight_cycle(self):
        """Gluing both ends of two length-2 paths creates a 4-cycle."""
        length2_path = [
            ("new", 3),
            ("edge", 0, 2, REAL),
            ("edge", 2, 1, REAL),
            ("forget", (0, 1)),
        ]
        seq = OpSequence(
            length2_path + length2_path + [("join", ((0, 0), (1, 1)))]
        )
        alg = algebra_for("acyclic")
        state, arity = seq.run_algebra(alg)
        assert not alg.accepts(state, arity)
        g = seq.run_reference().real_subgraph()
        assert g.has_cycle()
        assert g.is_cycle_graph()

    def test_gluing_identical_edges_rejected(self):
        """Gluing both endpoints of two 1-edge paths would identify the
        edges, which Parent-merge forbids (Section 5.2)."""
        seq = OpSequence(
            [
                ("new", 2),
                ("edge", 0, 1, REAL),
                ("new", 2),
                ("edge", 0, 1, REAL),
                ("join", ((0, 0), (1, 1))),
            ]
        )
        with pytest.raises(ValueError):
            seq.run_reference()


class TestDifferentialRandomized:
    """The main contract test: algebra == ground truth on random ops."""

    @pytest.mark.parametrize("key", sorted(CHECKERS))
    def test_small_sequences(self, key):
        for t in range(120):
            rng = random.Random(1000 + t)
            seq = random_op_sequence(rng, max_new=3, steps=10, virtual_probability=0.15)
            _agree(seq, key)

    @pytest.mark.parametrize(
        "key",
        [
            "connected",
            "acyclic",
            "bipartite",
            "vertex-cover-2",
            "independent-set-3",
            "dominating-set-1",
            "perfect-matching",
            "hamiltonian-path",
            "hamiltonian-cycle",
            "path-length-3",
        ],
    )
    def test_larger_sequences(self, key):
        for t in range(80):
            rng = random.Random(90_000 + t)
            seq = random_op_sequence(rng, max_new=4, steps=18, virtual_probability=0.25)
            _agree(seq, key)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_seeded(self, seed):
        rng = random.Random(seed)
        seq = random_op_sequence(rng, max_new=3, steps=12, virtual_probability=0.2)
        for key in ("connected", "acyclic", "bipartite", "hamiltonian-path"):
            _agree(seq, key)


class TestWholeGraphAlgebra:
    def test_matches_checker(self):
        rng = random.Random(5)
        seq = random_op_sequence(rng, max_new=3, steps=10)
        alg = WholeGraphAlgebra(lambda g: g.is_connected())
        state, arity = seq.run_algebra(alg)
        assert alg.accepts(state, arity) == seq.run_reference().real_subgraph().is_connected()


class TestProductAlgebra:
    def test_conjunction(self):
        seq = OpSequence([("new", 3), ("edge", 0, 1, REAL), ("edge", 1, 2, REAL)])
        prod = ProductAlgebra([algebra_for("connected"), algebra_for("acyclic")])
        state, arity = seq.run_algebra(prod)
        assert prod.accepts(state, arity)  # a path is a tree

    def test_disjunction(self):
        seq = OpSequence([("new", 2)])  # two isolated vertices
        prod = ProductAlgebra(
            [algebra_for("connected"), algebra_for("acyclic")], mode="or"
        )
        state, arity = seq.run_algebra(prod)
        assert prod.accepts(state, arity)  # acyclic holds

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ProductAlgebra([], mode="xor")


class TestArityGuards:
    def test_coloring_guard(self):
        with pytest.raises(ValueError):
            algebra_for("colorable-3").new_vertices(12)

    def test_hamiltonian_guard(self):
        with pytest.raises(ValueError):
            algebra_for("hamiltonian-path").new_vertices(13)

    def test_guards_raise_the_typed_capacity_error(self):
        # A ValueError subclass, so direct callers keep their contract
        # while the pipeline can tell capacity limits from bugs.
        assert issubclass(ArityLimitExceeded, ValueError)
        for key, arity in (("colorable-3", 12), ("hamiltonian-path", 13)):
            with pytest.raises(ArityLimitExceeded, match="boundary arity"):
                algebra_for(key).new_vertices(arity)


#: The algebras E9's zoo certifies (``tree`` is the product of
#: connectivity and acyclicity).
E9_KEYS = (
    "connected",
    "acyclic",
    "bipartite",
    "tree",
    "colorable-3",
    "vertex-cover-2",
    "independent-set-2",
    "dominating-set-2",
    "perfect-matching",
    "hamiltonian-cycle",
    "hamiltonian-path",
    "even-order",
    "max-degree-2",
)


def _replay(seq, new_vertices, add_edge, join, forget) -> list:
    """Run ``seq`` through the four given operations; return every
    intermediate state, in op order."""
    stack: list = []
    states: list = []
    for op in seq.ops:
        if op[0] == "new":
            stack.append((new_vertices(op[1]), op[1]))
        elif op[0] == "edge":
            state, arity = stack.pop()
            stack.append((add_edge(state, op[1], op[2], op[3]), arity))
        elif op[0] == "join":
            state2, arity2 = stack.pop()
            state1, arity1 = stack.pop()
            identify = tuple(op[1])
            joined = join(state1, arity1, state2, arity2, identify)
            stack.append((joined, arity1 + arity2 - len(identify)))
        else:
            state, arity = stack.pop()
            keep = tuple(op[1])
            stack.append((forget(state, arity, keep), len(keep)))
        states.append(stack[-1][0])
    return states


def _tabulated_states(algebra, seq) -> list:
    return _replay(
        seq, algebra.new_vertices, algebra.add_edge, algebra.join, algebra.forget
    )


def _raw_states(algebra, seq) -> list:
    """The same replay on the subclass's own operations, table bypassed."""

    def add_edge(state, a, b, tag):
        return state if tag == VIRTUAL else algebra._add_real_edge(state, a, b)

    return _replay(
        seq, algebra._new_vertices, add_edge, algebra._join, algebra._forget
    )


class TestTransitionTable:
    """The public operations read and fill a per-instance table; they
    must return exactly what the subclass computes."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        cap=st.sampled_from((None, 1, 3, 8)),
    )
    @settings(max_examples=40, deadline=None)
    def test_tabulated_equals_raw(self, seed, cap):
        original = algebra_module._TABLE_LIMIT
        if cap is not None:
            algebra_module._TABLE_LIMIT = cap
        try:
            for key in E9_KEYS:
                rng = random.Random(seed)
                seqs = [
                    random_op_sequence(
                        rng, max_new=3, steps=10, virtual_probability=0.2
                    )
                    for _ in range(3)
                ]
                tabulated = algebra_for(key)
                raw = algebra_for(key)
                # Three sequences from one stream share prefixes of the
                # table, and the replay runs twice: the second pass hits.
                for seq in seqs + seqs:
                    try:
                        want = _raw_states(raw, seq)
                    except ArityLimitExceeded:
                        with pytest.raises(ArityLimitExceeded):
                            _tabulated_states(tabulated, seq)
                        continue
                    got = _tabulated_states(tabulated, seq)
                    assert got == want, (key, seq.ops)
                    assert [canonical_state_repr(x) for x in got] == [
                        canonical_state_repr(x) for x in want
                    ], (key, seq.ops)
                    table = algebra_module._TABLES.get(tabulated, {})
                    assert len(table) <= algebra_module._TABLE_LIMIT
        finally:
            algebra_module._TABLE_LIMIT = original

    def test_small_cap_clears_mid_sequence(self, monkeypatch):
        monkeypatch.setattr(algebra_module, "_TABLE_LIMIT", 2)
        algebra = algebra_for("connected")
        state = algebra.new_vertices(3)
        state = algebra.add_edge(state, 0, 1)
        assert len(algebra_module._TABLES[algebra]) == 2
        state = algebra.forget(state, 3, (0, 2))
        assert len(algebra_module._TABLES[algebra]) == 1
        assert state == algebra._forget(
            algebra._add_real_edge(algebra._new_vertices(3), 0, 1), 3, (0, 2)
        )

    def test_a_hit_returns_the_same_object(self):
        algebra = algebra_for("acyclic")
        first = algebra.join(
            algebra.new_vertices(2), 2, algebra.new_vertices(2), 2, ((1, 0),)
        )
        again = algebra.join(
            algebra._new_vertices(2), 2, algebra._new_vertices(2), 2, ((1, 0),)
        )
        assert again is first
        assert algebra.new_vertices(2) is algebra.new_vertices(2)

    def test_instances_keep_separate_tables(self):
        one, two = algebra_for("connected"), algebra_for("connected")
        state = one.new_vertices(2)
        assert two.new_vertices(2) is not state
        assert algebra_module._TABLES[one] is not algebra_module._TABLES[two]

    def test_unhashable_arguments_pass_straight_through(self):
        algebra = algebra_for("max-degree-2")
        state = ([0, 0, 0], False)  # a list field: unhashable
        assert algebra.forget(state, 3, (2, 0)) == ((0, 0), False)
        assert algebra.add_edge(state, 0, 1) == ((1, 1, 0), False)
        assert len(algebra_module._TABLES.get(algebra, {})) == 0

    def test_raised_errors_are_not_stored(self):
        algebra = algebra_for("colorable-3")
        for _ in range(2):
            with pytest.raises(ArityLimitExceeded):
                algebra.new_vertices(12)
        assert ("new", 12) not in algebra_module._TABLES.get(algebra, {})

    def test_virtual_edges_skip_the_table(self):
        algebra = algebra_for("connected")
        state = algebra.new_vertices(2)
        assert algebra.add_edge(state, 0, 1, VIRTUAL) is state
        assert len(algebra_module._TABLES[algebra]) == 1

    @pytest.mark.parametrize("key", E9_KEYS)
    def test_pickle_is_unchanged_by_a_full_table(self, key):
        algebra = algebra_for(key)
        before = pickle.dumps(algebra)
        for seed in range(4):
            seq = random_op_sequence(
                random.Random(seed), max_new=3, steps=10, virtual_probability=0.2
            )
            try:
                seq.run_algebra(algebra)
            except ArityLimitExceeded:
                pass
        assert len(algebra_module._TABLES[algebra]) > 0
        assert pickle.dumps(algebra) == before
        clone = pickle.loads(before)
        assert clone not in algebra_module._TABLES

    def test_whole_graph_oracle_is_untabulated(self):
        algebra = WholeGraphAlgebra(lambda g: g.is_connected())
        seq = random_op_sequence(random.Random(3), max_new=3, steps=10)
        seq.run_algebra(algebra)
        seq.run_algebra(algebra)
        assert algebra not in algebra_module._TABLES
