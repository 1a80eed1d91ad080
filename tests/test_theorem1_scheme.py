"""End-to-end tests of the Theorem 1 proof labeling scheme.

Completeness: honest prover => all vertices accept, on every family and
property.  Soundness: predicate-violating tampering => some vertex
rejects.  Label sizes: O(log n) accounting sanity.
"""

import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.pipeline import PipelineContext
from repro.api.plan import (
    PlanRunner,
    algebra_source_key,
    config_fingerprint,
    lanewidth_plan,
    theorem1_plan,
)
from repro.codec import decode_labeling_columnar
from repro.codec.table import RecordTable
from repro.core import (
    LanewidthScheme,
    Theorem1Scheme,
    apply_construction,
    certify_lanewidth_graph,
    random_lanewidth_sequence,
)
from repro.core.certificates import (
    BasicInfo,
    BLevelRecord,
    CertificateBuilder,
    EdgeCertificate,
    EmbeddedRecord,
    Theorem1Label,
    TLevelRecord,
)
from repro.experiments import lanewidth_workload, pathwidth_workload
from repro.graphs import Graph, edge_key
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
from repro.pls.adversary import (
    corrupt_one_label,
    drop_one_label,
    swap_two_labels,
    transplant_labels,
)
from repro.pls.model import Configuration
from repro.pls.pointer import PointerLabel
from repro.pls.scheme import Labeling, ProverFailure
from repro.pls.simulator import prove_and_verify, run_verification
from repro.pls.transforms import EdgeToVertexScheme


class TestCompletenessNamedFamilies:
    CASES = [
        ("path", path_graph(10), 1),
        ("cycle", cycle_graph(8), 2),
        ("caterpillar", caterpillar_graph(4, 2), 1),
        ("ladder", ladder_graph(5), 2),
        ("star", star_graph(6), 1),
        ("spider", spider_graph(3, 2), 2),
    ]

    @pytest.mark.parametrize("name,graph,k", CASES, ids=lambda c: str(c))
    def test_connected_accepted(self, name, graph, k):
        if isinstance(name, (int,)) or not isinstance(name, str):
            pytest.skip("parametrization artifact")
        config = Configuration.with_random_ids(graph, random.Random(1))
        scheme = Theorem1Scheme("connected", k)
        labeling, result = prove_and_verify(config, scheme)
        assert result.accepted, result.rejecting_vertices[:5]

    def test_bipartite_on_even_cycle(self):
        config = Configuration.with_random_ids(cycle_graph(8), random.Random(2))
        scheme = Theorem1Scheme("bipartite", 2)
        _labeling, result = prove_and_verify(config, scheme)
        assert result.accepted

    def test_prover_fails_on_odd_cycle_bipartiteness(self):
        config = Configuration.with_random_ids(cycle_graph(7), random.Random(2))
        scheme = Theorem1Scheme("bipartite", 2)
        with pytest.raises(ProverFailure):
            scheme.prove(config)

    def test_prover_fails_on_pathwidth_excess(self):
        from repro.graphs.generators import complete_graph

        config = Configuration.with_random_ids(complete_graph(6), random.Random(3))
        scheme = Theorem1Scheme("connected", 1)
        with pytest.raises(ProverFailure):
            scheme.prove(config)

    def test_prover_fails_on_disconnected(self):
        from repro.graphs import Graph

        g = Graph(edges=[(0, 1), (2, 3)])
        config = Configuration.with_random_ids(g, random.Random(4))
        scheme = Theorem1Scheme("acyclic", 1)
        with pytest.raises(ProverFailure):
            scheme.prove(config)


class TestCompletenessRandom:
    PROPERTIES = ("connected", "acyclic", "bipartite", "even-order")

    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=20, deadline=None)
    def test_lanewidth_mode(self, seed):
        rng = random.Random(seed)
        w = rng.choice([2, 3, 4])
        seq = random_lanewidth_sequence(w, rng.randrange(0, 20), rng)
        graph = apply_construction(seq)
        truth = {
            "connected": graph.is_connected(),
            "acyclic": graph.is_forest(),
            "bipartite": is_bipartite(graph),
            "even-order": graph.n % 2 == 0,
        }
        for key in self.PROPERTIES:
            if truth[key]:
                _cfg, _scheme, _lab, result = certify_lanewidth_graph(seq, key, rng)
                assert result.accepted
            else:
                with pytest.raises(ProverFailure):
                    certify_lanewidth_graph(seq, key, rng)

    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=12, deadline=None)
    def test_pathwidth_mode(self, seed):
        rng = random.Random(seed)
        k = rng.choice([1, 2])
        graph, bags = random_pathwidth_graph(16, k, rng)
        decomposition = PathDecomposition(graph, bags)
        config = Configuration.with_random_ids(graph, rng)
        scheme = Theorem1Scheme(
            "connected", k, decomposer=lambda _g: decomposition
        )
        _labeling, result = prove_and_verify(config, scheme)
        assert result.accepted


class TestExpensiveAlgebras:
    """Table-based algebras run at small lanewidth (DESIGN.md scope note)."""

    @pytest.mark.parametrize(
        "key,truth",
        [
            ("colorable-3", None),
            ("vertex-cover-3", None),
            ("hamiltonian-path", None),
            ("perfect-matching", None),
        ],
    )
    def test_lanewidth2(self, key, truth):
        from repro.mso.properties import (
            has_hamiltonian_path,
            has_perfect_matching,
            has_vertex_cover_at_most,
            is_q_colorable,
        )

        checkers = {
            "colorable-3": lambda g: is_q_colorable(g, 3),
            "vertex-cover-3": lambda g: has_vertex_cover_at_most(g, 3),
            "hamiltonian-path": has_hamiltonian_path,
            "perfect-matching": has_perfect_matching,
        }
        rng = random.Random(5)
        accepted = 0
        for _ in range(8):
            seq = random_lanewidth_sequence(2, rng.randrange(0, 8), rng)
            graph = apply_construction(seq)
            want = checkers[key](graph)
            if want:
                _c, _s, _l, result = certify_lanewidth_graph(seq, key, rng)
                assert result.accepted
                accepted += 1
            else:
                with pytest.raises(ProverFailure):
                    certify_lanewidth_graph(seq, key, rng)
        # The family is generic enough that at least one positive occurs.
        assert accepted >= 1


class TestSoundness:
    def test_corruption_rejected(self):
        rng = random.Random(11)
        rejected = total = 0
        for _ in range(8):
            seq = random_lanewidth_sequence(3, 10, rng)
            config, scheme, labeling, _res = certify_lanewidth_graph(
                seq, "connected", rng
            )
            for _ in range(8):
                bad = corrupt_one_label(labeling, rng)
                if bad.mapping == labeling.mapping:
                    continue
                total += 1
                if not run_verification(config, scheme, bad).accepted:
                    rejected += 1
        # Nearly every mutation must be caught; the rare survivor is a
        # semantically redundant field on a *true* instance (documented).
        assert rejected >= total - 1

    def test_swap_and_drop_rejected(self):
        rng = random.Random(12)
        seq = random_lanewidth_sequence(3, 12, rng)
        config, scheme, labeling, _res = certify_lanewidth_graph(
            seq, "connected", rng
        )
        for attack in (swap_two_labels, drop_one_label):
            bad = attack(labeling, rng)
            if bad.mapping != labeling.mapping:
                assert not run_verification(config, scheme, bad).accepted

    def test_disconnecting_removal_rejected(self):
        rng = random.Random(13)
        caught = tampered = 0
        for _ in range(12):
            seq = random_lanewidth_sequence(3, 10, rng)
            config, scheme, labeling, _res = certify_lanewidth_graph(
                seq, "connected", rng
            )
            for u, v in config.graph.edges():
                g2 = config.graph.copy()
                g2.remove_edge(u, v)
                if g2.is_connected():
                    continue
                cfg2 = Configuration(g2, config.ids)
                mapping2 = {
                    key: value
                    for key, value in labeling.mapping.items()
                    if g2.has_edge(*key)
                }
                lab2 = Labeling("edges", mapping2, labeling.size_context)
                tampered += 1
                if not run_verification(cfg2, scheme, lab2).accepted:
                    caught += 1
        assert tampered > 0 and caught == tampered

    def test_cycle_creating_addition_rejected(self):
        rng = random.Random(14)
        caught = tampered = 0
        for _ in range(10):
            seq = random_lanewidth_sequence(3, 10, rng, edge_probability=0.0)
            config, scheme, labeling, _res = certify_lanewidth_graph(
                seq, "acyclic", rng
            )
            g = config.graph
            non_edges = [
                (a, b)
                for a, b in itertools.combinations(g.vertices(), 2)
                if not g.has_edge(a, b)
            ]
            u, v = non_edges[rng.randrange(len(non_edges))]
            g2 = g.copy()
            g2.add_edge(u, v)
            cfg2 = Configuration(g2, config.ids)
            tampered += 1
            if not run_verification(cfg2, scheme, labeling).accepted:
                caught += 1
        assert caught == tampered

    def test_transplant_rejected(self):
        rng = random.Random(15)
        seq_a = random_lanewidth_sequence(3, 10, rng, edge_probability=0.0)
        config_a, scheme, labeling_a, _ = certify_lanewidth_graph(
            seq_a, "acyclic", rng
        )
        # A different graph with a cycle but the same edge count is hard to
        # hit exactly; instead transplant onto a cycle of matching size.
        cycle = cycle_graph(config_a.graph.m)
        config_b = Configuration.with_random_ids(cycle, rng)
        transplanted = transplant_labels(labeling_a, cycle.edges())
        if transplanted is not None:
            result = run_verification(config_b, scheme, transplanted)
            assert not result.accepted


class TestLabelSizes:
    def test_bits_grow_logarithmically(self):
        rng = random.Random(21)
        sizes = []
        for extra in (16, 64, 256):
            seq = random_lanewidth_sequence(3, extra, rng)
            _cfg, scheme, labeling, result = certify_lanewidth_graph(
                seq, "connected", rng
            )
            assert result.accepted
            sizes.append(labeling.max_label_bits(scheme))
        # 16x more vertices must not even double the label size.
        assert sizes[-1] <= 2 * sizes[0]

    def test_edge_to_vertex_transform(self):
        rng = random.Random(22)
        seq = random_lanewidth_sequence(2, 10, rng)
        graph = apply_construction(seq)
        config = Configuration.with_random_ids(graph, rng)
        base = LanewidthScheme("connected", seq)
        wrapped = EdgeToVertexScheme(base)
        labeling, result = prove_and_verify(config, wrapped)
        assert result.accepted
        assert labeling.location == "vertices"


# ----------------------------------------------------------------------
# The label builder: shared basic infos and the pointer BFS
# ----------------------------------------------------------------------
def _proven_context(mode: str, n: int, seed: int) -> PipelineContext:
    """Run a whole plan on one host; return the context it filled."""
    if mode == "lanewidth":
        sequence, graph = lanewidth_workload(3, n, seed)
        plan = lanewidth_plan(sequence)
    else:
        graph, decomposition = pathwidth_workload(n, 3, seed)
        plan = theorem1_plan(3, decomposer=lambda _g: decomposition)
    config = Configuration.with_random_ids(graph, random.Random(seed))
    ctx = PipelineContext(config=config, algebra="connected")
    PlanRunner().run(
        plan,
        ctx,
        {
            "graph": graph.fingerprint("edges"),
            "config": config_fingerprint(config),
            "algebra": algebra_source_key("connected")[0],
        },
    )
    return ctx


def _builder(ctx) -> CertificateBuilder:
    return CertificateBuilder(ctx.config, ctx.root, ctx.evaluation)


def _infos_by_role(labels) -> dict:
    """``(role, node_id) -> {id(BasicInfo)}`` over every record of every
    certificate, own or embedded; a member subtree's B(...) has its own
    role, since it names the member's node_id with other content."""
    seen: dict = {}

    def note(role, info):
        seen.setdefault((role, info.node_id), set()).add(id(info))

    for label in labels.values():
        certificates = [label.certificate] + [
            record.payload for record in label.embedded
        ]
        for certificate in certificates:
            for record in certificate.stack:
                note("node", record.info)
                if isinstance(record, TLevelRecord):
                    note("node", record.member_info)
                    note("subtree", record.member_subtree)
                    for child in record.child_subtrees:
                        note("subtree", child)
                elif isinstance(record, BLevelRecord):
                    note("node", record.left)
                    note("node", record.right)
    return seen


def _info_rows(table) -> list:
    """Every info row of ``table``, identifier codes and state id read
    back as values, so two tables compare whatever their numbering."""
    ids, states = table.id_values, table.state_reprs
    return [
        (
            kind, node, lanes,
            tuple([ids[code] for code in ins]),
            tuple([ids[code] for code in outs]),
            states[state],
        )
        for kind, node, lanes, ins, outs, state in zip(
            table.i_kind, table.i_node, table.i_lanes,
            table.i_in, table.i_out, table.i_state,
        )
    ]


def _label_values(labels) -> list:
    """Every distinct label value object reachable from ``labels``."""
    seen: dict = {}

    def visit(value):
        if id(value) in seen or not dataclasses.is_dataclass(value):
            return
        seen[id(value)] = value
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            for part in item if type(item) is tuple else (item,):
                visit(part)

    for label in labels:
        visit(label)
    return list(seen.values())


def _reference_pointer_labels(builder, t_node) -> dict:
    """The BFS over a ``Graph`` built from the T-node's subgraph."""
    subgraph = Graph(vertices=t_node.all_vertices())
    for key, _tag in t_node.all_edges():
        subgraph.add_edge(*key)
    root_member = t_node.children[t_node.root_member]
    target = root_member.t_in[min(root_member.lanes)]
    distances = subgraph.distances_from(target)
    return {
        edge_key(u, v): PointerLabel(
            target_id=builder.ids[target],
            id_a=builder.ids[u],
            dist_a=distances[u],
            id_b=builder.ids[v],
            dist_b=distances[v],
        )
        for u, v in subgraph.edges()
    }


class TestLabelBuilder:
    @pytest.mark.parametrize("mode", ["lanewidth", "theorem1"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_basic_info_per_hierarchy_node(self, mode, seed):
        ctx = _proven_context(mode, 64, seed)
        table = _builder(ctx).record_table(ctx.embedding)
        labels = table.materialize()
        seen = _infos_by_role(labels)
        assert all(len(ids) == 1 for ids in seen.values()), sorted(
            key for key, ids in seen.items() if len(ids) > 1
        )
        node_ids = {node.node_id for node in ctx.root.walk()}
        assert {node_id for role, node_id in seen if role == "node"} <= node_ids
        # The materialized labels carry the table's own info rows, one
        # per hierarchy node and per member subtree that some record
        # holds, and every record row sits on some stack.
        assert {i for ids in seen.values() for i in ids} == {
            id(info) for info in table.infos
        }
        assert {rid for stack in table.stacks for rid in stack} == set(
            range(len(table.records))
        )
        # The rows are the labels the plan encoded, read back from the
        # wire.
        assert labels == decode_labeling_columnar(
            ctx.labeling.mapping.encoded()
        ).materialize()

    @pytest.mark.parametrize("mode", ["lanewidth", "theorem1"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_info_rows_match_the_walk(self, mode, seed):
        """The prover writes one info row per hierarchy node and per
        member subtree, without a content index: exactly the rows the
        walk over the materialized labels writes, up to row order."""
        ctx = _proven_context(mode, 64, seed)
        table = _builder(ctx).record_table(ctx.embedding)
        labels = table.materialize()
        keys = list(labels)
        walked = RecordTable(keys, [labels[key] for key in keys])
        assert walked.bad is None
        assert sorted(_info_rows(table)) == sorted(_info_rows(walked))

    @settings(max_examples=25, deadline=None)
    @given(
        mode=st.sampled_from(["lanewidth", "theorem1"]),
        n=st.integers(8, 72),
        seed=st.integers(0, 10_000),
    )
    def test_pointer_labels_match_the_graph_bfs(self, mode, n, seed):
        ctx = _proven_context(mode, n, seed)
        builder = _builder(ctx)
        ids = builder.record_table(ctx.embedding).id_values
        t_nodes = [node for node in ctx.root.walk() if node.kind == "T"]
        assert t_nodes
        for node in t_nodes:
            root_member_id = node.children[node.root_member].node_id
            rows = builder._pointer_rows(node)
            assert {row[5] for row in rows.values()} == {root_member_id}
            pointers = {
                key: PointerLabel(
                    target_id=ids[target],
                    id_a=ids[id_a],
                    dist_a=dist_a,
                    id_b=ids[id_b],
                    dist_b=dist_b,
                )
                for key, (target, id_a, dist_a, id_b, dist_b, _root)
                in rows.items()
            }
            assert pointers == _reference_pointer_labels(builder, node)


#: Builds one of each label value class with string fields (kinds and
#: tags, whose hashes follow ``PYTHONHASHSEED``), hashes them all and
#: pickles them with this interpreter's ``hash("T")``.
_PICKLE_LABEL_VALUES = """
import pickle, sys
from repro.core.certificates import (
    BasicInfo, BLevelRecord, EdgeCertificate, ELevelRecord, EmbeddedRecord,
    PLevelRecord, Theorem1Label, TLevelRecord,
)
from repro.pls.pointer import PointerLabel
state = (((0, 1),), 0)
t_info = BasicInfo("T", 1, (0, 1), ((0, 5), (1, 6)), ((0, 7), (1, 8)), state)
b_info = BasicInfo("B", 2, (0, 1), ((0, 5), (1, 6)), ((0, 7), (1, 8)), state)
e_info = BasicInfo("E", 3, (0,), ((0, 5),), ((0, 7),), state)
p_info = BasicInfo("P", 4, (0, 1), ((0, 5), (1, 6)), ((0, 5), (1, 6)), state)
t = TLevelRecord(t_info, b_info, t_info, (t_info,), PointerLabel(5, 5, 0, 7, 1), 2)
b = BLevelRecord(b_info, t_info, t_info, (0, 1), "real", 0)
e = ELevelRecord(e_info, 5, 7, "virtual")
p = PLevelRecord(p_info, (5, 6), ("real",), 0)
cert = EdgeCertificate((t, b, e))
embedded = EmbeddedRecord(5, 6, 1, 1, EdgeCertificate((p,)))
label = Theorem1Label(cert, (embedded,))
values = [t_info, b_info, e_info, p_info, t, b, e, p, cert, embedded, label]
for value in values:
    hash(value)
sys.stdout.buffer.write(pickle.dumps((hash("T"), values)))
"""

#: Loads them under another ``PYTHONHASHSEED``: each must hash like an
#: equal object built here.
_CHECK_LABEL_VALUES = """
import dataclasses, pickle, sys
their_hash, values = pickle.loads(sys.stdin.buffer.read())
assert hash("T") != their_hash, "same string hashes: the check proves nothing"
for value in values:
    assert len({value, dataclasses.replace(value)}) == 1, type(value).__name__
print(len(values))
"""


class TestLabelValues:
    @staticmethod
    def _values() -> list:
        ctx = _proven_context("theorem1", 32, 1)
        labels = _builder(ctx).record_table(ctx.embedding).materialize()
        values = _label_values(labels.values())
        kinds = {type(value) for value in values}
        assert {BasicInfo, TLevelRecord, BLevelRecord, EdgeCertificate,
                EmbeddedRecord, Theorem1Label} <= kinds
        return values

    def test_hash_and_equality_are_the_generated_ones(self):
        """The kept hash has the generated ``__hash__``'s value (the hash
        of the field tuple), a field-equal copy equals and hashes alike,
        and a copy with one field changed is not equal."""
        for value in self._values():
            fields = dataclasses.fields(value)
            assert hash(value) == hash(
                tuple([getattr(value, field.name) for field in fields])
            )
            assert value == value
            twin = dataclasses.replace(value)
            assert twin is not value and twin == value
            assert hash(twin) == hash(value)
            if isinstance(value, BasicInfo):
                other = dataclasses.replace(value, node_id=value.node_id + 1)
                assert other != value and value != other

    def test_pickles_and_copies_hold_the_fields_alone(self):
        for value in self._values():
            hash(value)
            names = {field.name for field in dataclasses.fields(value)}
            assert set(value.__getstate__()) == names
            for copy in (pickle.loads(pickle.dumps(value)),):
                assert set(copy.__dict__) == names
                assert copy == value and hash(copy) == hash(value)

    def test_kept_hash_stays_in_its_process(self):
        """A label value hashed, pickled and loaded under another
        ``PYTHONHASHSEED`` hashes like an equal object built there.  A
        hash kept in the pickle would break ``len(roots) == 1`` in the
        round for honest labels read from another process."""
        # src/repro/core/certificates.py -> src
        src = str(Path(sys.modules[BasicInfo.__module__].__file__).parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [part for part in [env.get("PYTHONPATH")] if part]
        )
        made = subprocess.run(
            [sys.executable, "-c", _PICKLE_LABEL_VALUES],
            env=dict(env, PYTHONHASHSEED="1"),
            capture_output=True,
            check=True,
        )
        checked = subprocess.run(
            [sys.executable, "-c", _CHECK_LABEL_VALUES],
            env=dict(env, PYTHONHASHSEED="2"),
            input=made.stdout,
            capture_output=True,
        )
        assert checked.returncode == 0, checked.stderr.decode()
        assert checked.stdout.decode().strip() == "11"
