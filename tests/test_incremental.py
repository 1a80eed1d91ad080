"""Tests for edit-batch recertification (repro.incremental + graph edits).

The acceptance contract of the incremental subsystem:

* **strict edits** — batches are declarative, canonical on the wire,
  and all-or-nothing against the base graph;
* **one witness policy** — every update certifies the evolved graph
  through the session's decompose policy: the pinned witness for the
  base graph's identity, the default decomposer for every other;
* **incremental ≡ cold** — after any stream of edit batches, the
  incremental report matches a cold certification of the evolved graph
  under that policy: verdict, measured encoded bits, class counts —
  refusals included;
* **identifiers pinned** — drawn once, kept through refusals, and a
  refused stream recovers with one certification and a full round;
* **region ≡ full** — the dirty-region verdict equals the full-round
  verdict on honest updates, and rejects forged/stale certificates in
  the dirty region exactly like a full round (AuditPlan campaign);
* **observability** — certifier/store/service counters (updates,
  artifacts_reused, region and full rounds, refusals) stay truthful.
"""
import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AdversarialInstance,
    AuditAttack,
    AuditCase,
    AuditPlan,
    CertificationSession,
    DecomposeStage,
    MutationAttack,
    VerificationEngine,
    witness_decomposer,
)
from repro.graphs import Edit, EditBatch, EditError, apply_edits
from repro.graphs.edits import (
    add_edge,
    remove_edge,
    set_edge_label,
    set_vertex_label,
)
from repro.graphs.generators import (
    caterpillar_graph,
    path_graph,
    random_pathwidth_graph,
)
from repro.incremental import DirtyRegionExecutor, IncrementalCertifier
from repro.pathwidth import PathDecomposition
from repro.pls.model import Configuration
from repro.service import CertificationService, ServiceConfig, graph_to_wire


# ----------------------------------------------------------------------
# Shared builders.
# ----------------------------------------------------------------------
def _instance(n, k, seed):
    """A random pathwidth-<=k graph plus its witness decomposition."""
    graph, bags = random_pathwidth_graph(n, k, random.Random(seed))
    return graph, PathDecomposition(graph, bags)


def _certifier(graph, decomposition, k=2, properties=("connected",), **kw):
    return IncrementalCertifier(
        graph,
        list(properties),
        k=k,
        decomposer=witness_decomposer(decomposition),
        rng=random.Random(7),
        **kw,
    )


def _still_connected(graph, u, v):
    probe = graph.copy()
    probe.remove_edge(u, v)
    return probe.is_connected()


def _random_batch(graph, rng, size=None, structural_ok=True):
    """One applicable batch drawn against the *current* graph state."""
    edits = []
    state = graph.copy()
    for _ in range(size or rng.randint(1, 3)):
        kinds = ["set_vertex_label"]
        edges = sorted(state.edges(), key=repr)
        if structural_ok and edges:
            kinds.append("remove_edge")
            kinds.append("set_edge_label")
        vertices = sorted(state.vertices())
        spare = [
            (u, v)
            for i, u in enumerate(vertices)
            for v in vertices[i + 1:]
            if not state.has_edge(u, v)
        ]
        if structural_ok and spare:
            kinds.append("add_edge")
        kind = rng.choice(kinds)
        if kind == "add_edge":
            u, v = rng.choice(spare)
            edits.append(add_edge(u, v))
            state.add_edge(u, v)
        elif kind == "remove_edge":
            u, v = rng.choice(edges)
            edits.append(remove_edge(u, v))
            state.remove_edge(u, v)
        elif kind == "set_edge_label":
            u, v = rng.choice(edges)
            edits.append(set_edge_label(u, v, rng.randint(0, 5)))
            state.set_edge_label(u, v, rng.randint(0, 5))
        else:
            v = rng.choice(vertices)
            edits.append(set_vertex_label(v, rng.randint(0, 5)))
            state.set_vertex_label(v, rng.randint(0, 5))
    return EditBatch(edits)


# ----------------------------------------------------------------------
# Edits: validation, wire form, strict application.
# ----------------------------------------------------------------------
class TestEdits:
    def test_kind_validation(self):
        with pytest.raises(EditError):
            Edit("grow_vertex", 1, 2)
        with pytest.raises(EditError):
            Edit("add_edge", 1)  # needs both endpoints

    def test_wire_roundtrip(self):
        batch = EditBatch(
            [
                add_edge(1, 2),
                add_edge(3, 4, label="t"),
                remove_edge(5, 6),
                set_vertex_label(7, "m"),
                set_edge_label(8, 9, 2),
            ]
        )
        assert EditBatch.from_wire(batch.to_wire()) == batch
        assert batch.to_wire()[1] == ["add_edge", 3, 4, "t"]

    def test_malformed_wire(self):
        with pytest.raises(EditError):
            EditBatch.from_wire([["add_edge", 1]])
        with pytest.raises(EditError):
            EditBatch.from_wire([["set_vertex_label", 1]])
        with pytest.raises(EditError):
            EditBatch.from_wire("not-a-list")

    def test_classification(self):
        batch = EditBatch([add_edge(1, 2), set_vertex_label(3, "x")])
        assert [e.kind for e in batch.structural()] == ["add_edge"]
        assert not batch.vertex_labels_only()
        assert not batch.relabels_edges()
        assert EditBatch([add_edge(1, 2, label="t")]).relabels_edges()
        labels = EditBatch([set_vertex_label(1, "a"), set_vertex_label(2, "b")])
        assert labels.vertex_labels_only()
        assert batch.touched_vertices() == {1, 2, 3}

    def test_apply_is_strict_and_copying(self):
        graph = path_graph(4)
        with pytest.raises(EditError, match="already present"):
            apply_edits(graph, EditBatch([add_edge(0, 1)]))
        with pytest.raises(EditError, match="not in graph"):
            apply_edits(graph, EditBatch([remove_edge(0, 2)]))
        with pytest.raises(EditError, match="endpoint"):
            apply_edits(graph, EditBatch([add_edge(0, 99)]))
        with pytest.raises(EditError, match="self-loop"):
            apply_edits(graph, EditBatch([add_edge(2, 2)]))
        # All-or-nothing: the valid prefix must not leak onto the base.
        batch = EditBatch([add_edge(0, 2), remove_edge(0, 9)])
        with pytest.raises(EditError, match="edit #1"):
            apply_edits(graph, batch)
        assert not graph.has_edge(0, 2)

    def test_apply_order_within_batch(self):
        graph = path_graph(4)
        out = apply_edits(
            graph, EditBatch([add_edge(0, 2), set_edge_label(0, 2, "new")])
        )
        assert out.edge_label(0, 2) == "new"
        assert not graph.has_edge(0, 2)  # base untouched


# ----------------------------------------------------------------------
# Dirty-region executor.
# ----------------------------------------------------------------------
class TestDirtyRegionExecutor:
    def _case(self, seed=2):
        graph, decomposition = _instance(14, 2, seed)
        inc = _certifier(graph, decomposition)
        base = inc.baseline()
        return inc, base.reports["connected"]

    def test_region_grows_by_hops(self):
        graph = path_graph(9)
        executor = DirtyRegionExecutor(frontier_hops=0)
        assert executor.region_for(graph, {4}) == {4}
        assert DirtyRegionExecutor(frontier_hops=1).region_for(
            graph, {4}
        ) == {3, 4, 5}
        assert DirtyRegionExecutor(frontier_hops=2).region_for(
            graph, {4}
        ) == {2, 3, 4, 5, 6}
        # Vertices not in the graph are ignored, not crashed on.
        assert DirtyRegionExecutor().region_for(graph, {99}) == set()

    def test_honest_region_accepts(self):
        _inc, report = self._case()
        executor = DirtyRegionExecutor()
        region = executor.verify_region(
            report.config, report.scheme, report.labeling, {0, 1}
        )
        assert region.accepted and region.mode == "region"
        assert 0 < region.region_size <= report.config.n

    def test_forged_certificate_in_region_rejected(self):
        _inc, report = self._case()
        mapping = dict(report.labeling.mapping)
        edge = sorted(mapping, key=repr)[0]
        mapping[edge] = None  # drop one certificate
        forged = type(report.labeling)(
            report.labeling.location, mapping, report.labeling.size_context
        )
        executor = DirtyRegionExecutor()
        region = executor.verify_region(
            report.config, report.scheme, forged, set(edge)
        )
        assert not region.accepted
        assert region.rejections

    def test_full_round_escape_hatch(self):
        _inc, report = self._case()
        executor = DirtyRegionExecutor()
        full = executor.full_round(report.config, report.scheme, report.labeling)
        assert full.accepted and full.mode == "full"
        assert full.region_size == report.config.n
        assert full.full_report is not None


# ----------------------------------------------------------------------
# The incremental certifier: equivalence with cold certification.
# ----------------------------------------------------------------------
def _cold_facts(inc, base_graph, decomposition, properties=("connected",)):
    """Cold-certify the certifier's current state under its witness rule.

    The pinned witness ``decomposition`` certifies ``base_graph``'s
    identity; every other identity gets the default decomposer.
    """
    pinned = inc.graph.fingerprint("edges") == base_graph.fingerprint("edges")
    session = CertificationSession(
        k=inc.k,
        decomposer=witness_decomposer(decomposition) if pinned else None,
    )
    facts = {}
    for key, report in session.certify(
        inc.config, list(properties), verify=True
    ).items():
        facts[key] = {
            "refused": report.refused,
            "accepted": report.accepted,
            "class_count": report.class_count,
            "total_bits": report.total_label_bits,
            "max_bits": report.max_label_bits,
        }
    return facts


def _incremental_facts(report):
    return {
        key: {
            "refused": rep.refused,
            "accepted": rep.accepted,
            "class_count": rep.class_count,
            "total_bits": rep.total_label_bits,
            "max_bits": rep.max_label_bits,
        }
        for key, rep in report.reports.items()
    }


class TestIncrementalCertifier:
    def test_baseline_then_label_only_reuses_everything(self):
        graph, decomposition = _instance(18, 2, seed=11)
        inc = _certifier(graph, decomposition)
        base = inc.baseline()
        assert base.accepted and base.mode == "baseline"
        report = inc.update(EditBatch([set_vertex_label(2, "hot")]))
        assert report.accepted and report.mode == "region"
        assert report.stages_run == 0  # the whole chain resolved
        assert report.artifacts_reused == 6
        assert inc.metrics.updates == 1

    def test_relabel_counts_each_structural_node_once(self):
        graph, decomposition = _instance(18, 2, seed=11)
        inc = _certifier(
            graph, decomposition, properties=("connected", "even-order")
        )
        inc.baseline()
        report = inc.update(EditBatch([set_vertex_label(2, "hot")]))
        assert report.stages_run == 0
        # Four structural nodes, then evaluate and label per property.
        assert report.artifacts_reused == 4 + 2 * 2

    def test_refused_update_reuses_nothing(self):
        # The 6-cycle exceeds k=1: decompose runs, refuses, and no node
        # comes from the cache.
        inc = IncrementalCertifier(
            path_graph(6), ["connected"], k=1, rng=random.Random(7)
        )
        inc.baseline()
        report = inc.update(EditBatch([add_edge(0, 5)]))
        assert report.reports["connected"].refusal_reason == "width"
        assert report.stages_run == 1
        assert report.artifacts_reused == 0
        assert inc.metrics.artifacts_reused == 0

    def test_update_auto_baselines(self):
        graph, decomposition = _instance(12, 2, seed=12)
        inc = _certifier(graph, decomposition)
        report = inc.update(EditBatch([set_vertex_label(1, "x")]))
        assert report.accepted and inc.baselined

    def test_empty_batch_rejected(self):
        graph, decomposition = _instance(10, 2, seed=13)
        inc = _certifier(graph, decomposition)
        with pytest.raises(ValueError, match="non-empty"):
            inc.update(EditBatch([]))

    def test_failed_edit_leaves_state_untouched(self):
        graph, decomposition = _instance(10, 2, seed=14)
        inc = _certifier(graph, decomposition)
        inc.baseline()
        before = inc.graph.fingerprint()
        with pytest.raises(EditError):
            inc.update(EditBatch([remove_edge(0, 999)]))
        assert inc.graph.fingerprint() == before
        assert inc.metrics.updates == 0  # a refused batch is not an update

    def test_periodic_full_round(self):
        graph, decomposition = _instance(14, 2, seed=15)
        inc = _certifier(graph, decomposition, full_round_every=2)
        inc.baseline()
        first = inc.update(EditBatch([set_vertex_label(0, 1)]))
        second = inc.update(EditBatch([set_vertex_label(1, 1)]))
        third = inc.update(EditBatch([set_vertex_label(2, 1)]))
        assert [r.mode for r in (first, second, third)] == [
            "region",
            "full",
            "region",
        ]
        assert inc.metrics.full_rounds == 1

    def test_disconnecting_edit_refuses_and_recovers(self):
        graph = path_graph(8)
        bags = [[i, i + 1] for i in range(7)]
        inc = _certifier(graph, PathDecomposition(graph, bags))
        inc.baseline()
        cut = inc.update(EditBatch([remove_edge(3, 4)]))
        assert not cut.accepted
        assert cut.refusals  # the prover refused the disconnected graph
        healed = inc.update(EditBatch([add_edge(3, 4)]))
        assert healed.accepted

    def test_refused_fallback_rebaselines_on_next_update(self):
        # A refused state keeps the stream's identifiers; the healing
        # update is one certification (resolved from the cache, since
        # the base identity returns) checked by a full round.
        graph = path_graph(6)
        bags = [[i, i + 1] for i in range(5)]
        inc = _certifier(graph, PathDecomposition(graph, bags), k=1)
        inc.baseline()
        ids = dict(inc.config.ids)
        grow = inc.update(EditBatch([add_edge(0, 5)]))  # pathwidth 2 > k
        assert not grow.accepted
        assert grow.reports["connected"].refusal_reason == "width"
        assert inc.baselined and dict(inc.config.ids) == ids
        healed = inc.update(EditBatch([remove_edge(0, 5)]))
        assert healed.accepted and healed.mode == "full"
        assert healed.rounds["connected"].mode == "full"
        assert healed.stages_run == 0
        assert dict(inc.config.ids) == ids
        assert inc.metrics.full_rounds == 1

    def test_structural_update_certifies_on_the_default_witness(
        self, monkeypatch
    ):
        default = DecomposeStage.default_decomposer
        witnesses = {}

        def recording(stage, target):
            witness, stats = default(stage, target)
            witnesses[target.fingerprint("edges")] = witness.bags
            return witness, stats

        monkeypatch.setattr(DecomposeStage, "default_decomposer", recording)
        graph, decomposition = _instance(20, 2, seed=18)
        inc = _certifier(graph, decomposition)
        inc.baseline()
        assert not witnesses  # the base graph certifies on its pinned witness
        u, v = next(
            (a, b)
            for a, b in sorted(graph.edges(), key=repr)
            if _still_connected(graph, a, b)
        )
        report = inc.update(EditBatch([remove_edge(u, v)]))
        assert report.accepted
        expected, _stats = default(DecomposeStage(inc.k), inc.graph)
        assert witnesses[inc.graph.fingerprint("edges")] == expected.bags

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=18),
        seed=st.integers(min_value=0, max_value=10_000),
        batches=st.integers(min_value=1, max_value=3),
    )
    def test_incremental_equals_cold(self, n, seed, batches):
        """Verdict, measured bits, and class counts match a cold run."""
        rng = random.Random(seed)
        graph, decomposition = _instance(n, 2, seed)
        inc = _certifier(graph, decomposition)
        inc.baseline()
        engine = VerificationEngine()
        report = None
        for _ in range(batches):
            batch = _random_batch(inc.graph, rng)
            report = inc.update(batch)
            for key, prop_report in report.reports.items():
                if prop_report.refused:
                    continue
                # Region verdict ≡ full-round verdict, every step.
                full = engine.verify(
                    prop_report.config,
                    prop_report.scheme,
                    prop_report.labeling,
                )
                assert report.rounds[key].accepted == full.accepted
        assert _incremental_facts(report) == _cold_facts(
            inc, graph, decomposition
        )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_label_only_equals_cold_bit_for_bit(self, seed):
        graph, decomposition = _instance(14, 2, seed)
        inc = _certifier(graph, decomposition)
        inc.baseline()
        rng = random.Random(seed)
        report = inc.update(_random_batch(inc.graph, rng, structural_ok=False))
        assert report.stages_run == 0
        assert _incremental_facts(report) == _cold_facts(
            inc, graph, decomposition
        )


# ----------------------------------------------------------------------
# Adversarial edit campaign: reuse never degrades soundness.
# ----------------------------------------------------------------------
class StaleRetentionAttack(AuditAttack):
    """Edit the graph, keep the pre-edit certificates verbatim.

    ``mode='add'`` splices an uncertified edge in; ``mode='remove'``
    deletes a certified edge (choosing one that keeps the graph
    connected, so acceptance would be a pure soundness failure rather
    than a true 'property now false' outcome).
    """

    def __init__(self, mode: str):
        self.mode = mode
        self.name = f"stale-{mode}"

    def instances(self, case, rng):
        graph = case.config.graph
        if self.mode == "add":
            vertices = sorted(graph.vertices())
            spare = [
                (u, v)
                for i, u in enumerate(vertices)
                for v in vertices[i + 1:]
                if not graph.has_edge(u, v)
            ]
            if not spare:
                yield None
                return
            u, v = rng.choice(spare)
            edited = apply_edits(graph, EditBatch([add_edge(u, v)]))
        else:
            candidates = []
            for u, v in sorted(graph.edges(), key=repr):
                probe = graph.copy()
                probe.remove_edge(u, v)
                if probe.is_connected():
                    candidates.append((u, v))
            if not candidates:
                yield None
                return
            u, v = rng.choice(candidates)
            edited = apply_edits(graph, EditBatch([remove_edge(u, v)]))
        yield AdversarialInstance(
            Configuration(edited, case.config.ids),
            case.labeling,
            note=f"{self.mode} {{{u}, {v}}} with stale certificates",
        )


class TestAdversarialEditCampaign:
    def test_stale_certificates_rejected(self):
        def case_factory(trial, rng):
            graph, bags = random_pathwidth_graph(14, 2, rng)
            inc = IncrementalCertifier(
                graph,
                ["connected"],
                k=2,
                decomposer=witness_decomposer(PathDecomposition(graph, bags)),
                rng=rng,
            )
            report = inc.baseline().reports["connected"]
            return AuditCase(report.config, report.scheme, report.labeling, trial)

        plan = AuditPlan(
            case_factory,
            [
                StaleRetentionAttack("add"),
                StaleRetentionAttack("remove"),
                MutationAttack(per_case=2),
            ],
            trials=5,
            root_seed=12,
            name="incremental-audit",
        )
        report = plan.run()
        assert report.all_rejected, report.summary()
        assert report.tally("stale-add").attempted >= 4
        assert report.tally("stale-remove").attempted >= 4

    def test_region_round_rejects_stale_certificates(self):
        """The incremental round itself (not just a full round) rejects."""
        graph, decomposition = _instance(14, 2, seed=21)
        inc = _certifier(graph, decomposition)
        report = inc.baseline().reports["connected"]
        vertices = sorted(graph.vertices())
        u, v = next(
            (a, b)
            for i, a in enumerate(vertices)
            for b in vertices[i + 1:]
            if not graph.has_edge(a, b)
        )
        edited = apply_edits(graph, EditBatch([add_edge(u, v)]))
        region = DirtyRegionExecutor().verify_region(
            Configuration(edited, report.config.ids),
            report.scheme,
            report.labeling,
            {u, v},
        )
        assert not region.accepted


# ----------------------------------------------------------------------
# Metrics plumbing: certifier -> store -> service.
# ----------------------------------------------------------------------
class TestIncrementalMetrics:
    def test_store_counters(self, tmp_path):
        from repro.api import CertificateStore

        store = CertificateStore(tmp_path / "store")
        graph, decomposition = _instance(12, 2, seed=31)
        inc = _certifier(graph, decomposition, store=store)
        inc.baseline()
        inc.update(EditBatch([set_vertex_label(0, "m")]))
        u, v = sorted(inc.graph.edges(), key=repr)[0]
        inc.update(EditBatch([remove_edge(u, v)]))
        # Reuse is counted once, on the certifier; the store counts only
        # its own work.
        snapshot = inc.metrics.to_dict()
        assert snapshot["updates"] == 2
        assert snapshot["artifacts_reused"] >= 6
        assert snapshot["region_rounds"] == 2
        assert "updates" not in store.metrics.snapshot()
        assert "incremental" not in store.stats()
        assert store.metrics.snapshot()["saves"] >= 1

    def test_certifier_metrics_to_dict(self):
        graph, decomposition = _instance(10, 2, seed=32)
        inc = _certifier(graph, decomposition)
        inc.baseline()
        inc.update(EditBatch([set_vertex_label(0, 1)]))
        snap = inc.metrics.to_dict()
        assert snap == {
            "updates": 1,
            "artifacts_reused": 6,
            "region_rounds": 1,
            "full_rounds": 0,
        }


# ----------------------------------------------------------------------
# The service update op.
# ----------------------------------------------------------------------
def _service(tmp_path, **overrides):
    config = ServiceConfig(store_root=tmp_path / "store", **overrides)
    return CertificationService(config)


class TestServiceUpdateOp:
    def test_bootstrap_evolve_and_metrics(self, tmp_path):
        service = _service(tmp_path)
        graph = caterpillar_graph(10, 2)

        async def scenario():
            boot = await service.handle(
                {
                    "id": 1,
                    "op": "update",
                    "graph": graph_to_wire(graph),
                    "properties": ["connected"],
                }
            )
            assert boot["ok"], boot
            fingerprint = boot["result"]["fingerprint"]
            assert boot["result"]["baseline"]["mode"] == "baseline"
            assert boot["result"]["baseline"]["accepted"]
            assert boot["result"]["update"] is None

            evolved = await service.handle(
                {
                    "id": 2,
                    "op": "update",
                    "fingerprint": fingerprint,
                    "properties": ["connected"],
                    "edits": [["set_vertex_label", 3, "hot"]],
                }
            )
            assert evolved["ok"], evolved
            body = evolved["result"]["update"]
            assert body["accepted"] and body["mode"] == "region"
            assert body["stages_run"] == 0  # full artifact reuse
            assert evolved["result"]["fingerprint"] != fingerprint

            structural = await service.handle(
                {
                    "id": 3,
                    "op": "update",
                    "fingerprint": evolved["result"]["fingerprint"],
                    "properties": ["connected"],
                    "edits": [["add_edge", 0, 2]],
                }
            )
            assert structural["ok"], structural
            assert structural["result"]["update"]["accepted"]

            metrics = await service.handle({"id": 4, "op": "metrics"})
            return boot, metrics["result"]

        _boot, snapshot = asyncio.run(scenario())
        assert set(snapshot["incremental"]) == {"updates", "artifacts_reused"}
        assert snapshot["incremental"]["updates"] == 2
        assert snapshot["incremental"]["artifacts_reused"] >= 6
        assert "incremental" not in snapshot["store"]
        assert "updates" not in snapshot["store_metrics"]
        service.close_blocking()

    def test_refused_stream_heals_without_rebaseline(self, tmp_path):
        service = _service(tmp_path)

        async def scenario():
            request = {"op": "update", "properties": ["connected"], "k": 1}
            grow = await service.handle(
                dict(
                    request,
                    id=1,
                    graph=graph_to_wire(path_graph(6)),
                    edits=[["add_edge", 0, 5]],
                )
            )
            heal = await service.handle(
                dict(
                    request,
                    id=2,
                    fingerprint=grow["result"]["fingerprint"],
                    edits=[["remove_edge", 0, 5]],
                )
            )
            metrics = await service.handle({"id": 3, "op": "metrics"})
            return grow, heal, metrics["result"]

        grow, heal, snapshot = asyncio.run(scenario())
        service.close_blocking()
        assert grow["ok"] and heal["ok"], (grow, heal)
        assert grow["result"]["baseline"]["accepted"]
        assert not grow["result"]["update"]["accepted"]
        assert heal["result"]["baseline"] is None
        body = heal["result"]["update"]
        assert body["accepted"] and body["mode"] == "full"
        assert body["rounds"]["connected"]["mode"] == "full"
        assert snapshot["refusals"] == {"width": 1}
        assert snapshot["prover_runs"] == 1

    def test_stale_and_malformed_addressing(self, tmp_path):
        service = _service(tmp_path)
        graph = caterpillar_graph(8, 1)

        async def scenario():
            boot = await service.handle(
                {
                    "id": 1,
                    "op": "update",
                    "graph": graph_to_wire(graph),
                    "properties": ["connected"],
                }
            )
            fingerprint = boot["result"]["fingerprint"]
            await service.handle(
                {
                    "id": 2,
                    "op": "update",
                    "fingerprint": fingerprint,
                    "properties": ["connected"],
                    "edits": [["set_vertex_label", 0, "x"]],
                }
            )
            stale = await service.handle(
                {
                    "id": 3,
                    "op": "update",
                    "fingerprint": fingerprint,  # one state behind now
                    "properties": ["connected"],
                    "edits": [["set_vertex_label", 1, "y"]],
                }
            )
            missing = await service.handle(
                {
                    "id": 4,
                    "op": "update",
                    "fingerprint": "no-such-state",
                    "properties": ["connected"],
                    "edits": [["set_vertex_label", 1, "y"]],
                }
            )
            malformed = await service.handle(
                {
                    "id": 5,
                    "op": "update",
                    "fingerprint": fingerprint,
                    "properties": ["connected"],
                    "edits": [["explode", 1]],
                }
            )
            no_edits = await service.handle(
                {
                    "id": 6,
                    "op": "update",
                    "fingerprint": fingerprint,
                    "properties": ["connected"],
                }
            )
            return stale, missing, malformed, no_edits

        stale, missing, malformed, no_edits = asyncio.run(scenario())
        assert not stale["ok"] and "no incremental state" in stale["error"]
        assert not missing["ok"]
        assert not malformed["ok"] and "malformed edits" in malformed["error"]
        assert not no_edits["ok"] and "non-empty" in no_edits["error"]
        service.close_blocking()

    def test_identical_updates_coalesce(self, tmp_path):
        service = _service(tmp_path)
        graph = caterpillar_graph(8, 1)

        async def scenario():
            boot = await service.handle(
                {
                    "id": 1,
                    "op": "update",
                    "graph": graph_to_wire(graph),
                    "properties": ["connected"],
                }
            )
            fingerprint = boot["result"]["fingerprint"]
            request = {
                "op": "update",
                "fingerprint": fingerprint,
                "properties": ["connected"],
                "edits": [["set_vertex_label", 2, "hot"]],
            }
            first, second = await asyncio.gather(
                service.handle(dict(request, id=2)),
                service.handle(dict(request, id=3)),
            )
            return first, second

        first, second = asyncio.run(scenario())
        assert first["ok"] and second["ok"]
        # One of the two was served by the other's computation.
        assert first["meta"]["coalesced"] or second["meta"]["coalesced"]
        assert service.metrics.updates == 1  # the batch applied once
        service.close_blocking()
