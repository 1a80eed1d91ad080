"""Tests for the repro.api facade, pipeline stages, and sessions.

Covers the prover failure paths as structured reports, the session's
structural-artifact cache (stage counters must show decompose/lanes/
hierarchy running exactly once per graph), fingerprint caching in the
lanewidth matcher, and the decomposition stage's parameter checks.
"""

import json
import random

import pytest

import repro.api.pipeline as pipeline_module
from repro.api import (
    CertificateStore,
    CertificationReport,
    CertificationSession,
    DecomposeStage,
    EvaluateStage,
    LabelStage,
    MatchSequenceStage,
    PipelineContext,
    PlanRunner,
    SerialExecutor,
    VerificationEngine,
    certify,
    make_executor,
    theorem1_plan,
)
from repro.core import (
    LanewidthScheme,
    Theorem1Scheme,
    apply_construction,
    f_bound,
    h_bound,
    random_lanewidth_sequence,
)
from repro.experiments import lanewidth_workload, pathwidth_workload
from repro.graphs import Graph
from repro.graphs.generators import (
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_pathwidth_graph,
)
from repro.mso.properties import is_bipartite
from repro.pathwidth import PathDecomposition
from repro.pls.model import Configuration
from repro.pls.scheme import ProverFailure
from repro.pls.simulator import run_verification


STRUCTURAL = ("decompose", "lanes", "completion", "hierarchy")


class _FirstDraw(random.Random):
    """Draws ``first`` as its first identifier, then random ones."""

    def __init__(self, first):
        super().__init__(0)
        self._first = first

    def randrange(self, *args, **kwargs):
        if self._first is not None:
            first, self._first = self._first, None
            return first
        return super().randrange(*args, **kwargs)


class TestProverFailureReports:
    def test_single_vertex_refused(self):
        report = certify(Graph(vertices=[0]), "connected", k=1)
        assert report.refused and not report.accepted
        assert "two vertices" in report.refusal
        assert report.refusal_reason == "too-small"

    def test_disconnected_refused(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        report = certify(g, "connected", k=1)
        assert report.refused
        assert "connected" in report.refusal
        assert report.refusal_reason == "disconnected"

    def test_width_over_bound_refused(self):
        report = certify(complete_graph(6), "connected", k=1)
        assert report.refused
        assert "witness decomposition" in report.refusal
        assert report.refusal_reason == "width"
        # Structural refusals keep the timings of the stages that ran.
        assert [t.name for t in report.stage_timings] == ["decompose"]

    def test_property_false_at_root_refused(self):
        report = certify(cycle_graph(7), "bipartite", k=2)
        assert report.refused
        assert "does not hold" in report.refusal
        assert report.refusal_reason == "false"
        # The structural work succeeded; only evaluation refused.
        assert report.hierarchy_depth is not None
        assert report.stage_seconds("evaluate") >= 0.0

    def test_algebra_capacity_limit_refused(self):
        """A table algebra past its boundary-arity cap is a capacity
        limit of the prover: the report refuses with the algebra's own
        message instead of raising out of the session."""
        sequence, _graph = lanewidth_workload(3, 64, 1)
        report = CertificationSession().certify(sequence, "colorable-3")
        assert report.refused and not report.accepted
        assert "boundary arity <= 8 (got 9)" in report.refusal
        assert report.refusal_reason == "unsupported"
        # The structural work succeeded; only evaluation refused.
        assert report.hierarchy_depth is not None
        assert report.stage_counters["evaluate"] == 1

    @pytest.mark.parametrize("mode", ["theorem1", "lanewidth"])
    def test_identifier_past_the_wire_range_refused(self, mode, tmp_path):
        """An identifier the wire format cannot carry (|x| >= 2**60) is a
        capacity limit of the prover: the label stage refuses it as
        ``unsupported`` instead of raising the codec's error out of the
        facade, and nothing is cached or stored."""
        big = 2**60 + 5
        if mode == "theorem1":
            graph, _decomposition = pathwidth_workload(20, 2, 1)
            ids = {v: i + 1 for i, v in enumerate(graph.vertices())}
            ids[graph.vertices()[0]] = big
            target = Configuration(graph, ids)
        else:
            target, _graph = lanewidth_workload(2, 20, 1)

        def draws():  # the first identifier drawn is the huge one
            return None if mode == "theorem1" else _FirstDraw(big)

        report = certify(target, "connected", k=2, rng=draws())
        assert report.refused and not report.accepted
        assert report.refusal_reason == "unsupported"
        assert f"identifier {big}" in report.refusal
        store = CertificateStore(tmp_path)
        session = CertificationSession(k=2, store=store)
        for attempt in (1, 2):
            report = session.certify(target, "connected", rng=draws())
            assert report.refusal_reason == "unsupported"
            assert session.stage_counters["label"] == attempt
        assert store.entries() == []

    def test_structural_refusal_covers_whole_batch(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        reports = certify(g, ["connected", "acyclic", "even-order"], k=1)
        assert set(reports) == {"connected", "acyclic", "even-order"}
        assert all(r.refused for r in reports.values())
        assert {r.refusal_reason for r in reports.values()} == {"disconnected"}

    def test_refusal_reason_serializes_only_when_set(self):
        refused = certify(complete_graph(6), "connected", k=1)
        data = refused.to_dict()
        assert data["refusal_reason"] == "width"
        assert CertificationReport.from_dict(data).refusal_reason == "width"
        accepted = certify(path_graph(6), "connected", k=1)
        assert "refusal_reason" not in accepted.to_dict()

    def test_legacy_scheme_still_raises(self):
        scheme = Theorem1Scheme("connected", 1)
        config = Configuration.with_random_ids(
            complete_graph(6), random.Random(3)
        )
        with pytest.raises(ProverFailure):
            scheme.prove(config)


class TestSessionCaching:
    def test_batch_runs_structural_stages_once(self):
        rng = random.Random(40)
        graph = caterpillar_graph(4, 2)  # a tree: all four properties hold
        session = CertificationSession(k=1, rng=rng)
        properties = ["connected", "acyclic", "bipartite", "even-order"]
        reports = session.certify(graph, properties)
        assert len(reports) == 4
        for report in reports.values():
            assert report.accepted, report.summary()
            for name in STRUCTURAL:
                assert report.stage_counters[name] == 1
        assert session.stage_counters["evaluate"] == 4
        assert session.stage_counters["label"] == 4

    def test_second_certify_hits_cache(self):
        rng = random.Random(41)
        graph, bags = random_pathwidth_graph(18, 2, rng)
        decomposition = PathDecomposition(graph, bags)
        session = CertificationSession(
            k=2, decomposer=lambda _g: decomposition, rng=rng
        )
        first = session.certify(graph, "connected")
        assert not first.structure_cached
        second = session.certify(graph, "even-order")
        assert second.structure_cached
        # DecomposeStage must not have rerun.
        assert second.stage_counters["decompose"] == 1
        assert second.stage_counters["lanes"] == 1
        assert second.stage_counters["hierarchy"] == 1
        # Cached structural timings are flagged as such.
        cached_names = {t.name for t in second.stage_timings if t.cached}
        assert set(STRUCTURAL) <= cached_names
        fresh_names = {t.name for t in second.stage_timings if not t.cached}
        assert fresh_names == {"evaluate", "label"}

    def test_sequence_batch_matches_ground_truth(self):
        rng = random.Random(42)
        seq = random_lanewidth_sequence(3, 14, rng)
        graph = apply_construction(seq)
        truth = {
            "connected": graph.is_connected(),
            "acyclic": graph.is_forest(),
            "bipartite": is_bipartite(graph),
            "even-order": graph.n % 2 == 0,
        }
        session = CertificationSession(rng=rng)
        reports = session.certify(seq, list(truth))
        for key, want in truth.items():
            report = reports[key]
            assert report.accepted == want, report.summary()
            assert report.refused == (not want)
        assert session.stage_counters["match"] == 1
        assert session.stage_counters["hierarchy"] == 1
        assert session.stage_counters["evaluate"] == len(truth)

    def test_distinct_graphs_cached_separately(self):
        session = CertificationSession(k=1)
        session.certify(path_graph(6), "connected")
        session.certify(path_graph(7), "connected")
        assert session.cached_graphs == 2
        assert session.stage_counters["decompose"] == 2

    def test_report_verification_round_trip(self):
        session = CertificationSession(rng=random.Random(43))
        seq = random_lanewidth_sequence(2, 10, random.Random(5))
        report = session.certify(seq, "connected")
        assert report.accepted
        config, scheme, labeling, result = report.as_tuple()
        # The report's artifacts replay through the legacy simulator.
        replay = run_verification(config, scheme, labeling)
        assert replay.accepted
        # And the scheme's prove() regenerates an accepted labeling.
        labeling2 = scheme.prove(config)
        assert run_verification(config, scheme, labeling2).accepted

    def test_session_requires_k_for_graph_targets(self):
        session = CertificationSession()
        with pytest.raises(ValueError, match="pathwidth bound"):
            session.certify(path_graph(5), "connected")


class TestFingerprintCaching:
    def test_graph_fingerprint_semantics(self):
        a = path_graph(5)
        b = path_graph(5)
        assert a.fingerprint() == b.fingerprint()
        b.set_vertex_label(0, "x")
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint(include_labels=False) == b.fingerprint(
            include_labels=False
        )
        b.add_edge(0, 4)
        assert a.fingerprint(include_labels=False) != b.fingerprint(
            include_labels=False
        )

    def test_lanewidth_scheme_replays_construction_once(self, monkeypatch):
        calls = []
        real_apply = pipeline_module.apply_construction

        def counting_apply(seq):
            calls.append(seq)
            return real_apply(seq)

        monkeypatch.setattr(
            pipeline_module, "apply_construction", counting_apply
        )
        rng = random.Random(6)
        seq = random_lanewidth_sequence(2, 8, rng)
        graph = real_apply(seq)
        config = Configuration.with_random_ids(graph, rng)
        scheme = LanewidthScheme("connected", seq)
        scheme.prove(config)
        scheme.prove(config)
        scheme.prove(config)
        assert len(calls) == 1  # expected graph built once, then hashed

    def test_session_certify_replays_sequence_once(self, monkeypatch):
        """A fresh session's sequence certify replays the sequence once
        and builds one CSR snapshot: the match stage checks against the
        graph the session replayed, and the plan keys do not change."""
        import repro.api.session as session_module
        import repro.graphs.graph as graph_module

        replays, builds = [], []
        for module in (pipeline_module, session_module):
            def counting_apply(seq, real=module.apply_construction):
                replays.append(seq)
                return real(seq)

            monkeypatch.setattr(module, "apply_construction", counting_apply)

        class CountingCSR(graph_module.CSRAdjacency):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(graph_module, "CSRAdjacency", CountingCSR)
        seq, _graph = lanewidth_workload(3, 24, 1)
        replays.clear()
        builds.clear()
        session = CertificationSession(rng=random.Random(1))
        report = session.certify(seq, "connected")
        assert report.accepted
        assert len(replays) == 1
        assert len(builds) == 1
        # The stage's plan key is the sequence digest alone, as when it
        # replays for itself.
        (stage,) = session._match_stages.values()
        assert stage.plan_params() == MatchSequenceStage(seq).plan_params()

    def test_match_stage_rejects_wrong_graph(self):
        seq = random_lanewidth_sequence(2, 6, random.Random(7))
        stage = MatchSequenceStage(seq)
        wrong = Configuration.with_random_ids(path_graph(4), random.Random(8))
        with pytest.raises(ProverFailure, match="does not match") as info:
            stage.run(PipelineContext(config=wrong))
        assert info.value.reason == "mismatch"


class TestDecomposeStageParameters:
    def test_stage_validates_parameters(self):
        with pytest.raises(ValueError):
            DecomposeStage(0)
        with pytest.raises(ValueError):
            Theorem1Scheme("connected", 0)


SOURCES = {"graph": "g", "config": "c", "algebra": "a"}


class TestPipelineDirectly:
    def test_theorem1_stage_list_produces_labeling(self):
        config = Configuration.with_random_ids(cycle_graph(8), random.Random(10))
        ctx = PipelineContext(config=config, algebra="connected")
        timings = PlanRunner().run(theorem1_plan(2), ctx, SOURCES).timings
        assert ctx.labeling is not None
        assert [t.name for t in timings] == [
            "decompose",
            "lanes",
            "completion",
            "hierarchy",
            "evaluate",
            "label",
        ]
        assert all(t.seconds >= 0 for t in timings)

    def test_evaluate_stage_needs_algebra(self):
        ctx = PipelineContext(
            config=Configuration.with_random_ids(path_graph(3), random.Random(1))
        )
        with pytest.raises(ValueError, match="algebra"):
            EvaluateStage().run(ctx)

    def test_counters_count_refused_attempts(self):
        counters = {}
        config = Configuration.with_random_ids(cycle_graph(7), random.Random(2))
        ctx = PipelineContext(config=config, algebra="bipartite")
        with pytest.raises(ProverFailure):
            PlanRunner(counters=counters).run(theorem1_plan(2), ctx, SOURCES)
        assert counters["evaluate"] == 1  # the refusing stage still counts
        assert "label" not in counters  # downstream stages never ran

    def test_report_summary_readable(self):
        report = certify(cycle_graph(8), "connected", k=2)
        assert "accepted" in report.summary()
        refused = certify(cycle_graph(7), "bipartite", k=2)
        assert "refused" in refused.summary()
        assert isinstance(report, CertificationReport)


class TestLaneChoice:
    """``LaneStage`` keeps Observation 4.3's greedy lanes when they meet
    Proposition 4.6's bounds and runs the recursion otherwise."""

    @staticmethod
    def _certify(n, k, seed, **kwargs):
        graph, decomposition = pathwidth_workload(n, k, seed)
        report = certify(
            graph, "connected", k=k, rng=random.Random(seed),
            decomposer=lambda _g: decomposition, **kwargs,
        )
        return report, decomposition.to_interval_representation().width()

    @pytest.mark.parametrize("n,k,seed", [(64, 2, 1), (128, 3, 2), (96, 3, 5)])
    def test_default_path_keeps_greedy(self, n, k, seed):
        report, width = self._certify(n, k, seed, verify=False)
        stats = report.lane_stats
        assert stats["builder"] == "greedy"
        assert stats["width"] == width
        assert report.lane_count <= width
        assert stats["congestion"] <= stats["h_bound"] == h_bound(width)
        assert report.hierarchy_depth <= 2 * report.lane_count

    def test_fallback_runs_prop_46_and_verifies(self, monkeypatch):
        greedy, _width = self._certify(48, 3, 1, verify=False)
        monkeypatch.setattr(pipeline_module, "h_bound", lambda _w: 0)
        for engine in (
            VerificationEngine(SerialExecutor()),
            VerificationEngine(make_executor("vectorized")),
        ):
            report, width = self._certify(48, 3, 1, engine=engine)
            stats = report.lane_stats
            assert stats["builder"] == "prop-4.6"
            assert report.accepted, engine
            assert report.lane_count > greedy.lane_count
            # The stage asserted the paper's (unpatched) bounds on it.
            assert report.lane_count <= f_bound(width)
            assert stats["congestion"] <= h_bound(width)

    def test_lane_stats_round_trip(self):
        report, _width = self._certify(32, 2, 3, verify=False)
        data = json.loads(report.to_json())
        assert CertificationReport.from_dict(data).lane_stats == report.lane_stats
        sequence, _graph = lanewidth_workload(2, 16, 3)
        lanewidth = certify(sequence, "connected", verify=False)
        assert lanewidth.lane_stats is None
        assert "lane_stats" not in lanewidth.to_dict()


class TestBatchKeyAndArgumentHandling:
    def test_same_class_algebras_get_distinct_reports(self):
        from repro.courcelle import algebra_for

        session = CertificationSession(rng=random.Random(50))
        seq = random_lanewidth_sequence(2, 8, random.Random(12))
        reports = session.certify(
            seq, [algebra_for("max-degree-2"), algebra_for("max-degree-5")]
        )
        assert len(reports) == 2  # no silent collapse by class name
        assert set(reports) == {"max-degree-2", "max-degree-5"}
        # Exact duplicates still get distinct (suffixed) reports.
        dup = session.certify(seq, ["connected", "connected"])
        assert set(dup) == {"connected", "connected#2"}

    def test_mode_collision_does_not_share_structures(self):
        # The same graph reached as a sequence target must not satisfy a
        # later Theorem 1 target (which must run DecomposeStage and check
        # the width bound), and vice versa.
        session = CertificationSession(k=1, rng=random.Random(52))
        seq = random_lanewidth_sequence(3, 10, random.Random(14))
        graph = apply_construction(seq)
        as_sequence = session.certify(seq, "connected")
        assert as_sequence.accepted
        as_graph = session.certify(graph, "connected")
        assert not as_graph.structure_cached
        # Width-3 host, k=1 bound: Theorem 1 mode must refuse.
        assert as_graph.refused
        assert "witness decomposition" in as_graph.refusal
        assert session.stage_counters["decompose"] == 1

    def test_adopted_decomposer_invalidates_cached_structure(self):
        # A structure cached under the default decomposer must not
        # satisfy a later call that supplies an explicit witness.
        calls = []

        def witness(graph):
            calls.append(graph)
            return DecomposeStage(2).default_decomposer(graph)

        session = CertificationSession(k=2, rng=random.Random(53))
        graph = caterpillar_graph(3, 2)
        first = session.certify(graph, "connected")
        assert first.accepted and not calls
        session.decomposer = witness
        second = session.certify(graph, "acyclic")
        assert second.accepted
        assert calls, "explicit decomposer ignored on cached structure"
        assert not second.structure_cached

    def test_report_scheme_reuses_cached_match_stage(self):
        session = CertificationSession(rng=random.Random(51))
        seq = random_lanewidth_sequence(2, 8, random.Random(13))
        reports = session.certify(seq, ["connected", "even-order"])
        stages = [r.scheme.match_stage for r in reports.values()]
        assert all(isinstance(s, MatchSequenceStage) for s in stages)
        # Same memoized matcher everywhere: replaying report.scheme.prove
        # compares fingerprints instead of rebuilding the graph.
        assert stages[0] is stages[1]
        assert stages[0]._expected_fingerprint is not None


def test_label_stage_and_mean_bits_accounting():
    session = CertificationSession(rng=random.Random(44))
    seq = random_lanewidth_sequence(3, 12, random.Random(11))
    report = session.certify(seq, "connected")
    assert report.max_label_bits >= report.mean_label_bits > 0
    assert report.total_label_bits == pytest.approx(
        report.mean_label_bits * report.config.graph.m
    )
    assert report.class_count and report.class_count > 0
