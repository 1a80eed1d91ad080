"""Tests for the verification runtime (engine, executors, audits).

Covers the invariants the API redesign promises: executor-independent
verdicts (serial == vectorized), observable fail-fast savings, separate
accounting of exception rejections, JSON round-trips, and the AuditPlan
campaign surface — including the transplant ("right proof, wrong
graph") attack as a library call.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AuditCase,
    AuditPlan,
    AuditReport,
    CertificationReport,
    CertificationSession,
    MutationAttack,
    SerialExecutor,
    StageTiming,
    SwapAttack,
    TransplantAttack,
    VerificationEngine,
    VerificationReport,
    certify,
    derive_rng,
    derive_seed,
    make_executor,
    verify_labeling,
)
from repro.core import certify_lanewidth_graph, random_lanewidth_sequence
from repro.experiments import pathwidth_workload, seed_stream
from repro.graphs.generators import cycle_graph
from repro.pls.adversary import corrupt_one_label, drop_one_label
from repro.pls.bits import SizeContext
from repro.pls.model import Configuration
from repro.pls.scheme import Labeling, ProofLabelingScheme
from repro.pls.simulator import run_verification


def _honest_case(seed: int, extra: int = 10):
    rng = random.Random(seed)
    sequence = random_lanewidth_sequence(3, extra, rng)
    config, scheme, labeling, _res = certify_lanewidth_graph(
        sequence, "connected", rng
    )
    return config, scheme, labeling


class FragileScheme(ProofLabelingScheme):
    """Accepts any present certificate; *raises* on a missing one.

    Exercises the exception-rejection accounting: a raising verifier
    rejects, but the report must not fold it into verdict rejections.
    """

    label_location = "vertices"

    def prove(self, config):
        return Labeling(
            "vertices",
            {v: 1 for v in config.graph.vertices()},
            SizeContext(config.n),
        )

    def verify(self, view):
        if view.own_certificate is None:
            raise ValueError("certificate missing")
        return True

    def label_size_bits(self, label, ctx):
        return 1


class TestVerificationEngine:
    def test_serial_report_matches_legacy_result(self):
        config, scheme, labeling = _honest_case(1)
        report = VerificationEngine().verify(config, scheme, labeling)
        legacy = run_verification(config, scheme, labeling)
        assert report.accepted and legacy.accepted
        assert report.as_result().verdicts == legacy.verdicts
        assert report.vertices_total == config.graph.n
        assert report.views_built == config.graph.n
        assert report.executor == "serial"
        assert not report.short_circuited

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_executors_agree_property(self, seed):
        """Serial and vectorized verdicts are identical on the same
        configuration — honest or corrupted."""
        config, scheme, labeling = _honest_case(seed, extra=8)
        rng = random.Random(seed)
        candidates = [labeling, corrupt_one_label(labeling, rng)]
        for candidate in candidates:
            serial = VerificationEngine(SerialExecutor()).verify(
                config, scheme, candidate
            )
            vectorized = VerificationEngine(
                make_executor("vectorized")
            ).verify(config, scheme, candidate)
            assert serial.verdicts == vectorized.verdicts
            assert serial.accepted == vectorized.accepted

    def test_fail_fast_short_circuits(self):
        config, scheme, labeling = _honest_case(4, extra=20)
        rng = random.Random(4)
        bad = corrupt_one_label(labeling, rng)
        assert bad.mapping != labeling.mapping
        engine = VerificationEngine(SerialExecutor(), fail_fast=True)
        report = engine.verify(config, scheme, bad)
        assert not report.accepted
        assert report.fail_fast
        # The acceptance-criterion assertion: fewer views than vertices.
        assert report.views_built < report.vertices_total
        assert report.short_circuited
        assert report.rejecting_vertices  # at least the triggering vertex
        assert not report.as_result().accepted

    def test_fail_fast_accepting_instance_builds_all_views(self):
        config, scheme, labeling = _honest_case(6)
        report = VerificationEngine(
            SerialExecutor(), fail_fast=True
        ).verify(config, scheme, labeling)
        assert report.accepted
        assert report.views_built == report.vertices_total
        assert not report.short_circuited

    def test_exception_rejections_counted_separately(self):
        scheme = FragileScheme()
        config = Configuration.with_random_ids(
            cycle_graph(6), random.Random(7)
        )
        labeling = scheme.prove(config)
        bad = drop_one_label(labeling, random.Random(7))
        (dropped,) = [v for v, lab in bad.mapping.items() if lab is None]
        report = VerificationEngine().verify(config, scheme, bad)
        assert not report.accepted
        assert report.exception_rejections == (dropped,)
        assert report.verdict_rejections == ()
        assert report.rejecting_vertices == [dropped]
        # The legacy shim folds both kinds into a False verdict.
        assert run_verification(config, scheme, bad).verdicts[dropped] is False

    def test_location_mismatch_raises(self):
        config, scheme, labeling = _honest_case(8)
        wrong = Labeling("vertices", {}, labeling.size_context)
        with pytest.raises(ValueError, match="location"):
            VerificationEngine().verify(config, scheme, wrong)

    def test_verify_labeling_helper(self):
        config, scheme, labeling = _honest_case(10)
        assert verify_labeling(config, scheme, labeling).accepted


class TestReportSerialization:
    def test_stage_timing_round_trip(self):
        timing = StageTiming("decompose", 0.25, cached=True)
        assert StageTiming.from_dict(json.loads(timing.to_json())) == timing

    def test_verification_report_round_trip(self):
        config, scheme, labeling = _honest_case(11)
        report = VerificationEngine(SerialExecutor()).verify(
            config, scheme, labeling
        )
        rebuilt = VerificationReport.from_dict(json.loads(report.to_json()))
        assert rebuilt.verdicts == report.verdicts
        assert rebuilt.accepted == report.accepted
        assert rebuilt.views_built == report.views_built
        assert rebuilt.executor == report.executor
        # Reports stored by older builds carry per-chunk timings; they
        # still load, and the key is ignored.
        stored = dict(report.to_dict())
        stored["chunks"] = [
            {"index": 0, "size": 3, "views_built": 3, "seconds": 0.1}
        ]
        assert VerificationReport.from_dict(stored) == report

    def test_certification_report_round_trip(self):
        graph, decomposition = pathwidth_workload(10, 2, seed=12)
        report = certify(graph, "connected", k=2, rng=random.Random(12))
        rebuilt = CertificationReport.from_dict(json.loads(report.to_json()))
        assert rebuilt.property_key == report.property_key
        assert rebuilt.accepted == report.accepted
        assert rebuilt.max_label_bits == report.max_label_bits
        assert rebuilt.stage_timings == report.stage_timings
        assert rebuilt.stage_counters == report.stage_counters
        assert rebuilt.verification.verdicts == report.verification.verdicts
        # Raw artifacts are drill-down handles, not data.
        assert rebuilt.config is None and rebuilt.scheme is None

    def test_refused_report_round_trip(self):
        config = Configuration.with_random_ids(
            cycle_graph(5), random.Random(13)
        )
        report = certify(config, "acyclic", k=2)
        assert report.refused
        rebuilt = CertificationReport.from_dict(report.to_dict())
        assert rebuilt.refused and rebuilt.refusal == report.refusal
        assert rebuilt.verification is None


class TestSessionVerification:
    def test_verify_false_skips_the_round(self):
        session = CertificationSession(k=2, rng=random.Random(14))
        graph, _dec = pathwidth_workload(10, 2, seed=14)
        report = session.certify(graph, "connected", verify=False)
        assert report.accepted  # completeness: honest proofs accept
        assert report.verification is None and report.result is None

    def test_session_verify_replays_the_round(self):
        session = CertificationSession(k=2, rng=random.Random(15))
        graph, _dec = pathwidth_workload(10, 2, seed=15)
        report = session.certify(graph, "connected", verify=False)
        verification = session.verify(report)
        assert verification.accepted
        assert report.verification is verification
        assert report.result.accepted

    def test_session_verify_with_custom_engine(self):
        session = CertificationSession(k=2, rng=random.Random(16))
        graph, _dec = pathwidth_workload(10, 2, seed=16)
        report = session.certify(graph, "connected", verify=False)
        engine = VerificationEngine(SerialExecutor(), fail_fast=True)
        verification = session.verify(report, engine=engine)
        assert verification.accepted and verification.fail_fast

    def test_session_verify_refuses_refused_reports(self):
        session = CertificationSession(k=2, rng=random.Random(17))
        config = Configuration.with_random_ids(
            cycle_graph(5), random.Random(17)
        )
        report = session.certify(config, "acyclic")
        assert report.refused
        with pytest.raises(ValueError, match="refused"):
            session.verify(report)

    def test_certify_threads_engine_and_attaches_verification(self):
        engine = VerificationEngine(SerialExecutor(), fail_fast=True)
        graph, _dec = pathwidth_workload(10, 2, seed=18)
        report = certify(
            graph, "connected", k=2, rng=random.Random(18), engine=engine
        )
        assert report.accepted
        assert report.verification is not None
        assert report.verification.fail_fast


class TestAudits:
    def test_transplant_attack_rejected(self):
        """Right proof, wrong graph: honest forest labels on a cycle."""

        def case_factory(trial, rng):
            sequence = random_lanewidth_sequence(
                3, 10, rng, edge_probability=0.0
            )
            config, scheme, labeling, _res = certify_lanewidth_graph(
                sequence, "acyclic", rng
            )
            return AuditCase(config, scheme, labeling, trial)

        def targets(trial, rng):
            # Built per attack call, so the case's edge count is unknown
            # here; a cycle on m vertices has exactly m edges, and the
            # transplant skips automatically on a count mismatch.
            return Configuration.with_random_ids(cycle_graph(12), rng)

        report = AuditPlan(
            case_factory=case_factory,
            attacks=[TransplantAttack(targets)],
            trials=6,
            root_seed=19,
            name="transplant-test",
        ).run()
        tally = report.tally("transplant")
        assert tally.attempted + tally.skipped == 6
        assert tally.attempted > 0  # some forests hit 12 edges
        assert tally.all_rejected  # soundness: every transplant caught

    def test_campaigns_replay_from_root_seed(self):
        def case_factory(trial, rng):
            config, scheme, labeling = _honest_case(rng.randrange(10**6))
            return AuditCase(config, scheme, labeling, trial)

        plan = AuditPlan(
            case_factory=case_factory,
            attacks=[MutationAttack(per_case=3), SwapAttack()],
            trials=3,
            root_seed=20,
            name="replay",
        )
        first, second = plan.run(), plan.run()
        assert first.attempts == second.attempts
        assert first.tallies == second.tallies

    def test_audit_report_round_trip(self):
        def case_factory(trial, rng):
            config, scheme, labeling = _honest_case(21)
            return AuditCase(config, scheme, labeling, trial)

        report = AuditPlan(
            case_factory=case_factory,
            attacks=[MutationAttack(per_case=2)],
            trials=2,
            root_seed=21,
            name="json",
        ).run()
        rebuilt = AuditReport.from_dict(json.loads(report.to_json()))
        assert rebuilt.tallies == report.tallies
        assert rebuilt.attempts == report.attempts

    def test_attack_data_reaches_attempts_structured(self):
        """AdversarialInstance.data rides onto the attempt records (and
        survives JSON) so campaigns never parse prose notes."""
        from repro.api import AdversarialInstance, AuditAttack

        class TaggingMutation(AuditAttack):
            name = "tagged"

            def instances(self, case, rng):
                from repro.pls.adversary import corrupt_one_label

                bad = corrupt_one_label(case.labeling, rng)
                yield AdversarialInstance(
                    case.config, bad, note="prose", data={"n": case.config.n}
                )

        def case_factory(trial, rng):
            config, scheme, labeling = _honest_case(23)
            return AuditCase(config, scheme, labeling, trial)

        report = AuditPlan(
            case_factory=case_factory,
            attacks=[TaggingMutation()],
            trials=1,
            root_seed=23,
            name="data",
        ).run()
        (attempt,) = report.attempts_for("tagged")
        assert attempt.data == {"n": 13}
        rebuilt = AuditReport.from_dict(json.loads(report.to_json()))
        assert rebuilt.attempts[0].data == {"n": 13}

    def test_distinct_attack_names_required(self):
        with pytest.raises(ValueError, match="distinct"):
            AuditPlan(
                case_factory=lambda t, r: None,
                attacks=[MutationAttack(), MutationAttack()],
                trials=1,
            )

    def test_attack_names_cannot_alias_streams(self):
        """"/" would collide with the stream-path separator; an attack
        named "case" must still not share the case factory's stream."""
        from repro.api import AuditAttack, EdgeRemovalAttack

        class Slashed(EdgeRemovalAttack):
            name = "a/b"

        with pytest.raises(ValueError, match="must not contain"):
            AuditPlan(
                case_factory=lambda t, r: None,
                attacks=[Slashed()],
                trials=1,
            )

        class CaseNamed(AuditAttack):
            name = "case"

        plan = AuditPlan(
            case_factory=lambda t, r: None,
            attacks=[CaseNamed()],
            trials=1,
            root_seed=3,
        )
        assert (
            plan.case_rng(0).random() != plan.attack_rng(CaseNamed(), 0).random()
        )

    def test_vacuous_campaign_is_not_a_pass(self):
        """All-skips campaigns must not read as perfect soundness."""
        from repro.api import EdgeRemovalAttack

        def case_factory(trial, rng):
            config, scheme, labeling = _honest_case(25)
            return AuditCase(config, scheme, labeling, trial)

        report = AuditPlan(
            case_factory=case_factory,
            attacks=[EdgeRemovalAttack(still_true=lambda g: True)],
            trials=2,
            root_seed=25,
            name="vacuous",
        ).run()
        tally = report.tally("edge-removal")
        assert not tally.exercised
        assert tally.skipped > 0
        assert not tally.all_rejected  # vacuous, not sound
        assert not report.all_rejected
        assert tally.rejection_rate == 0.0
        assert "vacuous" in report.summary()


class TestSeedStreams:
    def test_derivation_is_stable_and_named(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)
        assert derive_seed(0, "a", 1) != derive_seed(0, "b", 1)
        assert derive_seed(0, "a", 1) != derive_seed(1, "a", 1)
        assert derive_rng(0, "a").random() == derive_rng(0, "a").random()

    def test_seed_stream_helper(self):
        stream = seed_stream(5, "e6")
        assert stream.seed(0) != stream.seed(1)
        assert stream.seed(3) == seed_stream(5, "e6").seed(3)
        child = stream.substream("mutation")
        assert child.seed(0) != stream.seed(0)
        assert child.rng(2).random() == child.rng(2).random()
