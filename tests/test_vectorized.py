"""Tests for the PR 8 vectorized verification hot path.

The contract under test is *verdict identity*: the batched numpy
kernels (:class:`repro.api.VectorizedExecutor`) must return exactly the
reference executor's (accepted, per-vertex verdicts, rejecting set) on
every configuration and labeling — honest or adversarially mutated —
because kernels only *accept* when every reference check provably
passes and everything else falls back to the reference ``LocalView``
path.  The differential harness runs the
vectorized executor in ``audit`` mode, which re-checks every
kernel-accept against the reference verifier and raises on divergence.

Also covered: the executor registry (:func:`repro.api.make_executor`),
the ``AuditPlan`` engine override with the transplant-attack regression,
the full attack catalogue on both engines and both input modes,
the interning wire decoder, the service-level engine selection, the
persisted compiled-round envelope, verdicts under labels tampered
with after certify, and the compiler's re-derivations once per shape
(against a per-key compile, on renamed and tampered tables).
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import (
    ArtifactCache,
    AuditCase,
    AuditPlan,
    CertificationSession,
    DropAttack,
    EdgeAdditionAttack,
    EdgeRemovalAttack,
    MutationAttack,
    SerialExecutor,
    SwapAttack,
    TransplantAttack,
    VectorizedExecutor,
    VerificationEngine,
    VerificationReport,
    executor_names,
    make_executor,
    register_executor,
)
from repro.api.artifacts import seal, unseal
from repro.codec import decode_labeling_columnar, encode_labeling
from repro.core import certify_lanewidth_graph, random_lanewidth_sequence
from repro.core.certificates import EmbeddedRecord, Theorem1Label
from repro.experiments import (
    lanewidth_workload,
    pathwidth_workload,
    seed_stream,
)
from repro.graphs.generators import cycle_graph
from repro.pls import HAVE_NUMPY
from repro.pls.arrays import NONE_ID
from repro.pls.adversary import (
    corrupt_one_label,
    drop_one_label,
    swap_two_labels,
)
from repro.pls.bits import SizeContext
from repro.pls.model import Configuration
from repro.pls.scheme import Labeling, ProofLabelingScheme
from repro.service.service import CertificationService, ServiceConfig

try:
    import numpy as np
except ImportError:  # pragma: no cover - the kernel tests skip
    np = None

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy unavailable: kernel path cannot run"
)


def _case(seed: int, extra: int = 8, prop: str = "connected"):
    rng = random.Random(seed)
    edge_probability = 0.0 if prop != "connected" else 0.15
    sequence = random_lanewidth_sequence(
        3, extra, rng, edge_probability=edge_probability
    )
    config, scheme, labeling, _res = certify_lanewidth_graph(
        sequence, prop, rng
    )
    return config, scheme, labeling


def _theorem1_case():
    """A Theorem-1 host: ``pathwidth_workload(14, 2, 1)`` at k=2."""
    graph, _decomposition = pathwidth_workload(14, 2, 1)
    report = CertificationSession(k=2, rng=random.Random(1)).certify(
        graph, "connected", verify=False
    )
    assert not report.refused, report.refusal
    return report.config, report.scheme, report.labeling


def _assert_equivalent(config, scheme, labeling, executor=None):
    """Reference == vectorized on verdicts, acceptance, rejecting set."""
    serial = VerificationEngine(SerialExecutor()).verify(
        config, scheme, labeling
    )
    executor = executor if executor is not None else VectorizedExecutor(
        audit=True
    )
    vectorized = VerificationEngine(executor).verify(config, scheme, labeling)
    assert vectorized.verdicts == serial.verdicts
    assert vectorized.accepted == serial.accepted
    assert sorted(vectorized.rejecting_vertices, key=repr) == sorted(
        serial.rejecting_vertices, key=repr
    )
    return serial, vectorized


class VertexScheme(ProofLabelingScheme):
    """A non-Theorem-1 scheme: must run entirely on the reference path."""

    label_location = "vertices"

    def prove(self, config):
        return Labeling(
            "vertices",
            {v: 1 for v in config.graph.vertices()},
            SizeContext(config.n),
        )

    def verify(self, view):
        return view.own_certificate == 1

    def label_size_bits(self, label, ctx):
        return 1


class TestExecutorRegistry:
    def test_names(self):
        names = executor_names()
        for kind in ("serial", "vectorized"):
            assert kind in names
        for removed in ("parallel", "shared-memory"):
            assert removed not in names

    def test_make_executor_kinds(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("vectorized"), VectorizedExecutor)
        # Names are canonicalized: case-folded and stripped.
        assert isinstance(make_executor(" Vectorized "), VectorizedExecutor)
        assert isinstance(make_executor("SERIAL"), SerialExecutor)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("quantum")

    def test_register_custom(self):
        class Custom(SerialExecutor):
            name = "custom-test"

        register_executor("custom-test", Custom)
        assert "custom-test" in executor_names()
        assert isinstance(make_executor("custom-test"), Custom)


_EDGE_VALUES = (NONE_ID, 2**60, -(2**60), 2**60 - 1, -(2**60) + 1)


@st.composite
def _segmented_columns(draw):
    """Random int64 and bool columns and strictly increasing segment
    starts from 0: random cuts, one row per segment, or one segment."""
    nrows = draw(st.integers(min_value=1, max_value=60))
    ints = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=-3, max_value=3),
                st.sampled_from(_EDGE_VALUES),
            ),
            min_size=nrows,
            max_size=nrows,
        )
    )
    flags = draw(st.lists(st.booleans(), min_size=nrows, max_size=nrows))
    layout = draw(st.sampled_from(["random", "rows", "whole"]))
    if layout == "rows":
        starts = list(range(nrows))
    elif layout == "whole":
        starts = [0]
    else:
        cuts = draw(st.sets(st.integers(min_value=0, max_value=nrows - 1)))
        starts = sorted(cuts | {0})
    return (
        np.array(ints, np.int64),
        np.array(flags, bool),
        np.array(starts, np.int64),
    )


@needs_numpy
class TestSegmentReductions:
    """The kernels' per-run segment layout (``_heads`` and
    ``_Segments``) against ``reduceat`` over the same starts."""

    @given(_segmented_columns())
    @settings(max_examples=150, deadline=None)
    def test_matches_reduceat(self, case):
        from repro.api.vectorized import _Segments, _heads

        ints, flags, starts = case
        head = np.zeros(ints.shape[0], bool)
        head[starts] = True
        seg = _Segments(head)
        assert seg.starts.tolist() == starts.tolist()
        assert seg.count == starts.shape[0]
        assert np.array_equal(
            seg.eq(ints),
            np.minimum.reduceat(ints, starts)
            == np.maximum.reduceat(ints, starts),
        )
        assert np.array_equal(
            seg.eq(flags),
            np.minimum.reduceat(flags.astype(np.int8), starts)
            == np.maximum.reduceat(flags.astype(np.int8), starts),
        )
        assert np.array_equal(
            seg.all(flags),
            np.minimum.reduceat(flags.astype(np.int8), starts) > 0,
        )
        assert np.array_equal(
            seg.any(flags),
            np.maximum.reduceat(flags.astype(np.int8), starts) > 0,
        )
        assert np.array_equal(
            seg.tally(flags), np.add.reduceat(flags.astype(np.int64), starts)
        )
        # Runs of equal values start exactly where ``_heads`` says.
        runs = _Segments(_heads(ints))
        assert runs.eq(ints).all()
        assert not (ints[runs.starts[1:]] == ints[runs.starts[1:] - 1]).any()


@needs_numpy
class TestVectorizedDifferential:
    """The hypothesis harness: vectorized ≡ reference, audit on."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_honest_and_mutated_agree(self, seed):
        config, scheme, labeling = _case(seed)
        rng = random.Random(seed)
        candidates = [
            labeling,
            corrupt_one_label(labeling, rng),
            swap_two_labels(labeling, rng),
            drop_one_label(labeling, rng),
        ]
        for candidate in candidates:
            _assert_equivalent(config, scheme, candidate)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=4, deadline=None)
    def test_property_zoo_agrees(self, seed):
        for prop in ("acyclic", "bipartite"):
            config, scheme, labeling = _case(seed, prop=prop)
            rng = random.Random(seed)
            for candidate in (labeling, corrupt_one_label(labeling, rng)):
                _assert_equivalent(config, scheme, candidate)

    def test_honest_round_is_fully_kernel_accepted(self):
        for config, scheme, labeling in (
            _case(21, extra=12),
            _theorem1_case(),
        ):
            _, report = _assert_equivalent(config, scheme, labeling)
            stats = report.kernel_stats
            assert stats["mode"] == "kernel"
            assert stats["engine"] == "vectorized"
            assert stats["kernel_accepted"] == config.graph.n
            assert stats["fallback_vertices"] == 0
            assert stats["compiled_vertices"] == config.graph.n

    def test_mutation_exercises_reference_fallback(self):
        """A dropped label cannot be kernel-accepted: it must be flagged
        into the reference path, and the verdicts still match."""
        config, scheme, labeling = _case(22, extra=12)
        bad = drop_one_label(labeling, random.Random(22))
        _, report = _assert_equivalent(config, scheme, bad)
        assert report.kernel_stats["mode"] == "kernel"
        assert report.kernel_stats["fallback_vertices"] >= 1
        assert not report.accepted

    def test_embedded_record_without_payload_agrees(self):
        """An embedded record that names the vertex but carries no
        certificate gives it a port with no stack: the compile must flag
        the vertex into the reference path, not emit an unattachable
        state."""
        config, scheme, labeling = _case(31)
        edge = sorted(labeling.mapping, key=repr)[0]
        me, other = edge
        honest = labeling.mapping[edge]
        record = EmbeddedRecord(
            u_id=config.ids[me],
            v_id=config.ids[other],
            forward=1,
            backward=1,
            payload=None,
        )
        mapping = dict(labeling.mapping)
        mapping[edge] = Theorem1Label(
            honest.certificate, tuple(honest.embedded) + (record,)
        )
        bad = Labeling(labeling.location, mapping, labeling.size_context)
        serial, report = _assert_equivalent(config, scheme, bad)
        assert report.kernel_stats["mode"] == "kernel"
        assert report.kernel_stats["fallback_vertices"] >= 1
        assert not serial.accepted

    def test_non_theorem1_scheme_runs_on_reference(self):
        scheme = VertexScheme()
        config = Configuration.with_random_ids(
            cycle_graph(6), random.Random(23)
        )
        labeling = scheme.prove(config)
        serial, report = _assert_equivalent(config, scheme, labeling)
        assert report.kernel_stats["mode"] == "reference"
        assert "profile" in report.kernel_stats["reason"]
        assert report.accepted and serial.accepted

    def test_kernel_stats_survive_json_round_trip(self):
        config, scheme, labeling = _case(24)
        report = VerificationEngine(VectorizedExecutor()).verify(
            config, scheme, labeling
        )
        data = json.loads(json.dumps(report.to_dict()))
        back = VerificationReport.from_dict(data)
        assert back.kernel_stats == report.kernel_stats
        assert back.kernel_stats["mode"] == "kernel"


@needs_numpy
class TestAuditPlanEngine:
    @staticmethod
    def _transplant_plan(engine=None):
        def case_factory(trial, rng):
            sequence = random_lanewidth_sequence(
                3, 10, rng, edge_probability=0.0
            )
            config, scheme, labeling, _res = certify_lanewidth_graph(
                sequence, "acyclic", rng
            )
            return AuditCase(config, scheme, labeling, trial)

        def targets(trial, rng):
            return Configuration.with_random_ids(cycle_graph(12), rng)

        return AuditPlan(
            case_factory=case_factory,
            attacks=[TransplantAttack(targets)],
            trials=6,
            root_seed=19,
            name="transplant-engines",
            engine=engine,
        )

    def test_transplant_caught_identically_under_both_engines(self):
        """Right proof, wrong graph — the campaign must replay to the
        same per-attempt outcomes whether the round runs on the
        reference executor or the vectorized kernels."""
        baseline = self._transplant_plan().run()
        vectorized = self._transplant_plan("vectorized").run()
        assert [a.outcome for a in baseline.attempts] == [
            a.outcome for a in vectorized.attempts
        ]
        tally = vectorized.tally("transplant")
        assert tally.attempted > 0
        assert tally.all_rejected
        assert baseline.tallies == vectorized.tallies

    def test_run_engine_override_wins(self):
        plan = self._transplant_plan("serial")
        report = plan.run(engine="vectorized")
        assert report.tally("transplant").all_rejected

    def test_resolve_engine_kinds(self):
        plan = self._transplant_plan()
        assert isinstance(
            plan.resolve_engine().executor, SerialExecutor
        )
        assert isinstance(
            plan.resolve_engine("vectorized").executor, VectorizedExecutor
        )
        custom = VerificationEngine(VectorizedExecutor())
        assert plan.resolve_engine(custom) is custom


@needs_numpy
class TestAttackCatalogueEngines:
    """The whole attack catalogue, on a lanewidth-mode and a Theorem-1
    host, replays to the same per-attempt outcomes on the serial engine
    and on the audit-mode vectorized engine."""

    @staticmethod
    def _plan(target, graph, k=None):
        def case_factory(trial, rng):
            report = CertificationSession(k=k, rng=rng).certify(
                target, "connected", verify=False
            )
            assert not report.refused, report.refusal
            return AuditCase(
                report.config, report.scheme, report.labeling, trial
            )

        def targets(trial, rng):
            # The host with its vertices shuffled: the same edge count,
            # so every transplant lands, on a wrong graph.
            names = sorted(graph.vertices(), key=repr)
            shuffled = rng.sample(names, len(names))
            return Configuration.with_random_ids(
                graph.relabeled(dict(zip(names, shuffled))), rng
            )

        return AuditPlan(
            case_factory=case_factory,
            attacks=[
                MutationAttack(per_case=2),
                SwapAttack(),
                DropAttack(),
                TransplantAttack(targets),
                EdgeRemovalAttack(still_true=lambda g: g.is_connected()),
                EdgeAdditionAttack(),
            ],
            trials=3,
            root_seed=1,
            name="catalogue",
        )

    @pytest.mark.parametrize("mode", ["lanewidth", "theorem1"])
    def test_catalogue_outcomes_match_across_engines(self, mode):
        if mode == "lanewidth":
            sequence, graph = lanewidth_workload(3, 14, 1)
            plan = self._plan(sequence, graph)
        else:
            graph, _decomposition = pathwidth_workload(14, 2, 1)
            plan = self._plan(graph, graph, k=2)
        reports = [
            plan.run(VerificationEngine(executor, fail_fast=False))
            for executor in (SerialExecutor(), VectorizedExecutor(audit=True))
        ]
        serial, vectorized = (
            [(a.attack, a.trial, a.outcome, a.note) for a in r.attempts]
            for r in reports
        )
        assert serial == vectorized
        for attack in plan.attacks:
            assert reports[1].tally(attack.name).attempted >= 1, attack.name
        assert all(r.all_rejected for r in reports)


class TestColumnarDecode:
    def test_equals_reference_decode_with_sharing(self):
        """The decoded table materializes to the labeling that was
        encoded, and every equal-content record to one shared object."""
        _config, _scheme, labeling = _case(41, extra=24)
        encoded = encode_labeling(labeling)
        decoded = decode_labeling_columnar(encoded).materialize()
        assert decoded == labeling.mapping
        assert list(decoded) == list(encoded.labels)

        first_seen = {}
        occurrences = 0
        for label in decoded.values():
            stacks = [label.certificate]
            stacks += [embedded.payload for embedded in label.embedded]
            for cert in stacks:
                for record in cert.stack:
                    assert first_seen.setdefault(record, record) is record
                    occurrences += 1
        assert occurrences > len(first_seen)  # records recur across edges

    @needs_numpy
    def test_store_reverify_round_trips_through_columnar(self):
        """The store decodes through the table reader; a full
        persist → rehydrate → vectorized round must still accept."""
        from repro.api import CertificateStore

        with tempfile.TemporaryDirectory() as root:
            store = CertificateStore(root)
            sequence, _graph = lanewidth_workload(3, 32, 3)
            session = CertificationSession(
                rng=seed_stream(8, "ids").rng(3), store=store
            )
            session.certify(sequence, "connected", verify=False)
            fingerprint, prop, _path = store.entries()[0]
            stored = store.reverify(
                fingerprint,
                prop,
                engine=VerificationEngine(VectorizedExecutor(audit=True)),
            )
            assert stored.accepted
            assert stored.verification.kernel_stats["mode"] == "kernel"


@needs_numpy
class TestServiceEngine:
    def test_config_validates_and_canonicalizes(self, tmp_path):
        with pytest.raises(ValueError, match="unknown engine"):
            ServiceConfig(store_root=tmp_path, engine="bogus")
        config = ServiceConfig(store_root=tmp_path, engine=" Vectorized ")
        assert config.engine == "vectorized"

    def test_vectorized_service_reverify(self, tmp_path):
        config = ServiceConfig(store_root=tmp_path, engine="vectorized")
        service = CertificationService(config)
        try:
            sequence, _graph = lanewidth_workload(3, 32, 5)
            session = CertificationSession(
                rng=seed_stream(8, "ids").rng(5), store=service.store
            )
            session.certify(sequence, "connected", verify=False)
            fingerprint, prop, _path = service.store.entries()[0]
            body = service._reverify_blocking(fingerprint, prop)
            stats = body["reports"][prop]["verification"]["kernel_stats"]
            assert stats["engine"] == "vectorized"
            assert stats["kernel_accepted"] == 32
            snap = service.snapshot()
            assert snap["engine"]["kind"] == "vectorized"
            assert snap["kernels"]["rounds"] == 1
            assert snap["kernels"]["kernel_accepted"] == 32
        finally:
            service.close_blocking()


@needs_numpy
class TestRoundArraysPersistence:
    """The session lends its artifact cache to the vectorized executor,
    which persists compiled rounds there; an explicit cache wins."""

    def test_session_lends_cache_to_vectorized_executor(self):
        sequence, _graph = lanewidth_workload(3, 16, 9)
        engine = VerificationEngine(VectorizedExecutor())
        session = CertificationSession(
            rng=seed_stream(8, "ids").rng(9), engine=engine
        )
        report = session.certify(sequence, "connected")
        assert report.accepted
        assert engine.executor.artifacts is session.artifacts

    def test_explicit_cache_not_replaced_by_session(self):
        sequence, _graph = lanewidth_workload(3, 16, 10)
        own = ArtifactCache()
        engine = VerificationEngine(VectorizedExecutor(artifacts=own))
        session = CertificationSession(
            rng=seed_stream(8, "ids").rng(10), engine=engine
        )
        session.certify(sequence, "connected")
        assert engine.executor.artifacts is own

@needs_numpy
class TestCompiledRoundPersistence:
    """PR 10 tentpole: compiled rounds survive process restarts.

    The executor exports the whole compiled round (tables, virtual
    ports, edge owners) into a versioned envelope stored through the
    artifact cache, keyed by the labeling's wire digest chain.  A
    restarted process attaches it with **zero** recompilation; any
    stale, foreign, or corrupt envelope is a silent cache miss — never
    an exception, never a wrong verdict.
    """

    @staticmethod
    def _stamped_case(seed: int, extra: int = 24):
        """A `_case` whose labels carry their wire form (the
        compiled-round cache key requires one)."""
        from repro.api.store import StoredLabels
        from repro.codec import encode_labeling_columnar

        config, scheme, labeling = _case(seed, extra=extra)
        encoded = encode_labeling_columnar(labeling)
        labeling = Labeling(
            labeling.location,
            StoredLabels(encoded, "test"),
            labeling.size_context,
        )
        return config, scheme, labeling

    def test_restarted_executor_attaches_compiled_round(self, tmp_path):
        config, scheme, labeling = self._stamped_case(3)
        first = VerificationEngine(
            VectorizedExecutor(
                artifacts=ArtifactCache(root=tmp_path), audit=True
            )
        ).verify(config, scheme, labeling)
        assert first.kernel_stats["mode"] == "kernel"
        assert first.kernel_stats["compiled_round_cached"] is False
        assert first.kernel_stats["compile_seconds"] > 0.0
        # Fresh executor + fresh cache object over the same directory
        # models a restarted process: the round attaches from disk.
        second = VerificationEngine(
            VectorizedExecutor(
                artifacts=ArtifactCache(root=tmp_path), audit=True
            )
        ).verify(config, scheme, labeling)
        assert second.kernel_stats["mode"] == "kernel"
        assert second.kernel_stats["compiled_round_cached"] is True
        assert second.kernel_stats["compile_seconds"] == 0.0
        assert second.verdicts == first.verdicts
        assert second.accepted == first.accepted

    def test_digestless_labeling_bypasses_envelope(self, tmp_path):
        """No wire digest -> no content key -> the envelope layer stays
        out of the way (verdicts unchanged)."""
        config, scheme, labeling = _case(6)
        labeling = Labeling(
            labeling.location, dict(labeling.mapping), labeling.size_context
        )
        for _ in range(2):
            report = VerificationEngine(
                VectorizedExecutor(artifacts=ArtifactCache(root=tmp_path))
            ).verify(config, scheme, labeling)
            assert report.kernel_stats["mode"] == "kernel"
            assert report.kernel_stats["compiled_round_cached"] is False

    def test_store_backed_certify_persists_one_round_envelope(self, tmp_path):
        """The compiled round is the only verification state a
        store-backed certify persists: the CSR + identifier columns it
        compiles against are rebuilt per round, not cached beside it."""
        from repro.api import CertificateStore

        sequence, _graph = lanewidth_workload(3, 32, 4)
        session = CertificationSession(
            rng=seed_stream(8, "ids").rng(4),
            store=CertificateStore(tmp_path),
            engine=VerificationEngine(VectorizedExecutor()),
        )
        report = session.certify(sequence, "connected")
        assert report.verification.kernel_stats["mode"] == "kernel"
        stages = sorted(
            self._manifest(path)["stage"] for path in tmp_path.rglob("*.art")
        )
        assert stages == [
            "compiled-round", "evaluate", "hierarchy", "label", "match"
        ]

    # -- envelope guards (PR 10 satellite): stale/corrupt == miss ------
    @staticmethod
    def _manifest(path):
        """An artifact envelope's manifest."""
        return unseal(path.read_bytes())

    @classmethod
    def _envelopes(cls, root):
        """All (path, manifest) artifact files holding compiled rounds."""
        found = []
        for path in Path(root).glob("*.art"):
            manifest = cls._manifest(path)
            if str(manifest.get("key", "")).startswith("compiled-round:"):
                found.append((path, manifest))
        return found

    def _tampered_run(self, tmp_path, mutate):
        """Cold run -> tamper every stored envelope -> restarted run.

        Returns the restarted report; asserts it recompiled cleanly
        with the cold run's exact verdicts.
        """
        config, scheme, labeling = self._stamped_case(9)
        cold = VerificationEngine(
            VectorizedExecutor(artifacts=ArtifactCache(root=tmp_path))
        ).verify(config, scheme, labeling)
        assert cold.kernel_stats["mode"] == "kernel"
        envelopes = self._envelopes(tmp_path)
        assert envelopes, "cold run stored no compiled-round envelope"
        for path, manifest in envelopes:
            mutate(manifest["outputs"]["state"])
            path.write_bytes(seal(manifest))
        report = VerificationEngine(
            VectorizedExecutor(artifacts=ArtifactCache(root=tmp_path))
        ).verify(config, scheme, labeling)
        assert report.kernel_stats["mode"] == "kernel"
        assert report.kernel_stats["compiled_round_cached"] is False
        assert report.verdicts == cold.verdicts
        assert report.accepted == cold.accepted
        return report

    def test_stale_version_envelope_recompiles(self, tmp_path):
        self._tampered_run(
            tmp_path,
            lambda state: state.update(compiled_round_version=999),
        )

    def test_version_2_envelope_is_a_counted_miss(self, tmp_path, monkeypatch):
        """A version 2 envelope (identifier values, not codes) sits under
        its own version's key: the current executor counts a miss and
        recompiles, and the old envelope is never attached."""
        import repro.api.vectorized as vectorized

        config, scheme, labeling = self._stamped_case(9)
        monkeypatch.setattr(vectorized, "COMPILED_ROUND_VERSION", 2)
        VerificationEngine(
            VectorizedExecutor(artifacts=ArtifactCache(root=tmp_path))
        ).verify(config, scheme, labeling)
        monkeypatch.undo()
        cache = ArtifactCache(root=tmp_path)
        report = VerificationEngine(
            VectorizedExecutor(artifacts=cache, audit=True)
        ).verify(config, scheme, labeling)
        stats = report.kernel_stats
        assert stats["compiled_round_cached"] is False
        assert stats["derivations"] > 0
        assert (cache.hits, cache.misses) == (0, 1)
        assert report.accepted
        versions = sorted(
            manifest["outputs"]["state"]["compiled_round_version"]
            for _path, manifest in self._envelopes(tmp_path)
        )
        assert versions == [2, 3]

    def test_stale_wire_version_envelope_recompiles(self, tmp_path):
        self._tampered_run(
            tmp_path, lambda state: state.update(wire_version=999)
        )

    def test_foreign_dtype_envelope_recompiles(self, tmp_path):
        self._tampered_run(
            tmp_path, lambda state: state.update(dtypes=(">i4", "|b1"))
        )

    def test_truncated_tables_envelope_recompiles(self, tmp_path):
        def chop(state):
            state["tables"]["r_type"] = state["tables"]["r_type"][:-1]

        self._tampered_run(tmp_path, chop)

    def test_inconsistent_indptr_envelope_recompiles(self, tmp_path):
        def skew(state):
            indptr = state["tables"]["ch_indptr"].copy()
            if indptr.shape[0] > 1:
                indptr[-1] += 1
            state["tables"]["ch_indptr"] = indptr

        self._tampered_run(tmp_path, skew)

    def test_gutted_state_envelope_recompiles(self, tmp_path):
        self._tampered_run(tmp_path, lambda state: state.clear())

    @pytest.mark.parametrize(
        "name, dtype",
        [
            ("r_info", "float64"),  # widening would truncate 1.7 to 1
            ("r_info", "uint64"),  # not lossless in int64
            ("r_info", "bool"),
            ("r_root", "int8"),  # an int column is not a flag column
            ("edge_sid", "float64"),
            ("r_ep1", "float64"),  # identifier codes are integer columns
            ("min_id", "uint64"),
        ],
    )
    def test_wrong_kind_column_envelope_recompiles(
        self, tmp_path, name, dtype
    ):
        def recast(state):
            owner = state if name == "edge_sid" else state["tables"]
            owner[name] = owner[name].astype(dtype)

        self._tampered_run(tmp_path, recast)

    def test_envelope_columns_at_narrowest_dtype(self, tmp_path):
        from repro.api.vectorized import (
            _CODE_COLS,
            _STATE_I64_COLS,
            _narrowest,
        )

        config, scheme, labeling = self._stamped_case(9)
        VerificationEngine(
            VectorizedExecutor(artifacts=ArtifactCache(root=tmp_path))
        ).verify(config, scheme, labeling)
        [(_path, manifest)] = self._envelopes(tmp_path)
        state = manifest["outputs"]["state"]
        columns = [state["tables"][name] for name in _STATE_I64_COLS]
        for col in columns + [state["edge_sid"]]:
            assert col.dtype == _narrowest(col.astype(np.int64)).dtype
        assert min(col.dtype.itemsize for col in columns) == 1
        # Identifiers are stored as table codes, not 32-bit identifiers.
        for name in _CODE_COLS:
            assert state["tables"][name].dtype.itemsize <= 2, name

    # -- fresh interpreter (PR 10 satellite) ---------------------------
    def test_persisted_round_survives_fresh_interpreter(self, tmp_path):
        """Two genuinely fresh processes over one cache directory: the
        first compiles + persists, the second attaches with
        ``compile_seconds == 0`` and identical verdicts — audit mode on
        in both, so every kernel accept is re-proved against the
        reference verifier."""
        script = (
            "import json, random, sys\n"
            "from repro.api import (ArtifactCache, VectorizedExecutor,\n"
            "                       VerificationEngine)\n"
            "from repro.api.store import StoredLabels\n"
            "from repro.codec import encode_labeling_columnar\n"
            "from repro.pls.scheme import Labeling\n"
            "from repro.core import (certify_lanewidth_graph,\n"
            "                        random_lanewidth_sequence)\n"
            "rng = random.Random(7)\n"
            "sequence = random_lanewidth_sequence(\n"
            "    3, 16, rng, edge_probability=0.15)\n"
            "config, scheme, labeling, _res = certify_lanewidth_graph(\n"
            "    sequence, 'connected', rng)\n"
            "encoded = encode_labeling_columnar(labeling)\n"
            "labeling = Labeling(labeling.location,\n"
            "    StoredLabels(encoded, 'test'),\n"
            "    labeling.size_context)\n"
            "report = VerificationEngine(VectorizedExecutor(\n"
            "    artifacts=ArtifactCache(root=sys.argv[1]))).verify(\n"
            "    config, scheme, labeling)\n"
            "stats = report.kernel_stats\n"
            "print(json.dumps({\n"
            "    'mode': stats.get('mode'),\n"
            "    'cached': stats.get('compiled_round_cached'),\n"
            "    'compile_seconds': stats.get('compile_seconds'),\n"
            "    'accepted': report.accepted,\n"
            "    'verdicts': sorted(\n"
            "        (str(v), bool(ok))\n"
            "        for v, ok in report.verdicts.items()),\n"
            "}))\n"
        )
        src_root = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root, env.get("PYTHONPATH", "")]
        )
        env["REPRO_VECTORIZED_AUDIT"] = "1"
        runs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            runs.append(json.loads(result.stdout.strip()))
        first, second = runs
        assert first["mode"] == "kernel"
        assert first["cached"] is False
        assert second["mode"] == "kernel"
        assert second["cached"] is True
        assert second["compile_seconds"] == 0
        assert second["accepted"] is first["accepted"]
        assert second["verdicts"] == first["verdicts"]


@needs_numpy
class TestTamperAfterCertify:
    """A report's verdicts follow its labels, even after certify.

    Compiled rounds are keyed on the wire form the labels carry, and a
    report's mapping is read-only: tampering means assigning a plain
    ``dict`` copy, which has no wire identity, so no executor can reuse
    a round compiled from the honest labels.
    """

    @staticmethod
    def _certified(root):
        from repro.api import CertificateStore

        sequence, _graph = lanewidth_workload(3, 48, 5)
        store = CertificateStore(root)
        session = CertificationSession(
            rng=random.Random(5),
            store=store,
            engine=VerificationEngine(VectorizedExecutor()),
        )
        report = session.certify(sequence, "connected")
        assert report.accepted
        return store, session, report

    @staticmethod
    def _swap_first_and_last(report):
        mapping = dict(report.labeling.mapping)
        keys = sorted(mapping, key=repr)
        first, last = keys[0], keys[-1]
        mapping[first], mapping[last] = mapping[last], mapping[first]
        report.labeling.mapping = mapping

    @staticmethod
    def _assert_cached_round(verification):
        stats = verification.kernel_stats
        assert stats["mode"] == "kernel"
        assert stats["compiled_round_cached"] is True
        assert stats["compile_seconds"] == 0

    def test_in_place_edit_raises(self, tmp_path):
        _store, _session, report = self._certified(tmp_path)
        mapping = report.labeling.mapping
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            mapping.decoded[key] = mapping[key]

    def test_swapped_copy_rejected_by_every_engine(self, tmp_path):
        store, session, report = self._certified(tmp_path)
        self._swap_first_and_last(report)
        serial = VerificationEngine(SerialExecutor()).verify(
            report.config, report.scheme, report.labeling
        )
        assert not serial.accepted
        fresh_session = CertificationSession(
            rng=random.Random(5),
            store=store,
            engine=VerificationEngine(VectorizedExecutor()),
        )
        lent = VerificationEngine(
            VectorizedExecutor(artifacts=store.artifact_cache())
        )
        rounds = [
            fresh_session.verify(report),
            lent.verify(report.config, report.scheme, report.labeling),
            session.verify(report),
        ]
        for verification in rounds:
            assert verification.kernel_stats["mode"] == "kernel"
            assert verification.kernel_stats["compiled_round_cached"] is False
            assert not verification.accepted
            assert verification.verdicts == serial.verdicts
            assert (
                verification.rejecting_vertices == serial.rejecting_vertices
            )

    def test_tampered_report_leaves_the_label_artifact(self, tmp_path):
        # Each report has its own labeling shell: a mapping assigned to
        # one report reaches neither the cached label artifact nor the
        # next report the label node serves from it.
        from repro.api.store import StoredLabels

        _store, session, report = self._certified(tmp_path)
        honest = report.labeling.mapping
        self._swap_first_and_last(report)
        sequence, _graph = lanewidth_workload(3, 48, 5)
        again = session.certify(sequence, "connected", rng=random.Random(5))
        (label_row,) = [t for t in again.stage_timings if t.name == "label"]
        assert label_row.cached
        assert isinstance(again.labeling.mapping, StoredLabels)
        assert again.labeling.mapping.digest == honest.digest
        assert again.accepted

    def test_edited_wire_form_is_not_served(self, tmp_path):
        # The mapping keeps its own copy of the wire form, so an edit to
        # ``report.encoded`` changes neither its labels nor its key.
        store, _session, report = self._certified(tmp_path)
        loaded = store.load(report.config.graph.fingerprint(), "connected")
        digest = loaded.labeling.mapping.digest
        labels = loaded.encoded.labels
        keys = sorted(labels, key=repr)
        labels[keys[0]], labels[keys[-1]] = labels[keys[-1]], labels[keys[0]]
        assert loaded.labeling.mapping.digest == digest
        assert loaded.labeling.mapping == report.labeling.mapping

    def test_untouched_report_attaches_with_lent_cache(self, tmp_path):
        _store, session, report = self._certified(tmp_path)
        first = report.verification
        assert first.kernel_stats["compiled_round_cached"] is False
        again = session.verify(report)
        self._assert_cached_round(again)
        assert again.verdicts == first.verdicts

    def test_cacheless_executor_compiles_every_round(self, tmp_path):
        # Compiled rounds live only in an artifact cache: an executor
        # without one compiles the same labels again.
        _store, _session, report = self._certified(tmp_path)
        engine = VerificationEngine(VectorizedExecutor())
        rounds = [
            engine.verify(report.config, report.scheme, report.labeling)
            for _ in range(2)
        ]
        for verification in rounds:
            assert verification.kernel_stats["mode"] == "kernel"
            assert verification.kernel_stats["compiled_round_cached"] is False
            assert verification.kernel_stats["compile_seconds"] > 0
            assert verification.accepted
        assert rounds[0].verdicts == rounds[1].verdicts


#: Per-record kernel columns that hold an info, child-list, P-list or
#: tag id, with the record type that fills each (``None``: every
#: record): they depend on the table's numbering, every other ``r_``
#: column holds a value.
_NUMBERED_COLS = {
    "r_info": None,
    "r_minfo": 0, "r_msub": 0, "r_cs": 0,
    "r_bleft": 1, "r_bright": 1, "r_btag": 1,
    "r_etag": 2,
    "r_pvids": 3, "r_ptags": 3, "r_ptagc": 3,
}


def _state_stacks(state):
    """Every stack a compiled round's kernels read, as record id arrays:
    each CSR edge's, then each virtual port's, in order."""
    tables = state["tables"]
    starts, lengths = tables["st_indptr"], tables["st_len"]
    sids = list(state["edge_sid"].tolist())
    for dense in sorted(state["vp_map"]):
        sids.extend(state["vp_map"][dense])
    return [
        tables["st_rec"][starts[sid]:starts[sid] + lengths[sid]].tolist()
        if sid >= 0 else None
        for sid in sids
    ]


def _one_to_one(pairs) -> bool:
    """Whether ``(a, b)`` pairs relate each ``a`` to one ``b`` and back."""
    forward, backward = {}, {}
    return all(
        forward.setdefault(a, b) == b and backward.setdefault(b, a) == a
        for a, b in pairs
    )


def _assert_same_round(prover, plain, id_values):
    """Two compiled-round states of the same labels, from tables that
    number records, infos, stacks and identifiers differently, agree up
    to that numbering."""
    import numpy as np

    from repro.api.vectorized import _CODE_COLS

    assert prover.keys() == plain.keys()
    assert prover["tables"].keys() == plain["tables"].keys()
    for name, column in prover["tables"].items():
        assert column.dtype == plain["tables"][name].dtype, name
    assert prover["vp_map"].keys() == plain["vp_map"].keys()
    assert prover["vp_bad"] == plain["vp_bad"] == []
    # Per CSR edge and per virtual port, the stacks hold the same
    # records position by position: one record map, one-to-one, over
    # every record of both rounds.
    pairs = []
    for ours, theirs in zip(_state_stacks(prover), _state_stacks(plain)):
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert len(ours) == len(theirs)
            pairs.extend(zip(ours, theirs))
    assert _one_to_one(pairs)
    record_map = dict(pairs)
    count = prover["tables"]["r_type"].shape[0]
    assert sorted(record_map) == list(range(count))
    assert sorted(record_map.values()) == list(
        range(plain["tables"]["r_type"].shape[0])
    )
    theirs = np.array([record_map[rid] for rid in range(count)])
    types = prover["tables"]["r_type"]
    for name, column in prover["tables"].items():
        if not name.startswith("r_"):
            continue
        other = plain["tables"][name][theirs]
        if name in _CODE_COLS:
            # Identifier codes number identifiers per table.
            column, other = (
                [ids[code] if code >= 0 else code for code in col.tolist()]
                for ids, col in zip(id_values, (column, other))
            )
            assert column == other, name
            continue
        if name not in _NUMBERED_COLS:
            assert np.array_equal(column, other), name
            continue
        kind = _NUMBERED_COLS[name]
        held = np.ones(count, bool) if kind is None else types == kind
        assert held.any(), name
        assert _one_to_one(
            zip(column[held].tolist(), other[held].tolist())
        ), name


@needs_numpy
class TestRecordTableCompile:
    """A fresh certify's round compiles from the prover's record table, a
    stored labeling's from the table its wire form decodes to, and any
    other mapping from a walk over its edge labels.  The tables number
    records, infos and stacks in different orders, so the rounds agree
    up to that numbering."""

    @pytest.mark.parametrize("mode", ["lanewidth", "theorem1"])
    def test_prover_table_compiles_like_a_plain_copy(self, mode):
        import numpy as np

        from repro.api.store import StoredLabels
        from repro.api.vectorized import (
            KernelRound,
            RoundCompiler,
            _round_table,
        )
        from repro.pls.model import ViewFactory

        if mode == "lanewidth":
            sequence, _graph = lanewidth_workload(3, 48, 5)
            report = CertificationSession(rng=random.Random(5)).certify(
                sequence, "connected", verify=False
            )
            config, scheme, labeling = (
                report.config, report.scheme, report.labeling
            )
        else:
            config, scheme, labeling = _theorem1_case()
        mapping = labeling.mapping
        assert mapping.table is not None
        stored = StoredLabels(mapping.encoded(), "test")
        states, accepts, id_values = [], [], []
        for labels in (mapping, dict(mapping), stored):
            factory = ViewFactory(config, labels, "edges")
            table, rows = _round_table(labels, factory)
            assert (table is mapping.table) == (labels is mapping)
            arrays = factory.round_arrays()
            state = RoundCompiler(
                arrays, table, rows, scheme.algebra, scheme.max_width
            ).compile()
            states.append(state)
            id_values.append(table.id_values)
            accept, _stats = KernelRound.from_state(arrays, state).run(
                range(arrays.n)
            )
            accepts.append(accept)
        # The decoded table is the stored mapping's own, and building it
        # built no label object.
        assert stored.table is not None and stored.decoded is None
        if mode == "theorem1":
            assert states[0]["vp_map"], "the host routes no virtual edge"
        for other in (1, 2):
            _assert_same_round(
                states[0], states[other], (id_values[0], id_values[other])
            )
            # The kernels decide every vertex alike: all accepted, honest.
            assert np.array_equal(accepts[0], accepts[other])
        assert accepts[0].all()


#: Wrong-typed values, rotated over the fields of one honest label.
_WRONG_VALUES = (None, True, 1.5, "x", [], -1, 2**70)


def _field_edits(labeling):
    """``(key, field, rebuild)`` for every field of every label part.

    ``rebuild(value)`` returns the honest label at ``key`` rebuilt with
    ``value`` in ``field``: each record kind's own fields, its
    ``BasicInfo``'s and the T record's ``PointerLabel``'s (on the first
    label holding that kind), an embedded record's, the label's own,
    and the stack container itself.
    """
    import dataclasses

    from repro.core.certificates import (
        BasicInfo,
        BLevelRecord,
        EdgeCertificate,
        ELevelRecord,
        PLevelRecord,
        TLevelRecord,
    )
    from repro.pls.pointer import PointerLabel

    mapping = labeling.mapping
    keys = sorted(mapping, key=repr)
    edits = []

    def record_edit(label, position, rebuild_record):
        stack = label.certificate.stack

        def rebuild(value):
            record = rebuild_record(stack[position], value)
            return dataclasses.replace(
                label,
                certificate=EdgeCertificate(
                    stack[:position] + (record,) + stack[position + 1:]
                ),
            )

        return rebuild

    for kind in (TLevelRecord, BLevelRecord, ELevelRecord, PLevelRecord):
        found = [
            (key, position)
            for key in keys
            for position, record in enumerate(mapping[key].certificate.stack)
            if type(record) is kind
        ]
        if not found:
            continue
        key, position = found[0]
        label = mapping[key]
        parts = [(kind, None), (BasicInfo, "info")]
        if kind is TLevelRecord:
            parts.append((PointerLabel, "pointer"))
        for part, attribute in parts:
            for field in dataclasses.fields(part):
                if attribute is None:
                    def rebuild_record(record, value, name=field.name):
                        return dataclasses.replace(record, **{name: value})
                else:
                    def rebuild_record(
                        record, value, name=field.name, attribute=attribute
                    ):
                        inner = dataclasses.replace(
                            getattr(record, attribute), **{name: value}
                        )
                        return dataclasses.replace(
                            record, **{attribute: inner}
                        )
                edits.append((
                    key,
                    f"{kind.__name__}.{attribute or ''}.{field.name}",
                    record_edit(label, position, rebuild_record),
                ))
    with_embedded = [key for key in keys if mapping[key].embedded]
    if with_embedded:
        key = with_embedded[0]
        label = mapping[key]
        for field in dataclasses.fields(EmbeddedRecord):
            def rebuild(value, name=field.name, label=label):
                first = dataclasses.replace(
                    label.embedded[0], **{name: value}
                )
                return dataclasses.replace(
                    label, embedded=(first,) + label.embedded[1:]
                )
            edits.append((key, f"EmbeddedRecord.{field.name}", rebuild))
    label = mapping[keys[0]]
    for field in dataclasses.fields(Theorem1Label):
        def rebuild(value, name=field.name, label=label):
            return dataclasses.replace(label, **{name: value})
        edits.append((keys[0], f"Theorem1Label.{field.name}", rebuild))
    edits.append((
        keys[0],
        "EdgeCertificate.stack",
        lambda value, label=label: dataclasses.replace(
            label, certificate=EdgeCertificate(value)
        ),
    ))
    return edits


@needs_numpy
class TestWrongTypeFields:
    """One honest label rebuilt with a wrong-typed value in one field at
    a time: the audit-mode vectorized engine returns the serial engine's
    verdicts, and neither engine raises.  The record table marks such a
    record, and the compiler flags it into the reference path."""

    def test_both_engines_agree_on_every_field(self):
        covered = set()
        for offset, (config, scheme, labeling) in enumerate(
            (_case(7), _theorem1_case())
        ):
            for index, (key, field, rebuild) in enumerate(
                _field_edits(labeling)
            ):
                value = _WRONG_VALUES[(index + 3 * offset) % len(_WRONG_VALUES)]
                mapping = dict(labeling.mapping)
                mapping[key] = rebuild(value)
                tampered = Labeling(
                    labeling.location, mapping, labeling.size_context
                )
                _serial, vectorized = _assert_equivalent(
                    config, scheme, tampered
                )
                assert vectorized.kernel_stats["mode"] == "kernel", field
                covered.add(field.split(".")[0])
        assert covered == {
            "TLevelRecord", "BLevelRecord", "ELevelRecord", "PLevelRecord",
            "EmbeddedRecord", "Theorem1Label", "EdgeCertificate",
        }


# ----------------------------------------------------------------------
# Re-derivations once per shape
# ----------------------------------------------------------------------
def _first_appearance_py(row):
    """A row renamed 0, 1, 2, ... by first appearance; -1 stays -1."""
    names = {}
    return [-1 if x == -1 else names.setdefault(x, len(names)) for x in row]


def _map_labels(mapping, ident=lambda x: x, info_edit=None, record_edit=None):
    """``mapping`` with every label rebuilt: each identifier ``x`` becomes
    ``ident(x)``, and ``info_edit(old, new)`` / ``record_edit(old, new)``
    may replace the rebuilt ``new`` of an info or record.  An object
    shared by several labels is rebuilt once and stays shared."""
    from repro.core.certificates import (
        BLevelRecord,
        EdgeCertificate,
        ELevelRecord,
        TLevelRecord,
    )

    replace = dataclasses.replace
    memo = {}

    def once(value, build):
        hit = memo.get(id(value))
        if hit is None:
            hit = memo[id(value)] = (value, build(value))
        return hit[1]

    def terminals(pairs):
        return tuple([(lane, ident(x)) for lane, x in pairs])

    def build_info(old):
        new = replace(
            old, in_ids=terminals(old.in_ids), out_ids=terminals(old.out_ids)
        )
        return info_edit(old, new) if info_edit else new

    def info(value):
        return once(value, build_info)

    def build_record(old):
        kind = type(old)
        if kind is TLevelRecord:
            pointer = old.pointer
            new = replace(
                old,
                info=info(old.info),
                member_info=info(old.member_info),
                member_subtree=info(old.member_subtree),
                child_subtrees=tuple(info(c) for c in old.child_subtrees),
                pointer=replace(
                    pointer,
                    target_id=ident(pointer.target_id),
                    id_a=ident(pointer.id_a),
                    id_b=ident(pointer.id_b),
                ),
            )
        elif kind is BLevelRecord:
            new = replace(
                old,
                info=info(old.info),
                left=info(old.left),
                right=info(old.right),
            )
        elif kind is ELevelRecord:
            new = replace(
                old,
                info=info(old.info),
                in_id=ident(old.in_id),
                out_id=ident(old.out_id),
            )
        else:
            new = replace(
                old,
                info=info(old.info),
                vertex_ids=tuple(ident(x) for x in old.vertex_ids),
            )
        return record_edit(old, new) if record_edit else new

    def cert(value):
        return once(
            value,
            lambda old: EdgeCertificate(
                tuple(once(r, build_record) for r in old.stack)
            ),
        )

    def label(old):
        return Theorem1Label(
            cert(old.certificate),
            tuple(
                replace(
                    e, u_id=ident(e.u_id), v_id=ident(e.v_id),
                    payload=cert(e.payload),
                )
                for e in old.embedded
            ),
        )

    return {key: label(value) for key, value in mapping.items()}


def _label_parts(mapping):
    """Every distinct record and info of ``mapping``, in key order."""
    records, infos, seen = [], [], set()
    for key in sorted(mapping, key=repr):
        label = mapping[key]
        stacks = [label.certificate] + [e.payload for e in label.embedded]
        for cert in stacks:
            for record in cert.stack:
                if id(record) in seen:
                    continue
                seen.add(id(record))
                records.append(record)
                for name in ("info", "member_info", "member_subtree",
                             "left", "right"):
                    part = getattr(record, name, None)
                    if part is not None and id(part) not in seen:
                        seen.add(id(part))
                        infos.append(part)
    return records, infos


def _edited(mapping, edit, rng):
    """A tampered copy of ``mapping``: one object changed wherever it
    occurs.  ``edit`` is ``terminal`` (an info's in-terminal identifier
    replaced by another identifier of the labeling), ``children`` (a T
    record's child subtrees swapped), ``state`` (an info's state replaced
    by another info's) or ``endpoint`` (a bridge lane moved off its left
    child's lanes, so the bridge has no left endpoint)."""
    from repro.core.certificates import BLevelRecord, TLevelRecord

    records, infos = _label_parts(mapping)
    info_edit = record_edit = None
    if edit == "terminal":
        target = rng.choice([b for b in infos if b.in_ids])
        position = rng.randrange(len(target.in_ids))
        others = sorted(
            {x for b in infos for _l, x in b.in_ids + b.out_ids}
            - {target.in_ids[position][1]}
        )
        other = rng.choice(others)

        def info_edit(old, new):
            if old is not target:
                return new
            ins = list(new.in_ids)
            ins[position] = (ins[position][0], other)
            return dataclasses.replace(new, in_ids=tuple(ins))
    elif edit == "state":
        target = rng.choice(infos)
        states = [b.state for b in infos if b.state != target.state]
        state = rng.choice(states) if states else target.state

        def info_edit(old, new):
            if old is not target:
                return new
            return dataclasses.replace(new, state=state)
    elif edit == "children":
        swappable = [
            r for r in records
            if type(r) is TLevelRecord and len(r.child_subtrees) >= 2
        ]
        target = rng.choice(swappable) if swappable else None

        def record_edit(old, new):
            if old is not target:
                return new
            kids = new.child_subtrees
            return dataclasses.replace(new, child_subtrees=kids[1:] + kids[:1])
    else:
        bridges = [r for r in records if type(r) is BLevelRecord]
        target = rng.choice(bridges) if bridges else None
        lane = max(target.left.lanes, default=-1) + 1 if bridges else 0

        def record_edit(old, new):
            if old is not target:
                return new
            return dataclasses.replace(new, bridge=(lane, new.bridge[1]))
    return _map_labels(mapping, info_edit=info_edit, record_edit=record_edit)


def _derived(compiler_class, config, scheme, mapping):
    """The re-derived per-record columns of one compile, its
    re-derivation count, and the table it compiled."""
    from repro.api.vectorized import _Tables, _round_table
    from repro.pls.model import ViewFactory

    factory = ViewFactory(config, mapping, "edges")
    table, rows = _round_table(mapping, factory)
    compiler = compiler_class(
        factory.round_arrays(), table, rows, scheme.algebra, scheme.max_width
    )
    t = _Tables()
    _member_node, _kid_t, leaf = compiler._record_columns(t)
    columns = {
        name: getattr(t, name)
        for name in ("r_root", "r_fold", "r_rmc", "r_bok", "r_ep1", "r_ep2")
    }
    columns["leaf"] = leaf
    return columns, compiler.derivations, table


def _endpoints(table):
    """``(r_ep1, r_ep2)`` by hand: the codes of ``left.out_id(i)`` and
    ``right.out_id(j)`` of every bridge record, ``_NO_CODE`` for none."""
    from repro.api.vectorized import _NO_CODE
    from repro.codec.table import B

    count = len(table.records)
    ends = (np.full(count, _NO_CODE), np.full(count, _NO_CODE))
    for rid, (_info, left, right, i, j, _tag, _side) in zip(
        table.rids[B], table.rows[B]
    ):
        for column, child, lane in ((ends[0], left, i), (ends[1], right, j)):
            found = table.infos[child].out_id(lane)
            if found is not None:
                column[rid] = table.id_code[found]
    return ends


@needs_numpy
class TestShapeDerivations:
    """The compiler re-derives each class once per shape, not once per
    key.  A per-key compile (every key its own shape) is the oracle for
    the derived columns, hand-read ``out_id`` codes for the bridge
    endpoints, and the serial engine for the verdicts."""

    @staticmethod
    def _per_key_compiler():
        from repro.api.vectorized import RoundCompiler

        class PerKey(RoundCompiler):
            def _shapes(self, infos, fields=None):
                return None

        return PerKey

    @given(
        st.lists(
            st.lists(
                st.sampled_from([-1, -1, 0, 1, 2, 3, 7, 2**40]),
                min_size=0,
                max_size=9,
            ),
            min_size=0,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=150, deadline=None)
    def test_first_appearance_matches_python(self, rows, cols):
        from repro.api.vectorized import _first_appearance, _unique_rows

        matrix = np.array(
            [(row + [-1] * cols)[:cols] for row in rows], np.int64
        ).reshape(len(rows), cols)
        renamed = _first_appearance(matrix)
        assert renamed.dtype == matrix.dtype
        assert renamed.tolist() == [
            _first_appearance_py(row) for row in matrix.tolist()
        ]
        if rows:
            first, inverse = _unique_rows(matrix)
            listed = [tuple(row) for row in matrix.tolist()]
            assert sorted(first.tolist()) == sorted(
                {row: listed.index(row) for row in listed}.values()
            )
            for index, row in enumerate(listed):
                assert listed[first[inverse[index]]] == row

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["lanewidth", "theorem1"]),
        st.sampled_from(
            ["honest", "renamed", "terminal", "children", "state", "endpoint"]
        ),
    )
    @settings(max_examples=14, deadline=None)
    @example(seed=0, mode="lanewidth", edit="honest")
    @example(seed=1, mode="lanewidth", edit="renamed")
    @example(seed=2, mode="lanewidth", edit="terminal")
    @example(seed=3, mode="lanewidth", edit="children")
    @example(seed=4, mode="lanewidth", edit="state")
    @example(seed=5, mode="lanewidth", edit="endpoint")
    @example(seed=1, mode="theorem1", edit="honest")
    @example(seed=2, mode="theorem1", edit="renamed")
    @example(seed=3, mode="theorem1", edit="terminal")
    @example(seed=4, mode="theorem1", edit="children")
    @example(seed=5, mode="theorem1", edit="state")
    @example(seed=6, mode="theorem1", edit="endpoint")
    def test_shapes_derive_like_keys(self, seed, mode, edit):
        from repro.api.vectorized import RoundCompiler

        if mode == "lanewidth":
            config, scheme, labeling = _case(seed)
        else:
            graph, _decomposition = pathwidth_workload(14, 2, seed % 50)
            report = CertificationSession(
                k=2, rng=random.Random(seed)
            ).certify(graph, "connected", verify=False)
            assert not report.refused, report.refusal
            config, scheme, labeling = (
                report.config, report.scheme, report.labeling
            )
        rng = random.Random(seed)
        mapping = labeling.mapping
        if edit == "renamed":
            # One injection over every identifier: the same columns and
            # the same number of shapes as the labels it renames (walked
            # alike, so the records are numbered alike).
            honest, honest_count, _table = _derived(
                RoundCompiler, config, scheme, dict(mapping)
            )
            ids = sorted(config.ids.values())
            drawn = rng.sample(range(-(2**40), 2**40), len(ids))
            rename = dict(zip(ids, drawn))
            config = Configuration(
                config.graph, {v: rename[x] for v, x in config.ids.items()}
            )
            mapping = _map_labels(mapping, ident=rename.__getitem__)
        elif edit != "honest":
            mapping = _edited(mapping, edit, rng)
        shaped, derivations, table = _derived(
            RoundCompiler, config, scheme, mapping
        )
        keyed, per_key, _table = _derived(
            self._per_key_compiler(), config, scheme, mapping
        )
        for name, column in keyed.items():
            assert np.array_equal(shaped[name], column), name
        ep1, ep2 = _endpoints(table)
        assert np.array_equal(shaped["r_ep1"], ep1)
        assert np.array_equal(shaped["r_ep2"], ep2)
        assert derivations <= per_key
        if edit == "honest":
            assert mapping.table is table  # the prover's own table
        if edit == "renamed":
            assert derivations == honest_count
            for name in ("r_root", "r_fold", "r_rmc", "r_bok", "leaf"):
                assert np.array_equal(shaped[name], honest[name]), name
        _assert_equivalent(
            config,
            scheme,
            Labeling(labeling.location, mapping, labeling.size_context),
        )

    @pytest.mark.parametrize("width", [1, 3])
    def test_wide_keys_derive_once_per_key(self, monkeypatch, width):
        """Past ``_SHAPE_WIDTH`` (lanes of an info at 1, infos of a fold
        key at 3) the compile falls back to one derivation per key."""
        import repro.api.vectorized as vectorized

        config, scheme, labeling = _case(8, extra=16)
        mapping = dict(labeling.mapping)
        keyed, per_key, _table = _derived(
            self._per_key_compiler(), config, scheme, mapping
        )
        monkeypatch.setattr(vectorized, "_SHAPE_WIDTH", width)
        wide, count, _table = _derived(
            vectorized.RoundCompiler, config, scheme, mapping
        )
        for name, column in keyed.items():
            assert np.array_equal(wide[name], column), name
        if width == 1:
            assert count == per_key
        else:
            assert count < per_key

    def test_missing_endpoint_never_matches_an_outside_vertex(self):
        """A bridge lane off its child's lanes has no endpoint, coded
        ``_NO_CODE``; a vertex whose identifier is in no label has
        ``me_code`` -1.  The two codes differ, so no such vertex sits at
        a missing endpoint, and the verdicts stay the serial engine's."""
        from repro.api.vectorized import _NO_CODE, RoundCompiler, _round_table
        from repro.pls.model import ViewFactory

        config, scheme, labeling = _case(12)
        mapping = _edited(labeling.mapping, "endpoint", random.Random(12))
        outside = sorted(config.graph.vertices(), key=repr)[0]
        ids = dict(config.ids)
        ids[outside] = max(ids.values()) + 1
        config = Configuration(config.graph, ids)
        factory = ViewFactory(config, mapping, "edges")
        table, rows = _round_table(mapping, factory)
        state = RoundCompiler(
            factory.round_arrays(), table, rows, scheme.algebra,
            scheme.max_width,
        ).compile()
        tables = state["tables"]
        me_code = tables["me_code"]
        dense = factory.index_of(outside)
        assert _NO_CODE != -1
        assert me_code[dense] == -1
        assert (tables["r_ep1"] == _NO_CODE).any()
        for name in ("r_ep1", "r_ep2"):
            assert not (tables[name] == me_code[dense]).any(), name
        _assert_equivalent(
            config,
            scheme,
            Labeling(labeling.location, mapping, labeling.size_context),
        )

    def test_honest_lanewidth_round_derives_per_shape(self):
        from repro.api.vectorized import RoundCompiler

        config, scheme, labeling = _case(3, extra=48)
        shaped, derivations, table = _derived(
            RoundCompiler, config, scheme, labeling.mapping
        )
        _keyed, per_key, _table = _derived(
            self._per_key_compiler(), config, scheme, labeling.mapping
        )
        assert derivations < per_key
        assert derivations < len(table.records)
        report = VerificationEngine(VectorizedExecutor()).verify(
            config, scheme, labeling
        )
        assert report.kernel_stats["derivations"] == derivations
