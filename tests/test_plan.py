"""Tests for plan-based proving (repro.api.plan / artifacts).

The acceptance contract of the plan refactor:

* **session batch ≡ from-scratch proofs** — a hypothesis suite asserts
  the session's batch, which shares one structure across properties,
  produces reports identical to one independent from-scratch proof per
  property (verdict, measured encoded bits, class counts) on random
  lanewidth hosts and random pathwidth graphs;
* **warm cache runs zero structural nodes** — stage-counter assertions
  in-session, across sessions sharing a cache, and from a **fresh
  interpreter** over a disk-backed cache;
* corrupted artifact envelopes are treated as misses (recompute), never
  as failures.
"""

import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ArtifactCache,
    CertificateStore,
    CertificationPlan,
    CertificationSession,
    LabelStage,
    PipelineContext,
    PlanError,
    PlanRunner,
    VectorizedExecutor,
    VerificationEngine,
    lanewidth_plan,
    run_plan,
    theorem1_plan,
)
from repro.api.artifacts import (
    ARTIFACT_DIGEST_SIZE,
    ARTIFACT_MAGIC,
    seal,
    unseal,
)
from repro.api.store import StoredLabels
from repro.codec import WIRE_VERSION, encode_labeling
from repro.core import apply_construction, random_lanewidth_sequence
from repro.experiments import lanewidth_workload
from repro.graphs.generators import path_graph, random_pathwidth_graph
from repro.pls.model import Configuration

SRC = str(Path(__file__).resolve().parent.parent / "src")

STRUCTURAL_T1 = ("decompose", "lanes", "completion", "hierarchy")

ZOO = ["connected", "acyclic", "bipartite", "even-order", "max-degree-2"]

#: A report's measured and accounted label-size figures.
BIT_FIGURES = (
    "max_label_bits",
    "mean_label_bits",
    "total_label_bits",
    "accounted_max_label_bits",
    "accounted_mean_label_bits",
    "accounted_total_label_bits",
)


def _from_scratch_facts(config, plan, algebra_key):
    """One independent from-scratch proof (fresh cache); comparable facts."""
    from repro.pls.scheme import ProverFailure

    try:
        labeling = run_plan(plan, config, algebra_key)
    except ProverFailure as failure:
        return {"refused": True, "refusal": str(failure)}
    encoded = encode_labeling(labeling)
    return {
        "refused": False,
        "class_count": labeling.size_context.class_count,
        "max_bits": encoded.max_bits,
        "mean_bits": encoded.mean_bits,
        "total_bits": encoded.total_bits,
        "mapping": labeling.mapping,
    }


def _assert_report_matches(report, facts, key):
    assert report.refused == facts["refused"], key
    if facts["refused"]:
        assert report.refusal == facts["refusal"], key
        return
    assert report.accepted, key
    assert report.class_count == facts["class_count"], key
    assert report.max_label_bits == facts["max_bits"], key
    assert report.mean_label_bits == facts["mean_bits"], key
    assert report.total_label_bits == facts["total_bits"], key
    assert report.labeling.mapping == facts["mapping"], key


class TestPlanEquivalentToLegacyPipeline:
    """The reference is what the legacy linear pipeline computed: one
    from-scratch proof per property, sharing nothing."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_lanewidth_mode_identical_reports(self, seed):
        rng = random.Random(seed)
        seq = random_lanewidth_sequence(2, rng.randrange(4, 14), rng)
        graph = apply_construction(seq)
        config = Configuration.with_random_ids(graph, random.Random(seed + 1))
        # Same configuration on both paths: the session draws ids from
        # an rng seeded identically to `config`'s — the ids must agree
        # for the labels (which embed them) to agree bit for bit.
        session_reports = CertificationSession(
            rng=random.Random(seed + 1)
        ).certify(seq, ZOO, verify=False)
        for key in ZOO:
            facts = _from_scratch_facts(config, lanewidth_plan(seq), key)
            _assert_report_matches(session_reports[key], facts, key)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_theorem1_mode_identical_reports(self, seed):
        rng = random.Random(seed)
        graph, _bags = random_pathwidth_graph(rng.randrange(8, 16), 2, rng)
        config = Configuration.with_random_ids(graph, random.Random(seed + 1))
        reports = CertificationSession(
            k=2, rng=random.Random(seed + 1)
        ).certify(graph, ZOO, verify=False)
        for key in ZOO:
            facts = _from_scratch_facts(config, theorem1_plan(2), key)
            _assert_report_matches(reports[key], facts, key)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_warm_cache_reports_identical_to_cold(self, seed, tmp_path_factory):
        root = tmp_path_factory.mktemp("plancache")
        rng = random.Random(seed)
        seq = random_lanewidth_sequence(2, rng.randrange(4, 12), rng)
        cache = ArtifactCache(root / f"a{seed}")
        cold = CertificationSession(
            rng=random.Random(seed + 2), artifacts=cache
        ).certify(seq, ZOO, verify=False)
        warm_session = CertificationSession(
            rng=random.Random(seed + 2), artifacts=cache
        )
        warm = warm_session.certify(seq, ZOO, verify=False)
        # Zero structural stage runs on the warm pass; refused
        # properties re-evaluate (refusals are never cached).
        assert "match" not in warm_session.stage_counters
        assert "hierarchy" not in warm_session.stage_counters
        assert "label" not in warm_session.stage_counters
        for key in ZOO:
            a, b = cold[key], warm[key]
            assert a.refused == b.refused, key
            if not a.refused:
                assert b.structure_cached
                assert a.max_label_bits == b.max_label_bits, key
                assert a.total_label_bits == b.total_label_bits, key
                assert a.class_count == b.class_count, key
                assert a.labeling.mapping == b.labeling.mapping, key


class TestWarmCacheStageCounters:
    def test_shared_cache_across_sessions_skips_structural_nodes(self):
        seq, _graph = lanewidth_workload(2, 18, 31)
        cache = ArtifactCache()  # memory-only, shared across sessions
        first = CertificationSession(
            rng=random.Random(1), artifacts=cache
        )
        first.certify(seq, "connected", verify=False)
        assert first.stage_counters["match"] == 1
        assert first.stage_counters["hierarchy"] == 1
        second = CertificationSession(
            rng=random.Random(2), artifacts=cache
        )
        report = second.certify(seq, "connected", verify=False)
        assert report.accepted
        assert report.structure_cached
        # Different session, different ids: evaluate comes from the
        # cache (keyed on hierarchy + algebra), label reruns (keyed on
        # the configuration's identifiers).
        assert "match" not in second.stage_counters
        assert "hierarchy" not in second.stage_counters
        assert "evaluate" not in second.stage_counters
        assert second.stage_counters["label"] == 1

    def test_theorem1_warm_cache_zero_structural_nodes(self, tmp_path):
        rng = random.Random(33)
        graph, _bags = random_pathwidth_graph(16, 2, rng)
        cache = ArtifactCache(tmp_path / "artifacts")
        cold = CertificationSession(
            k=2, rng=random.Random(34), artifacts=cache
        )
        cold.certify(graph, ["connected", "even-order"], verify=False)
        for name in STRUCTURAL_T1:
            assert cold.stage_counters[name] == 1
        warm = CertificationSession(
            k=2, rng=random.Random(35), artifacts=cache
        )
        report = warm.certify(graph, ["connected", "even-order"], verify=False)
        assert all(r.accepted for r in report.values())
        for name in STRUCTURAL_T1:
            assert name not in warm.stage_counters, warm.stage_counters
        cached_names = {
            t.name
            for t in report["connected"].stage_timings
            if t.cached
        }
        assert set(STRUCTURAL_T1) <= cached_names

    @pytest.mark.parametrize("mode", ["theorem1", "lanewidth"])
    def test_second_cache_resolves_every_node_from_disk(self, tmp_path, mode):
        # Each session has its own cache over one directory, so the warm
        # one reads every node back through the envelope loader.
        if mode == "theorem1":
            target, _bags = random_pathwidth_graph(16, 2, random.Random(33))
        else:
            target, _graph = lanewidth_workload(2, 20, 41)
        art_dir = tmp_path / "artifacts"
        runs = []
        for _run in ("cold", "warm"):
            cache = ArtifactCache(art_dir)
            session = CertificationSession(
                k=2, rng=random.Random(34), artifacts=cache
            )
            reports = session.certify(
                target, ["connected", "even-order"], verify=False
            )
            runs.append((session, cache, reports))
        (cold, _cold_cache, cold_reports), (warm, cache, reports) = runs
        assert sum(cold.stage_counters.values()) == len(
            list(art_dir.glob("*.art"))
        )
        assert warm.stage_counters == {}
        assert cache.misses == 0 and cache.hits > 0
        for key, report in reports.items():
            assert report.accepted and report.structure_cached
            assert all(t.cached for t in report.stage_timings)
            cold_labels = cold_reports[key].labeling.mapping
            assert report.labeling.mapping == cold_labels

    def test_fresh_interpreter_runs_zero_structural_nodes(self, tmp_path):
        """The tentpole acceptance, literally: a separate process with a
        warm disk cache batch-certifies a previously seen graph with
        zero structural stage runs (and, with the same identifier draw,
        zero stage runs at all).  Both processes verify on a store-backed
        vectorized session; the fresh one attaches the persisted
        compiled round and builds its reports without reading a label."""
        store = CertificateStore(tmp_path)
        seq, _graph = lanewidth_workload(2, 20, 41)
        session = CertificationSession(
            rng=random.Random(42),
            store=store,
            engine=VerificationEngine(VectorizedExecutor()),
        )
        reports = session.certify(seq, ["connected", "even-order"])
        assert all(r.accepted for r in reports.values())
        assert session.stage_counters["match"] == 1
        script = (
            "import random, sys\n"
            "from repro.api import (CertificateStore, CertificationSession,\n"
            "                       VectorizedExecutor, VerificationEngine)\n"
            "from repro.experiments import lanewidth_workload\n"
            "store = CertificateStore(sys.argv[1])\n"
            "seq, _graph = lanewidth_workload(2, 20, 41)\n"
            "session = CertificationSession(\n"
            "    rng=random.Random(42), store=store,\n"
            "    engine=VerificationEngine(VectorizedExecutor()))\n"
            "reports = session.certify(seq, ['connected', 'even-order'])\n"
            "assert all(r.accepted for r in reports.values())\n"
            "assert all(r.structure_cached for r in reports.values())\n"
            "# Same graph, same identifier draw: every node resolves.\n"
            "assert session.stage_counters == {}, session.stage_counters\n"
            "for key, r in sorted(reports.items()):\n"
            "    assert r.compiled_round_cached, key\n"
            "    assert r.labeling.mapping.decoded is None, key\n"
            f"    print('WARM', key, *(getattr(r, f) for f in {BIT_FIGURES}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for key, r in sorted(reports.items()):
            figures = [getattr(r, f) for f in BIT_FIGURES]
            line = " ".join(str(x) for x in ("WARM", key, *figures))
            assert line in proc.stdout.splitlines(), (line, proc.stdout)

    def test_corrupted_artifact_is_a_miss_not_a_failure(self, tmp_path):
        cache = ArtifactCache(tmp_path / "artifacts")
        seq, _graph = lanewidth_workload(2, 14, 43)
        CertificationSession(
            rng=random.Random(44), artifacts=cache
        ).certify(seq, "connected", verify=False)
        art_dir = tmp_path / "artifacts"
        paths = sorted(art_dir.glob("*.art"))
        assert paths
        # Bit-flip one envelope and truncate another: both must simply
        # be recomputed by a fresh session over the same directory.
        paths[0].write_bytes(b"junk")
        if len(paths) > 1:
            payload = paths[1].read_bytes()
            paths[1].write_bytes(payload[: len(payload) // 2])
        session = CertificationSession(
            rng=random.Random(44), artifacts=ArtifactCache(art_dir)
        )
        report = session.certify(seq, "connected", verify=False)
        assert report.accepted
        assert session.stage_counters  # something had to rerun

    def test_bit_flipped_envelopes_are_misses(self, tmp_path):
        """A flipped envelope may load as a pickle with changed values;
        the payload digest must turn every flip into a miss, never a
        wrong verdict, a refusal or a raise.  Even trials reuse the
        stored identifiers (every node resolves, the label too); odd
        trials draw fresh ones (the hierarchy and the evaluation are
        read, the label is rebuilt from them)."""
        seq, _graph = lanewidth_workload(3, 24, 5)
        art_dir = tmp_path / "artifacts"
        CertificationSession(
            rng=random.Random(6), artifacts=ArtifactCache(art_dir)
        ).certify(seq, "connected", verify=False)
        originals = {p: p.read_bytes() for p in sorted(art_dir.glob("*.art"))}
        assert len(originals) == 4  # match, hierarchy, evaluate, label
        rng = random.Random(1)
        for trial in range(200):
            path = rng.choice(sorted(originals))
            payload = bytearray(originals[path])
            for _ in range(rng.randint(1, 2)):
                bit = rng.randrange(len(payload) * 8)
                payload[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(payload))
            ids = random.Random(6 if trial % 2 == 0 else 1000 + trial)
            report = CertificationSession(
                rng=ids, artifacts=ArtifactCache(art_dir)
            ).certify(seq, "connected")
            assert report.accepted and not report.refused, (trial, path)
            path.write_bytes(originals[path])

    def test_canonical_state_repr_is_injective_across_container_types(self):
        from repro.courcelle.algebra import canonical_state_repr

        forms = [
            frozenset(), {}, (), [], set(),
            frozenset({1}), {1: 1}, (1,), [1],
        ]
        reprs = [canonical_state_repr(f) for f in forms]
        # set/frozenset intentionally coincide (same semantics); every
        # other container type must stay distinguishable.
        assert reprs[0] == reprs[4]
        distinct = [reprs[0], reprs[1], reprs[2], reprs[3]]
        assert len(set(distinct)) == len(distinct)
        assert len({reprs[5], reprs[6], reprs[7], reprs[8]}) == 4

    def test_swapped_key_artifact_rejected_on_load(self, tmp_path):
        cache = ArtifactCache(tmp_path / "artifacts")
        entry = cache.put("a" * 40, "decompose", {"x": 1}, 0.1)
        assert entry is not None
        # Rename the envelope: the recorded key no longer matches.
        src = cache.path_for("a" * 40)
        dst = cache.path_for("b" * 40)
        src.rename(dst)
        fresh = ArtifactCache(tmp_path / "artifacts")
        assert fresh.get("b" * 40) is None
        assert fresh.get("a" * 40) is None

    def test_prover_payload_is_pickle_stable(self):
        # Disk artifacts pickle the structural payload: hierarchy
        # evaluations are node_id-keyed, so an evaluation read back in
        # another process still resolves against an equal hierarchy copy.
        from repro.core.hierarchy import evaluate_hierarchy
        from repro.courcelle.registry import algebra_for

        seq, _graph = lanewidth_workload(2, 12, 55)
        config = Configuration.with_random_ids(
            apply_construction(seq), random.Random(56)
        )
        plan = lanewidth_plan(seq)
        ctx = PipelineContext(config=config)
        PlanRunner(ArtifactCache()).run(
            plan,
            ctx,
            {"graph": config.graph.fingerprint(), "config": "c"},
            nodes=plan.structural_nodes(),
        )
        root2 = pickle.loads(pickle.dumps(ctx.root))
        ev = evaluate_hierarchy(ctx.root, algebra_for("connected"))
        ev2 = pickle.loads(pickle.dumps(ev))
        assert ev2.for_node(root2).state == ev.for_node(ctx.root).state
        assert ev2.for_node(root2).boundary == ev.for_node(ctx.root).boundary


class TestEnvelopes:
    """One envelope format for every file: ``seal`` writes it and
    ``unseal`` reads it through an allow-list of globals."""

    @staticmethod
    def _enveloped(body: bytes) -> bytes:
        """Raw pickle opcodes behind the magic and their own digest."""
        digest = hashlib.blake2b(body, digest_size=ARTIFACT_DIGEST_SIZE)
        return ARTIFACT_MAGIC + digest.digest() + body

    def test_seal_writes_the_artifact_bytes(self):
        manifest = {
            "artifact_version": 2,
            "key": "k",
            "outputs": {"x": (1, 2.5, "s", b"b", None, frozenset({3}))},
        }
        sealed = seal(manifest)
        assert sealed == self._enveloped(pickle.dumps(manifest, protocol=4))
        assert unseal(sealed) == manifest

    def test_library_types_and_numpy_arrays_load(self):
        numpy = pytest.importorskip("numpy")
        graph = path_graph(5)
        loaded = unseal(seal({"graph": graph, "column": numpy.arange(4)}))
        assert loaded["graph"].fingerprint() == graph.fingerprint()
        assert loaded["column"].tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "body",
        [
            b"cbuiltins\nopen\n.",  # a builtin
            b"cos\nsystem\n.",  # a function outside the library
            b"crepro.graphs.generators\npath_graph\n.",  # a library function
            b"crepro.graphs.graph\ndeque\n.",  # a class imported there
            b"crepro.api.session\nCertificationSession\n.",  # another package
            b"\x80\x04crepro.graphs\ngraph.Graph\n.",  # a dotted name
        ],
    )
    def test_unseal_refuses_every_other_global(self, body):
        with pytest.raises(ValueError, match="does not load"):
            unseal(self._enveloped(body))

    def test_unseal_refuses_what_seal_did_not_write(self):
        manifest = {"store_version": 1}
        sealed = seal(manifest)
        for payload, reason in [
            (b"repro-cert\x00" + pickle.dumps(manifest, protocol=4), "not an"),
            (sealed[:-1], "digest"),
            (sealed[:-1] + bytes([sealed[-1] ^ 1]), "digest"),
            (seal([manifest]), "no manifest"),
        ]:
            with pytest.raises(ValueError, match=reason):
                unseal(payload)


class TestLabelNode:
    """The label node emits its labels in final form: encoded once,
    served read-only through ``StoredLabels``, sized, and keyed on the
    wire version."""

    @staticmethod
    def _manifest(path):
        return unseal(path.read_bytes())

    def test_label_artifact_is_written_once_in_wire_form(self, tmp_path):
        seq, _graph = lanewidth_workload(3, 48, 5)
        report = CertificationSession(
            rng=random.Random(5), store=CertificateStore(tmp_path)
        ).certify(seq, "connected")
        (entry,) = tmp_path.rglob("*.cert")
        (label,) = [
            path for path in tmp_path.rglob("*.art")
            if self._manifest(path)["stage"] == "label"
        ]
        # Wire bytes, not label objects: the whole node output is no
        # larger than the store entry holding the same certificates.
        assert label.stat().st_size <= entry.stat().st_size
        key = self._manifest(label)["key"]
        outputs = ArtifactCache(label.parent).get(key).outputs
        mapping = outputs["labeling"].mapping
        assert isinstance(mapping, StoredLabels)
        assert mapping.decoded is None
        assert mapping.digest == report.labeling.mapping.digest
        assert mapping == report.labeling.mapping
        assert outputs["accounted_bits"] == (
            report.accounted_max_label_bits,
            report.accounted_mean_label_bits,
            report.accounted_total_label_bits,
        )

    def test_only_the_label_key_names_the_wire_version(self, monkeypatch):
        import repro.api.pipeline as pipeline

        seq, _graph = lanewidth_workload(3, 32, 1)
        sources = {"graph": "fp", "config": "cfp", "algebra": "connected"}
        plans = {"theorem1": theorem1_plan(3), "lanewidth": lanewidth_plan(seq)}
        # Every structural and evaluate key is the one written before the
        # label node carried wire bytes (pinned through the evaluate key,
        # which chains every structural node); the label key is not.
        # The theorem1 evaluate key is the one written since the
        # decompose key named the witness-search policy and its node
        # budget (the lanes key names its builder policy too).
        pinned = {
            "theorem1": ("8846644749e35b80b48d235227b0221f9b2709a2",
                         "350192c9b4219347b30533d5470fcafc94f6b186"),
            "lanewidth": ("dcf0300235c59ad2f039dd39f335f5099a95cbb9",
                          "8f98297e49c55236b755aa71c907f0e725619095"),
        }
        before = {}
        for mode, plan in plans.items():
            before[mode] = plan.chain_keys(sources)
            evaluation, old_label = pinned[mode]
            assert before[mode]["evaluation"].key == evaluation
            assert before[mode]["labeling"].key != old_label
        monkeypatch.setattr(pipeline, "WIRE_VERSION", WIRE_VERSION + 1)
        for mode, plan in plans.items():
            after = plan.chain_keys(sources)
            changed = {
                name for name in after if after[name] != before[mode][name]
            }
            assert changed == set(LabelStage.outputs), mode

    def test_label_row_is_net_of_the_encode(self):
        seq, _graph = lanewidth_workload(3, 48, 5)
        cache = ArtifactCache()
        cold = CertificationSession(
            rng=random.Random(5), artifacts=cache
        ).certify(seq, "connected", verify=False)
        # Same identifiers: the label node hits, encodes nothing, and its
        # cached row replays the node's full cost.
        warm = CertificationSession(
            rng=random.Random(5), artifacts=cache
        ).certify(seq, "connected", verify=False)
        (cold_row,) = [t for t in cold.stage_timings if t.name == "label"]
        (warm_row,) = [t for t in warm.stage_timings if t.name == "label"]
        assert not cold_row.cached and warm_row.cached
        assert cold.encode_seconds > 0 and warm.encode_seconds == 0.0
        assert cold_row.seconds + cold.encode_seconds == pytest.approx(
            warm_row.seconds
        )
        for report in (cold, warm):
            # The node's accounted figures are the scheme's arithmetic.
            labeling, scheme = report.labeling, report.scheme
            assert report.accounted_max_label_bits == labeling.max_label_bits(
                scheme
            )
            assert report.accounted_mean_label_bits == pytest.approx(
                labeling.mean_label_bits(scheme)
            )
            assert (
                report.accounted_total_label_bits
                == labeling.total_label_bits(scheme)
            )


class TestPlanValidation:
    def test_missing_producer_rejected(self):
        with pytest.raises(PlanError, match="consumes"):
            CertificationPlan([LabelStage()])

    def test_duplicate_node_name_rejected(self):
        with pytest.raises(PlanError, match="duplicate plan node name"):
            CertificationPlan(
                theorem1_plan(2).nodes + [theorem1_plan(2).nodes[1]]
            )

    def test_duplicate_producer_rejected(self):
        from repro.api.pipeline import DecomposeStage, LaneStage

        class SecondLanes(LaneStage):
            name = "lanes-again"

        with pytest.raises(PlanError, match="two producers"):
            CertificationPlan([DecomposeStage(2), LaneStage(), SecondLanes()])

    def test_node_names_and_phases(self):
        plan = theorem1_plan(2)
        assert plan.node_names() == [
            "decompose", "lanes", "completion", "hierarchy",
            "evaluate", "label",
        ]
        assert [n.name for n in plan.structural_nodes()] == [
            "decompose", "lanes", "completion", "hierarchy",
        ]
        assert [n.name for n in plan.property_nodes()] == ["evaluate", "label"]

    def test_unpersistable_decomposer_poisons_descendants(self):
        sources = {"graph": "fp", "config": "cfp", "algebra": "connected"}
        keys = theorem1_plan(2, decomposer=lambda g: None).chain_keys(sources)
        assert not keys["decomposition"].persistable
        assert not keys["root"].persistable
        assert not keys["labeling"].persistable
        default = theorem1_plan(2).chain_keys(sources)
        assert all(k.persistable for k in default.values())
        # Distinct parameters, distinct keys; equal parameters, equal keys.
        assert default["decomposition"].key != keys["decomposition"].key
        again = theorem1_plan(2).chain_keys(sources)
        assert again["labeling"].key == default["labeling"].key
        other_graph = theorem1_plan(2).chain_keys(dict(sources, graph="fp2"))
        assert (
            other_graph["decomposition"].key != default["decomposition"].key
        )
