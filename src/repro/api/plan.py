"""Plan-based proving: the prover as a content-addressed artifact DAG.

A :class:`CertificationPlan` is a list of stages
(:mod:`repro.api.pipeline`) wired by each stage's declared ``inputs``
and ``outputs``, and every produced artifact gets a **content
fingerprint**:

    node key = H(plan version, stage name, stage params,
                 keys of the input artifacts)

rooted in the *source* keys (the graph fingerprint, the configuration
fingerprint, the algebra key).  Equal keys mean equal artifacts, so the
:class:`PlanRunner` — the only code that runs a proof — executes stages
in order and simply *skips* any stage whose key is already resolved in
an :class:`~repro.api.artifacts.ArtifactCache`: the paper's structure
made operational.  One path decomposition / lane partition / completion
/ hierarchy per graph feeds arbitrarily many per-property evaluations
(Bousquet–Feuilloley–Pierron's "certify a property family over one
decomposition"), across properties, sessions, *and processes* when the
cache has a disk layer.  A from-scratch proof (:func:`run_plan`, which
``Theorem1Scheme.prove`` and ``LanewidthScheme.prove`` call) is the same
run over a throwaway in-memory cache.

Skipped nodes do not touch the stage counters (counters stay truthful:
they count stages that actually ran) and contribute their originally
recorded wall-clock as ``cached`` :class:`StageTiming` entries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.graphs.csr import nul_terminated
from repro.pls.scheme import Labeling, ProverFailure

from repro.api.artifacts import PLAN_CACHE_VERSION, ArtifactCache
from repro.api.pipeline import (
    PROPERTY_STAGES,
    DecomposeStage,
    CompletionStage,
    EvaluateStage,
    HierarchyStage,
    LabelStage,
    LaneStage,
    MatchSequenceStage,
    PipelineContext,
)
from repro.api.results import StageTiming

#: Artifact names provided by the caller rather than produced by a node.
PLAN_SOURCES = ("graph", "config", "algebra")


class PlanError(ValueError):
    """Raised on malformed plans (missing producers, duplicate outputs)."""


@dataclass(frozen=True)
class NodeKey:
    """The resolved content fingerprint of one plan node."""

    key: str
    #: False when the key involves process-local parameters (object
    #: identities); such artifacts stay in the memory cache layer.
    persistable: bool


class CertificationPlan:
    """A validated list of stages in topological order.

    Each stage is one DAG node, wired by its class-level ``inputs`` and
    ``outputs``.  The constructor checks the dataflow: every node must
    declare outputs, every input must be a source (:data:`PLAN_SOURCES`)
    or the output of an earlier node, and no two nodes may produce the
    same artifact.  Nodes are kept in the given order, which the check
    guarantees is topological.
    """

    def __init__(self, stages):
        self.nodes = list(stages)
        produced = set(PLAN_SOURCES)
        names = set()
        for node in self.nodes:
            if not node.outputs:
                raise PlanError(f"plan node {node.name!r} declares no outputs")
            if node.name in names:
                raise PlanError(f"duplicate plan node name {node.name!r}")
            names.add(node.name)
            for name in node.inputs:
                if name not in produced:
                    raise PlanError(
                        f"node {node.name!r} consumes {name!r}, which no "
                        "earlier node produces and is not a plan source"
                    )
            for name in node.outputs:
                if name in produced and name not in PLAN_SOURCES:
                    raise PlanError(
                        f"artifact {name!r} has two producers "
                        f"(second: {node.name!r})"
                    )
                produced.add(name)

    # ------------------------------------------------------------------
    def node_names(self) -> list:
        return [node.name for node in self.nodes]

    def structural_nodes(self) -> list:
        """Nodes whose artifacts depend only on the graph."""
        return [n for n in self.nodes if n.name not in PROPERTY_STAGES]

    def property_nodes(self) -> list:
        """Nodes that must resolve per property (evaluate/label)."""
        return [n for n in self.nodes if n.name in PROPERTY_STAGES]

    # ------------------------------------------------------------------
    def chain_keys(self, source_keys: dict, nodes: Optional[list] = None) -> dict:
        """Chain content fingerprints through (a prefix of) the DAG.

        ``source_keys`` maps artifact names to their keys — plain
        strings (the graph fingerprint for ``"graph"``, ...) or
        :class:`NodeKey` values carried over from an earlier chaining
        pass, which is how the per-property phase continues from the
        structural phase without re-deriving it.  Returns the full
        ``{artifact name: NodeKey}`` map after walking ``nodes``
        (default: every node).  An unpersistable input poisons its
        descendants, so an identity-keyed witness decomposer keeps
        everything it feeds out of the disk layer.
        """
        artifact_keys = {
            name: key if isinstance(key, NodeKey) else NodeKey(str(key), True)
            for name, key in source_keys.items()
        }
        for node in nodes if nodes is not None else self.nodes:
            params, persistable = node.plan_params()
            input_keys = []
            for name in node.inputs:
                upstream = artifact_keys.get(name)
                if upstream is None:
                    raise PlanError(
                        f"no key for input {name!r} of node {node.name!r} "
                        "(missing source key?)"
                    )
                persistable = persistable and upstream.persistable
                input_keys.append(upstream.key)
            blob = repr(
                (PLAN_CACHE_VERSION, node.name, params, tuple(input_keys))
            )
            digest = hashlib.blake2b(blob.encode(), digest_size=20)
            node_key = NodeKey(digest.hexdigest(), persistable)
            for name in node.outputs:
                artifact_keys[name] = node_key
        return artifact_keys


@dataclass
class PlanRun:
    """What one runner pass did: per-node timings, runs, and cache hits."""

    timings: list = field(default_factory=list)  # StageTiming, in order
    executed: list = field(default_factory=list)  # node names actually run
    cache_hits: list = field(default_factory=list)  # node names skipped
    #: node name -> NodeKey for every node this pass considered.
    keys: dict = field(default_factory=dict)

    @property
    def all_cached(self) -> bool:
        return not self.executed and bool(self.cache_hits)


class PlanRunner:
    """Executes plan nodes topologically, skipping resolved ones.

    Parameters
    ----------
    cache:
        The :class:`ArtifactCache` consulted before and written after
        every node (``None``: a throwaway in-memory cache).
    counters:
        Mutable ``{stage name: runs}`` mapping — only *executed* nodes
        increment it, so a warm cache provably runs zero stages.
    """

    def __init__(self, cache: Optional[ArtifactCache] = None,
                 counters: Optional[dict] = None):
        self.cache = cache if cache is not None else ArtifactCache()
        self.counters = counters

    def run(
        self,
        plan: CertificationPlan,
        ctx: PipelineContext,
        source_keys: dict,
        nodes: Optional[list] = None,
        keys: Optional[dict] = None,
    ) -> PlanRun:
        """Resolve ``nodes`` (default: all of ``plan``) against ``ctx``.

        Keys are chained over the *full* plan (pass ``keys`` to reuse a
        previous resolution); execution covers only ``nodes``, which
        callers use to split the structural phase from the per-property
        phase.  A :class:`ProverFailure` raised by a stage propagates
        with the run's timings attached as ``failure.stage_timings``.
        """
        node_list = nodes if nodes is not None else plan.nodes
        if keys is None:
            artifact_keys = plan.chain_keys(source_keys, node_list)
            keys = {
                node.name: artifact_keys[node.outputs[0]]
                for node in node_list
            }
        run = PlanRun(keys=keys)
        for node in node_list:
            node_key = keys[node.name]
            entry = self.cache.get(node_key.key)
            if entry is not None and all(
                name in entry.outputs for name in node.outputs
            ):
                for name in node.outputs:
                    setattr(ctx, name, entry.outputs[name])
                run.cache_hits.append(node.name)
                run.timings.append(
                    StageTiming(node.name, entry.seconds, cached=True)
                )
                continue
            start = perf_counter()
            try:
                node.run(ctx)
            except ProverFailure as failure:
                # Refusals count as runs: a ProverFailure in EvaluateStage
                # is a completed (negative) evaluation, and the counters
                # must reflect every attempt.
                run.timings.append(
                    StageTiming(node.name, perf_counter() - start)
                )
                run.executed.append(node.name)
                self._bump(node.name)
                failure.stage_timings = tuple(run.timings)
                raise
            seconds = perf_counter() - start
            run.timings.append(StageTiming(node.name, seconds))
            run.executed.append(node.name)
            self._bump(node.name)
            self.cache.put(
                node_key.key,
                node.name,
                {name: getattr(ctx, name) for name in node.outputs},
                seconds,
                persist=node_key.persistable,
            )
        return run

    def _bump(self, name: str) -> None:
        if self.counters is not None:
            self.counters[name] = self.counters.get(name, 0) + 1


# ----------------------------------------------------------------------
# The two proving modes as plans.
# ----------------------------------------------------------------------
def theorem1_plan(k: int, decomposer=None) -> CertificationPlan:
    """The full Theorem 1 stage DAG for pathwidth-bounded certification."""
    return CertificationPlan(
        [
            DecomposeStage(k, decomposer=decomposer),
            LaneStage(),
            CompletionStage(),
            HierarchyStage(),
            EvaluateStage(),
            LabelStage(),
        ]
    )


def lanewidth_plan(
    sequence,
    match_stage: Optional[MatchSequenceStage] = None,
) -> CertificationPlan:
    """The native-lanewidth stage DAG (no Section 4 front end)."""
    return CertificationPlan(
        [
            match_stage or MatchSequenceStage(sequence),
            HierarchyStage(),
            EvaluateStage(),
            LabelStage(),
        ]
    )


def run_plan(plan: CertificationPlan, config, algebra) -> Labeling:
    """Prove ``algebra`` on ``config`` from scratch: run every node of
    ``plan`` through a :class:`PlanRunner` over a throwaway cache.

    The labeling's mapping is the label node's read-only
    :class:`~repro.api.store.StoredLabels`, which carries its wire form.
    Raises :class:`ProverFailure` when the honest prover refuses.
    """
    ctx = PipelineContext(config=config, algebra=algebra)
    source_keys = {
        "graph": config.graph.fingerprint("edges"),
        "config": config_fingerprint(config),
        "algebra": algebra_source_key(algebra)[0],
    }
    PlanRunner().run(plan, ctx, source_keys)
    return ctx.labeling


def config_fingerprint(config) -> str:
    """Content key of a configuration: graph fingerprint + identifiers.

    Labelings embed vertex identifiers, so per-property label artifacts
    must key on the ids as well as the graph; two configurations over
    the same graph with different identifier draws get distinct keys.
    """
    digest = hashlib.blake2b(digest_size=16)
    # Certification identity ("edges"): vertex labels never reach any
    # stage, so label artifacts stay valid across vertex relabelings.
    digest.update(config.graph.fingerprint("edges").encode())
    digest.update(b"\x00")
    # Each ``(vertex, identifier)`` pair as its repr, in repr order.
    digest.update(nul_terminated(sorted(map(repr, config.ids.items()))))
    return digest.hexdigest()


def algebra_source_key(algebra):
    """Return ``(key, persistable)`` naming an algebra for the plan.

    Registry algebras carry a stable ``key`` (e.g. ``"colorable-3"``)
    that names their semantics; custom instances without one are keyed
    by identity and keep their artifacts memory-only.
    """
    key = getattr(algebra, "key", None)
    if key and key != "abstract":
        return key, True
    return f"algebra-object-{id(algebra)}", False
