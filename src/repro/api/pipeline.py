"""The prover stages of Theorem 1.

Theorem 1's prover factors into reusable structural stages (path
decomposition → lane partition → completion → construction sequence →
hierarchy) followed by property-specific stages (algebra evaluation →
certificate labels).  This module makes each stage an explicit object
operating on a shared :class:`PipelineContext`; every stage declares the
context fields it reads and writes and the parameters that determine
its outputs.

:mod:`repro.api.plan` wires the stages into the two proving modes
(:func:`~repro.api.plan.theorem1_plan` and
:func:`~repro.api.plan.lanewidth_plan`) and runs them with its
:class:`~repro.api.plan.PlanRunner`, the only code that runs a proof.
The structural/property split is what enables batch multi-property
proving: the structural stages depend only on the graph, so a
:class:`repro.api.CertificationSession` resolves them once and replays
:class:`EvaluateStage`/:class:`LabelStage` per property
(Bousquet–Feuilloley–Pierron's decomposition/evaluation separation, made
operational).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Optional

from repro.codec import WIRE_VERSION, CodecError, encode_table
from repro.core.certificates import CertificateBuilder
from repro.core.completion import build_completion
from repro.core.construction import build_hierarchy
from repro.core.embedding import Embedding
from repro.core.hierarchy import (
    evaluate_hierarchy,
    hierarchy_depth,
    validate_hierarchy,
)
from repro.core.lane_partition import (
    build_lane_partition,
    check_lane_bounds,
    f_bound,
    greedy_lanes,
    h_bound,
)
from repro.core.lanewidth import (
    ConstructionSequence,
    apply_construction,
    construction_sequence_from_completion,
)
from repro.courcelle.algebra import ArityLimitExceeded
from repro.courcelle.registry import resolve_algebra
from repro.pathwidth.branch_and_bound import (
    branch_and_bound_decomposition,
    ordering_from_decomposition,
)
from repro.pathwidth.heuristics import heuristic_path_decomposition
from repro.pathwidth.path_decomposition import PathDecomposition
from repro.pls.bits import ClassIndexer, SizeContext
from repro.pls.model import Configuration
from repro.pls.scheme import Labeling, ProverFailure

from repro.api.store import StoredLabels

#: Instance-size cutoff up to which :class:`DecomposeStage` always runs
#: the branch-and-bound to completion.
DEFAULT_EXACT_DECOMPOSITION_LIMIT = 14

#: Expanded-node cap of the seeded branch-and-bound that
#: :class:`DecomposeStage` runs above the cutoff when the heuristic
#: witness is wider than ``k``.  Measured: width-3 rescues at k=3 take
#: 16–250 nodes up to n=1024; a refusal that spends the whole budget
#: searches for 0.17–1.6 s on 6x10 to 32x32 grids (the heuristic takes
#: 0.22 s on the 32x32 one).
BNB_NODE_BUDGET = 4096

#: Stage names that must rerun for every property; every other stage's
#: artifacts depend only on the graph.
PROPERTY_STAGES = ("evaluate", "label")


@dataclass
class PipelineContext:
    """The artifact blackboard the stages read from and write to."""

    config: Configuration
    #: Property under certification — a registry key or algebra instance;
    #: :class:`EvaluateStage` resolves and pins the instance here.
    algebra: object = None

    # Structural artifacts (graph-only; reusable across properties).
    decomposition: object = None  # PathDecomposition
    lanes: object = None  # LanePartitionResult
    completion: object = None  # CompletionResult
    sequence: Optional[ConstructionSequence] = None
    root: object = None  # HierarchyNode
    hierarchy_depth: Optional[int] = None
    embedding: Optional[Embedding] = None
    max_width: Optional[int] = None
    #: How the witness decomposition was obtained (engine, widths,
    #: search counters) — see :meth:`DecomposeStage.default_decomposer`.
    decomposition_stats: Optional[dict] = None
    #: Which lane builder ran and the bounds it met — see
    #: :class:`LaneStage`.
    lane_stats: Optional[dict] = None

    # Property-specific artifacts.
    evaluation: object = None  # HierarchyEvaluation
    class_count: Optional[int] = None
    labeling: Optional[Labeling] = None  # its mapping: StoredLabels
    #: (max, mean, total) of the ``label_bits`` arithmetic.
    accounted_bits: Optional[tuple] = None
    #: Seconds of the label node's run spent encoding (not an artifact:
    #: 0.0 when the node was resolved from a cache).
    encode_seconds: float = 0.0

    @property
    def graph(self):
        return self.config.graph

    def structural_copy(
        self, config: Optional[Configuration] = None, algebra=None
    ) -> "PipelineContext":
        """Clone the structural artifacts for another property (or config).

        The per-property fields (evaluation, labeling) start fresh; the
        expensive graph-level artifacts are shared by reference — stages
        never mutate them after creation.
        """
        clone = replace(self)
        clone.config = config or self.config
        clone.algebra = algebra
        clone.evaluation = None
        clone.class_count = None
        clone.labeling = None
        clone.accounted_bits = None
        clone.encode_seconds = 0.0
        return clone


class Stage:
    """One pipeline step.

    ``run`` reads its inputs from the context and writes its artifacts
    back; it raises :class:`ProverFailure` when the honest prover must
    refuse (precondition or property violation).

    Stages additionally *declare* their dataflow for the plan layer
    (:mod:`repro.api.plan`): ``inputs`` and ``outputs`` name the
    :class:`PipelineContext` fields read and written (the sources
    ``"graph"``, ``"config"``, and ``"algebra"`` are provided by the
    caller), and :meth:`plan_params` returns the parameters that — along
    with the input artifacts — determine the outputs.  Together they
    give every produced artifact a content fingerprint, which is what
    lets a plan runner skip a node whose outputs are already resolved in
    an :class:`~repro.api.artifacts.ArtifactCache`.
    """

    name: str = "stage"
    #: Context fields (or sources) this stage reads.
    inputs: tuple = ()
    #: Context fields this stage writes.
    outputs: tuple = ()

    def run(self, ctx: PipelineContext) -> None:
        raise NotImplementedError

    def plan_params(self):
        """Return ``(params, persistable)`` for artifact fingerprinting.

        ``params`` is a stable, reprable value capturing every stage
        parameter that can change the outputs; ``persistable`` is False
        when the params are only meaningful inside this process (e.g. an
        ``id()`` of a closure), in which case the artifacts stay in the
        in-memory cache layer and are never written to disk.
        """
        return ((), True)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DecomposeStage(Stage):
    """Find a width-``k`` witness path decomposition (or refuse).

    Parameters
    ----------
    k:
        The pathwidth bound being certified.
    decomposer:
        Optional override ``graph -> PathDecomposition`` or ``graph ->
        (PathDecomposition, stats)`` (generators that already know a
        witness pass it here and skip the search).

    Without a decomposer the witness search is a fixed policy of the
    graph and ``k`` (see :meth:`default_decomposer`): instances with
    ``n <=`` :data:`DEFAULT_EXACT_DECOMPOSITION_LIMIT` get a *complete*
    branch-and-bound; larger ones keep the heuristic portfolio's witness
    when its width is at most ``k``, and otherwise run a branch-and-bound
    seeded with it and capped at :data:`BNB_NODE_BUDGET` expanded nodes
    before refusing.
    """

    name = "decompose"
    inputs = ("graph",)
    outputs = ("decomposition", "max_width", "decomposition_stats")

    def __init__(self, k: int, decomposer: Optional[Callable] = None):
        if k < 1:
            raise ValueError("pathwidth bound must be at least 1")
        self.k = k
        self.decomposer = decomposer

    def _engine_params(self):
        return (
            "k", self.k, "exact_limit", DEFAULT_EXACT_DECOMPOSITION_LIMIT,
            "policy", "heuristic-then-bnb", "bnb_node_budget", BNB_NODE_BUDGET,
        )

    def plan_params(self):
        if self.decomposer is None:
            return (self._engine_params(), True)
        # An explicit witness decomposer is arbitrary code; a declared
        # ``cache_key`` makes its artifacts persistable, otherwise they
        # are keyed by object identity and stay memory-only.
        cache_key = getattr(self.decomposer, "cache_key", None)
        if cache_key is not None:
            return (
                self._engine_params() + ("decomposer", str(cache_key)),
                True,
            )
        return (
            self._engine_params() + ("decomposer-id", id(self.decomposer)),
            False,
        )

    def default_decomposer(self, graph):
        """Return ``(decomposition, stats)`` for this graph.

        ``stats`` is a plain dict recording which engine produced the
        witness (``"bnb"`` or ``"heuristic"``), the achieved vs
        heuristic width, and (for the branch-and-bound) the search
        counters.  It travels through the plan cache as the
        ``decomposition_stats`` artifact and surfaces in
        :class:`~repro.api.results.CertificationReport`.  The choice
        reads only ``n`` and the heuristic width, never the clock.
        """
        if graph.n <= DEFAULT_EXACT_DECOMPOSITION_LIMIT:
            # The search seeds itself from the heuristic portfolio, so
            # its seed width is the heuristic width.
            decomposition, result = branch_and_bound_decomposition(graph)
            return decomposition, bnb_stats(
                decomposition, result, result.stats.seed_width
            )
        seeded = heuristic_path_decomposition(graph)
        width = seeded.width()
        if width <= self.k:
            return seeded, {
                "engine": "heuristic",
                "optimal": False,
                "width": width,
                "heuristic_width": width,
            }
        decomposition, result = branch_and_bound_decomposition(
            graph,
            node_budget=BNB_NODE_BUDGET,
            seed_ordering=ordering_from_decomposition(seeded),
        )
        return decomposition, bnb_stats(decomposition, result, width)

    def run(self, ctx: PipelineContext) -> None:
        graph = ctx.graph
        if graph.n < 2:
            raise ProverFailure(
                "certification needs at least two vertices", "too-small"
            )
        if not graph.is_connected():
            raise ProverFailure(
                "the network must be connected", "disconnected"
            )
        if self.decomposer is not None:
            produced = self.decomposer(graph)
            # Custom decomposers may return a bare decomposition or
            # a ``(decomposition, stats)`` pair.
            if isinstance(produced, tuple):
                decomposition, stats = produced
            else:
                decomposition = produced
                stats = {
                    "engine": "witness",
                    "optimal": None,
                    "width": decomposition.width(),
                }
        else:
            decomposition, stats = self.default_decomposer(graph)
        if decomposition.width() > self.k:
            raise ProverFailure(
                f"no witness decomposition of width <= {self.k} found "
                f"({_widths_tried(stats, decomposition.width())})",
                "width",
            )
        ctx.decomposition = decomposition
        ctx.decomposition_stats = stats
        ctx.max_width = f_bound(self.k + 1)


def witness_decomposer(decomposition: PathDecomposition):
    """Wrap a known decomposition as a plan-cacheable decomposer.

    Pass the result as a :class:`DecomposeStage` (or session)
    ``decomposer`` to pin the witness for the graph it was built for.
    The ``cache_key`` digests the *bag contents*, so two different
    witnesses of the same graph never collide in the artifact cache:
    the fingerprint chain stays honest about what was decomposed how.
    """
    bags = [tuple(bag) for bag in decomposition.bags]
    digest = hashlib.blake2b(digest_size=12)
    for bag in bags:
        digest.update(repr(bag).encode())
        digest.update(b"\x00")

    def decompose(graph) -> PathDecomposition:
        return PathDecomposition(graph, bags, validate=False)

    decompose.cache_key = "bags:" + digest.hexdigest()
    return decompose


def bnb_stats(decomposition, result, heuristic_width) -> dict:
    """The ``decomposition_stats`` of a branch-and-bound witness."""
    stats = {
        "engine": "bnb",
        "optimal": result.optimal,
        "width": decomposition.width(),
        "heuristic_width": heuristic_width,
    }
    stats.update(result.stats.to_dict())
    return stats


def _widths_tried(stats: dict, width: int) -> str:
    """Name the widths the witness search reached, for a refusal."""
    if stats.get("engine") != "bnb":
        return f"got {width}"
    return (
        f"heuristic {stats.get('heuristic_width')}, branch-and-bound "
        f"{width} after {stats.get('nodes_expanded')} nodes"
    )


class LaneStage(Stage):
    """Lane partition + embedding: Observation 4.3 first, Proposition 4.6
    as the fallback.

    With ``w`` the interval representation's width (decomposition width
    + 1), the stage builds Observation 4.3's greedy lanes
    (:func:`~repro.core.lane_partition.greedy_lanes`, at most ``w``)
    and keeps them when they have at most ``f(w)`` lanes and completion
    congestion at most ``h(w)``; otherwise it runs the Proposition 4.6
    recursion.  Theorem 1's size argument uses exactly those two bounds,
    which Proposition 4.6 guarantees: the lane count bounds the
    hierarchy depth (at most twice the lanes, Observation 5.5) and so
    each certificate's record stack, and the congestion bounds the
    embedded certificates each real edge carries.  Either partition kept
    therefore keeps the paper's worst case, and the stage asserts both
    bounds on it.  Greedy always meets the lane bound (``w <= f(w)``);
    the congestion check is the one that can send it to the fallback.

    ``lane_stats`` records which builder ran, ``w``, the completion
    congestion and ``h(w)``.  The choice depends only on the
    graph and its decomposition, and the policy names the node key.
    """

    name = "lanes"
    inputs = ("decomposition",)
    outputs = ("lanes", "embedding", "lane_stats")

    def plan_params(self):
        return (("builder", "greedy-then-prop-4.6"), True)

    def run(self, ctx: PipelineContext) -> None:
        rep = ctx.decomposition.to_interval_representation()
        width = rep.width()
        lanes, builder = greedy_lanes(ctx.graph, rep), "greedy"
        embedding = lanes.full_embedding()
        congestion = embedding.congestion()
        if lanes.partition.width > f_bound(width) or congestion > h_bound(width):
            lanes, builder = build_lane_partition(ctx.graph, rep), "prop-4.6"
            embedding = lanes.full_embedding()
            congestion = embedding.congestion()
        check_lane_bounds(lanes, congestion, width)
        ctx.lanes = lanes
        ctx.embedding = embedding
        ctx.lane_stats = {
            "builder": builder,
            "width": width,
            "congestion": congestion,
            "h_bound": h_bound(width),
        }


class CompletionStage(Stage):
    """Definition 4.4 + Proposition 5.2: completion and its build plan."""

    name = "completion"
    inputs = ("lanes",)
    outputs = ("completion", "sequence")

    def run(self, ctx: PipelineContext) -> None:
        ctx.completion = build_completion(ctx.graph, ctx.lanes.partition)
        ctx.sequence = construction_sequence_from_completion(ctx.completion)


class MatchSequenceStage(Stage):
    """Lanewidth mode's front end: check the configuration is the
    construction's graph, then adopt the sequence as the build plan.

    The expected graph is replayed once and kept as a fingerprint on the
    stage instance, so repeated proofs against the same sequence compare
    one hash instead of rebuilding and comparing full edge/vertex sets.
    A caller that has replayed the sequence already passes that graph's
    bare (V, E) fingerprint as ``expected_fingerprint``, and the stage
    replays nothing.
    """

    name = "match"
    inputs = ("graph",)
    outputs = ("sequence", "embedding", "max_width")

    def __init__(
        self,
        sequence: ConstructionSequence,
        expected_fingerprint: Optional[str] = None,
    ):
        self.sequence = sequence
        self._expected_fingerprint = expected_fingerprint
        self._sequence_digest: Optional[str] = None

    def plan_params(self):
        # The *sequence content* keys the artifacts (not the replayed
        # graph): a warm plan run can then skip the replay entirely.  A
        # cached hit for (graph fingerprint, sequence digest) means this
        # exact configuration/sequence pair already passed the match
        # check once.
        if self._sequence_digest is None:
            import hashlib

            seq = self.sequence
            digest = hashlib.blake2b(digest_size=16)
            digest.update(repr(seq.width).encode())
            digest.update(repr(seq.initial_vertices).encode())
            digest.update(repr(seq.initial_edge_tags).encode())
            digest.update(repr(tuple(seq.ops)).encode())
            self._sequence_digest = digest.hexdigest()
        return (("sequence", self._sequence_digest), True)

    def expected_fingerprint(self) -> str:
        if self._expected_fingerprint is None:
            expected = apply_construction(self.sequence)
            # Labels excluded: the legacy check compared bare (V, E).
            self._expected_fingerprint = expected.fingerprint(
                include_labels=False
            )
        return self._expected_fingerprint

    def run(self, ctx: PipelineContext) -> None:
        observed = ctx.graph.fingerprint(include_labels=False)
        if observed != self.expected_fingerprint():
            raise ProverFailure(
                "configuration does not match the construction", "mismatch"
            )
        ctx.sequence = self.sequence
        ctx.embedding = Embedding(ctx.graph)
        ctx.max_width = self.sequence.width


class HierarchyStage(Stage):
    """Proposition 5.6: build (and, in pathwidth mode, validate) the
    hierarchical decomposition.

    In pathwidth mode the one-pass :func:`validate_hierarchy` measures
    the depth as it checks the Observation 5.5 bound; lanewidth mode
    builds from the caller's own sequence and only measures it.
    """

    name = "hierarchy"
    inputs = ("sequence",)
    outputs = ("root", "hierarchy_depth")

    def run(self, ctx: PipelineContext) -> None:
        root = build_hierarchy(ctx.sequence)
        if ctx.completion is not None:
            ctx.hierarchy_depth = validate_hierarchy(root, ctx.completion.graph)
        else:
            ctx.hierarchy_depth = hierarchy_depth(root)
        ctx.root = root


class EvaluateStage(Stage):
    """Proposition 6.1: run the property's algebra bottom-up and check
    acceptance at the root (the honest prover refuses false properties)."""

    name = "evaluate"
    inputs = ("root", "algebra")
    outputs = ("evaluation",)

    def run(self, ctx: PipelineContext) -> None:
        if ctx.algebra is None:
            raise ValueError("EvaluateStage needs an algebra on the context")
        ctx.algebra = resolve_algebra(ctx.algebra)
        try:
            ctx.evaluation = evaluate_hierarchy(ctx.root, ctx.algebra)
        except ArityLimitExceeded as exc:
            # A capacity limit of the algebra, not a false property:
            # refuse with the algebra's own explanation.
            raise ProverFailure(str(exc), "unsupported") from exc
        if not ctx.evaluation.accepts(ctx.root):
            raise ProverFailure(
                "property does not hold on the real subgraph", "false"
            )


class LabelStage(Stage):
    """Lemmas 6.4/6.5: write the physical edge certificates, in final form.

    The builder walks the hierarchy once and writes every label straight
    into a :class:`~repro.codec.table.RecordTable`, without building a
    label object.  The node encodes from that table, sizes every label
    with the ``label_bits`` arithmetic (each distinct row once), and
    serves the labels through a read-only
    :class:`~repro.api.store.StoredLabels` that keeps the table in
    memory for the round compiler, builds label objects from it only
    when something reads a label, and pickles as its wire form alone.
    The artifact holds the wire bytes once, and a hit yields every size
    figure without reading a label.  The wire form is part of the
    output, so the key names the wire version.
    """

    name = "label"
    inputs = ("root", "evaluation", "embedding", "config")
    outputs = ("class_count", "labeling", "accounted_bits")

    def plan_params(self):
        return (("wire_version", WIRE_VERSION), True)

    def run(self, ctx: PipelineContext) -> None:
        indexer = ClassIndexer()
        builder = CertificateBuilder(ctx.config, ctx.root, ctx.evaluation, indexer)
        try:
            table = builder.record_table(ctx.embedding)
            size_ctx = SizeContext(ctx.config.n, class_count=indexer.class_count)
            began = perf_counter()
            encoded = encode_table(table, table.header(size_ctx))
        except CodecError as exc:
            # A value the wire format cannot carry (an identifier past
            # its range, say) is a capacity limit of the prover, not a
            # false property: refuse with the codec's explanation.
            raise ProverFailure(str(exc), "unsupported") from exc
        ctx.encode_seconds = perf_counter() - began
        sizes = table.accounted_bits(size_ctx)
        total = sum(sizes)
        ctx.accounted_bits = (
            max(sizes, default=0), total / max(len(sizes), 1), total
        )
        ctx.class_count = indexer.class_count
        ctx.labeling = Labeling(
            "edges", StoredLabels._from_prover(encoded, table), size_ctx
        )
