"""Edit-batch recertification: the incremental front end.

An :class:`IncrementalCertifier` owns an evolving graph and keeps its
certification current across :class:`~repro.graphs.edits.EditBatch`
updates.  Each update certifies the evolved graph through the session's
own :class:`~repro.api.pipeline.DecomposeStage` policy, exactly as a
cold certify does, and then verifies it.  Two reuse layers make that
cheaper than a cold certify:

1. **Artifact reuse** (the plan DAG): the session keys every stage on
   the edited graph's certification identity (``fingerprint("edges")``),
   so a vertex-relabeling batch resolves the *entire* chain —
   decomposition, hierarchy, evaluation, labeling, even the encoded
   bytes — from the :class:`~repro.api.artifacts.ArtifactCache`.
   Structural batches reuse nothing downstream (certificates embed
   global class indices) and re-run the pipeline from a fresh witness.
2. **Frontier re-verification** (:mod:`repro.incremental.executor`):
   instead of a whole-graph round, only the touched vertices plus a
   one-hop frontier re-verify.  The honest prover's labeling is
   accepted everywhere (completeness), so the region verdict equals the
   full-round verdict (property-tested).

**The round rule.**  A round is full when it is the baseline, when
``force_full`` is set, when ``full_round_every`` is due, or when the
stream's previous state was refused (no accepted round covers the rest
of the graph).  Every other update runs the region round.

**The witness rule.**  A caller-pinned decomposer is a witness for the
base graph only: it certifies the base graph's identity, and every
other identity gets the session's default decomposer.  The decomposer
is thus a function of the identity, so an identity seen before chains
the same keys and resolves from the cache.

The certifier is deliberately *stateful about identity*: vertex
identifiers are drawn once, by :meth:`IncrementalCertifier.baseline`,
and pinned for the life of the stream (refusals included), so the
per-configuration label artifacts stay addressable across updates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.api.session import CertificationSession
from repro.graphs import Graph
from repro.graphs.edits import EditBatch, apply_edits
from repro.pls.model import Configuration

from repro.incremental.executor import DirtyRegionExecutor


@dataclass
class IncrementalMetrics:
    """Counters the service surfaces through its ``metrics`` op."""

    updates: int = 0
    artifacts_reused: int = 0
    region_rounds: int = 0
    full_rounds: int = 0

    def to_dict(self) -> dict:
        return {
            "updates": self.updates,
            "artifacts_reused": self.artifacts_reused,
            "region_rounds": self.region_rounds,
            "full_rounds": self.full_rounds,
        }


@dataclass
class IncrementalReport:
    """One update's outcome across every certified property."""

    accepted: bool
    mode: str  # "baseline" | "region" | "full"
    reports: dict  # property key -> CertificationReport
    rounds: dict  # property key -> RegionReport (empty for refusals)
    batch: Optional[EditBatch]
    update_index: int
    artifacts_reused: int = 0
    stages_run: int = 0
    elapsed_seconds: float = 0.0
    fingerprint: str = ""

    @property
    def refusals(self) -> dict:
        return {
            key: report.refusal
            for key, report in self.reports.items()
            if report.refused
        }

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "mode": self.mode,
            "update_index": self.update_index,
            "batch_size": len(self.batch) if self.batch is not None else 0,
            "properties": {
                key: {
                    "accepted": report.accepted,
                    "refused": report.refused,
                    "refusal": report.refusal,
                    "class_count": report.class_count,
                    "total_label_bits": report.total_label_bits,
                    "max_label_bits": report.max_label_bits,
                }
                for key, report in self.reports.items()
            },
            "rounds": {
                key: round_.to_dict() for key, round_ in self.rounds.items()
            },
            "artifacts_reused": self.artifacts_reused,
            "stages_run": self.stages_run,
            "elapsed_seconds": self.elapsed_seconds,
            "fingerprint": self.fingerprint,
        }


class IncrementalCertifier:
    """Keeps one evolving graph's certification current across edits.

        inc = IncrementalCertifier(graph, ["connected"], k=2)
        inc.baseline()                      # cold certify + full round
        report = inc.update(EditBatch([remove_edge(u, v)]))
        report.accepted, inc.metrics.artifacts_reused

    Parameters
    ----------
    graph:
        The base graph; the certifier works on its own copy and evolves
        it with each applied batch (:attr:`graph` is the current state).
    properties:
        Registry keys / algebras certified on every update.  Courcelle
        properties evaluate on graph structure only; vertex labels never
        reach the pipeline.
    k:
        Pathwidth bound (defaults to ``session.k`` when a session is
        supplied).
    session:
        Optional :class:`~repro.api.session.CertificationSession` to
        certify through — its artifact cache (and store, if any) is what
        makes the reuse persistent.  The certifier *owns* the session's
        ``decomposer`` field: the one the session arrives with is the
        pinned witness for the base graph (see the module doc).
    decomposer:
        The pinned witness when no session is supplied.
    full_round_every:
        Escape hatch cadence: every Nth update runs a whole-graph
        verification round instead of a region round (0 = only by the
        rest of the round rule).
    executor:
        The :class:`DirtyRegionExecutor` running the rounds.
    """

    def __init__(
        self,
        graph: Graph,
        properties,
        k: Optional[int] = None,
        *,
        session: Optional[CertificationSession] = None,
        store=None,
        decomposer=None,
        rng: Optional[random.Random] = None,
        full_round_every: int = 0,
        executor: Optional[DirtyRegionExecutor] = None,
    ):
        if isinstance(properties, (str,)) or not hasattr(
            properties, "__iter__"
        ):
            properties = [properties]
        self.properties = list(properties)
        if not self.properties:
            raise ValueError("need at least one property to certify")
        if session is None:
            if k is None:
                raise ValueError("IncrementalCertifier needs a pathwidth bound k")
            session = CertificationSession(
                k=k,
                decomposer=decomposer,
                rng=rng,
                store=store,
            )
        elif k is None:
            k = session.k
        if k is None:
            raise ValueError("the session carries no pathwidth bound k")
        self.k = k
        self.session = session
        if full_round_every < 0:
            raise ValueError("full_round_every must be >= 0")
        self.full_round_every = full_round_every
        self.executor = executor or DirtyRegionExecutor()
        self.metrics = IncrementalMetrics()
        self.graph = graph.copy()
        self._pinned_decomposer = session.decomposer
        self._base_identity = self.graph.fingerprint("edges")
        self._rng = rng or random.Random(0)
        self._ids: Optional[dict] = None
        self._refused = False  # the current state's certification refused
        self._updates_since_full = 0

    # ------------------------------------------------------------------
    @property
    def baselined(self) -> bool:
        """Whether :meth:`baseline` has drawn the vertex identifiers."""
        return self._ids is not None

    @property
    def config(self) -> Configuration:
        """The current graph under the pinned identifier assignment."""
        if self._ids is None:
            raise RuntimeError("baseline() has not run yet")
        return Configuration(self.graph, self._ids)

    def baseline(self) -> IncrementalReport:
        """Draw the identifiers, certify the current graph, full round."""
        start = perf_counter()
        self._ids = dict(
            Configuration.with_random_ids(self.graph, self._rng).ids
        )
        return self._certify(self.graph, None, True, start)

    def update(
        self, batch: EditBatch, force_full: bool = False
    ) -> IncrementalReport:
        """Apply one edit batch and recertify the evolved graph.

        Raises :class:`~repro.graphs.edits.EditError` (leaving the
        certifier's state untouched) when the batch does not apply.
        """
        if not isinstance(batch, EditBatch):
            batch = EditBatch(batch)
        if not batch:
            raise ValueError("update() needs a non-empty batch")
        if self._ids is None:
            self.baseline()
        start = perf_counter()
        new_graph = apply_edits(self.graph, batch)
        self.metrics.updates += 1
        self._updates_since_full += 1
        full = (
            force_full
            or self._refused
            or (
                self.full_round_every > 0
                and self._updates_since_full >= self.full_round_every
            )
        )
        report = self._certify(new_graph, batch, full, start)
        self.metrics.artifacts_reused += report.artifacts_reused
        if full:
            self.metrics.full_rounds += 1
        else:
            self.metrics.region_rounds += 1
        return report

    # ------------------------------------------------------------------
    def _certify(self, graph, batch, full, start) -> IncrementalReport:
        """Certify ``graph`` as the new current state, then run a round.

        ``batch`` is ``None`` for the baseline.  The state is committed
        before the round: the certification exists regardless of what
        the round concludes about it.
        """
        identity = graph.fingerprint("edges")
        self.session.decomposer = (
            self._pinned_decomposer if identity == self._base_identity
            else None
        )
        config = Configuration(graph, self._ids)
        before = sum(self.session.stage_counters.values())
        reports = self.session.certify(config, self.properties, verify=False)
        stages_run = sum(self.session.stage_counters.values()) - before
        self.graph = graph
        self._refused = any(report.refused for report in reports.values())
        if full:
            self._updates_since_full = 0

        rounds: dict = {}
        dirty = batch.touched_vertices() if batch is not None else ()
        for key, report in reports.items():
            if report.refused:
                continue
            if full:
                round_ = self.executor.full_round(
                    config, report.scheme, report.labeling
                )
                report.verification = round_.full_report
                report.result = round_.full_report.as_result()
            else:
                round_ = self.executor.verify_region(
                    config, report.scheme, report.labeling, dirty
                )
            report.accepted = round_.accepted
            rounds[key] = round_
        return IncrementalReport(
            accepted=all(
                not report.refused and report.accepted
                for report in reports.values()
            ),
            mode="baseline" if batch is None else ("full" if full else "region"),
            reports=reports,
            rounds=rounds,
            batch=batch,
            update_index=self.metrics.updates if batch is not None else 0,
            artifacts_reused=_reused(reports),
            stages_run=stages_run,
            elapsed_seconds=perf_counter() - start,
            fingerprint=graph.fingerprint(),
        )


def _reused(reports: dict) -> int:
    """Plan nodes the certify resolved from the cache.

    Each report replays its cached nodes as ``cached`` stage timings.
    The structural rows are the same objects in every report of one
    certify, so each structural node counts once.
    """
    return len(
        {
            id(timing)
            for report in reports.values()
            for timing in report.stage_timings
            if timing.cached
        }
    )
