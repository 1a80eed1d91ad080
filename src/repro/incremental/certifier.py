"""Edit-batch recertification: the incremental front end.

An :class:`IncrementalCertifier` owns an evolving graph and keeps its
certification current across :class:`~repro.graphs.edits.EditBatch`
updates.  One update is three reuse layers deep:

1. **Decomposition repair** (:mod:`repro.incremental.diff`): the cached
   witness decomposition is patched locally instead of re-searched;
   at production sizes the search dominates cold certification.  When
   the repair falls back (width bound, dirty fraction), the full search
   re-runs and the update counts in ``metrics.full_fallbacks``.
2. **Artifact reuse** (the PR 5 plan DAG): the session re-keys every
   stage on the edited graph's certification identity
   (``fingerprint("edges")``), so a vertex-relabeling batch resolves
   the *entire* chain — decomposition, hierarchy, evaluation, labeling,
   even the encoded bytes — from the
   :class:`~repro.api.artifacts.ArtifactCache`.  Structural batches
   reuse nothing downstream (certificates embed global class indices)
   but skip the search via a witness decomposer wrapping the repair.
3. **Frontier re-verification** (:mod:`repro.incremental.executor`):
   instead of a whole-graph round, only the dirty region — touched
   vertices plus a one-hop frontier — re-verifies.  The incremental
   verdict equals the full-round verdict for honest updates (property-
   tested); ``full_round_every`` and ``force_full`` are the escape
   hatches that periodically restore whole-graph coverage, and a
   repair fallback always escalates to a full round (every certificate
   changed, so a local region would under-report what moved).

The certifier is deliberately *stateful about identity*: vertex
identifiers are drawn once at baseline and pinned, so the
per-configuration label artifacts stay addressable across updates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.api.plan import theorem1_plan
from repro.api.session import CertificationSession
from repro.graphs import Graph
from repro.graphs.edits import EditBatch, apply_edits
from repro.pls.model import Configuration
from repro.pls.scheme import ProverFailure

from repro.incremental.diff import (
    DEFAULT_MAX_DIRTY_FRACTION,
    RepairResult,
    repair_decomposition,
    witness_decomposer,
)
from repro.incremental.executor import DirtyRegionExecutor, RegionReport


@dataclass
class IncrementalMetrics:
    """Counters the service surfaces through its ``metrics`` op."""

    updates: int = 0
    bags_dirtied: int = 0
    artifacts_reused: int = 0
    full_fallbacks: int = 0
    region_rounds: int = 0
    full_rounds: int = 0

    def to_dict(self) -> dict:
        return {
            "updates": self.updates,
            "bags_dirtied": self.bags_dirtied,
            "artifacts_reused": self.artifacts_reused,
            "full_fallbacks": self.full_fallbacks,
            "region_rounds": self.region_rounds,
            "full_rounds": self.full_rounds,
        }

    def merge(self, other: "IncrementalMetrics") -> None:
        self.updates += other.updates
        self.bags_dirtied += other.bags_dirtied
        self.artifacts_reused += other.artifacts_reused
        self.full_fallbacks += other.full_fallbacks
        self.region_rounds += other.region_rounds
        self.full_rounds += other.full_rounds


@dataclass
class IncrementalReport:
    """One update's outcome across every certified property."""

    accepted: bool
    mode: str  # "baseline" | "region" | "full" | "fallback"
    reports: dict  # property key -> CertificationReport
    rounds: dict  # property key -> RegionReport (empty for refusals)
    repair: Optional[RepairResult]
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
            "bags_dirtied": self.repair.dirty_count
            if self.repair is not None and not self.repair.fallback
            else 0,
            "fallback": bool(self.repair and self.repair.fallback),
            "fallback_reason": self.repair.reason if self.repair else "",
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
        it with each accepted batch (:attr:`graph` is the current state).
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
        makes the reuse layers persistent.  The certifier *owns* the
        session's ``decomposer`` field, swapping in witness decomposers
        for repaired updates.
    full_round_every:
        Escape hatch cadence: every Nth update runs a whole-graph
        verification round instead of a region round (0 = only on
        fallback or ``force_full``).
    max_dirty_fraction:
        Repair give-up threshold, see
        :func:`repro.incremental.diff.repair_decomposition`.
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
        max_dirty_fraction: float = DEFAULT_MAX_DIRTY_FRACTION,
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
        self.max_dirty_fraction = max_dirty_fraction
        self.executor = executor or DirtyRegionExecutor()
        self.metrics = IncrementalMetrics()
        self.graph = graph.copy()
        self._base_decomposer = session.decomposer
        # A caller-pinned decomposer is a witness for *this* graph; it
        # must not be offered for any other identity (see baseline()).
        self._base_identity = self.graph.fingerprint("edges")
        # The decomposer that built the *current* identity's key chain.
        # Identity-unchanged batches (vertex labels only) must certify
        # through it again — anything else would chain different keys
        # and re-run the whole pipeline instead of resolving it.
        self._chain_decomposer = session.decomposer
        self._rng = rng or random.Random(0)
        self._ids: Optional[dict] = None
        self._decomposition = None
        self._updates_since_full = 0

    # ------------------------------------------------------------------
    @property
    def baselined(self) -> bool:
        """Whether :meth:`baseline` has established the initial state."""
        return self._decomposition is not None

    @property
    def decomposition(self):
        """The decomposition the current certification was built from."""
        return self._decomposition

    @property
    def config(self) -> Configuration:
        """The current graph under the pinned identifier assignment."""
        if self._ids is None:
            raise RuntimeError("baseline() has not run yet")
        return Configuration(self.graph, self._ids)

    def baseline(self) -> IncrementalReport:
        """Cold-certify the base graph and run a full round."""
        start = perf_counter()
        config = Configuration.with_random_ids(self.graph, self._rng)
        self._ids = dict(config.ids)
        base = (
            self._base_decomposer
            if self.graph.fingerprint("edges") == self._base_identity
            else None  # evolved past the pinned witness: full search
        )
        self.session.decomposer = base
        self._chain_decomposer = base
        before = sum(self.session.stage_counters.values())
        reports = self.session.certify(config, self.properties, verify=True)
        if not isinstance(reports, dict):
            reports = {self.properties[0]: reports}
        try:
            self._decomposition = self._resolve_decomposition(config)
        except ProverFailure:
            # The structural phase itself refused (no witness found):
            # there is nothing to maintain incrementally.  The refusals
            # ride in the reports; the certifier stays un-baselined.
            self._decomposition = None
        self._updates_since_full = 0
        rounds = {
            key: RegionReport(
                accepted=report.verification.accepted,
                verdicts=dict(report.verification.verdicts),
                region=tuple(
                    sorted(report.verification.verdicts, key=repr)
                ),
                vertices_total=report.verification.vertices_total,
                frontier_hops=self.executor.frontier_hops,
                mode="full",
                rejections=tuple(report.verification.rejecting_vertices),
                elapsed_seconds=report.verification.elapsed_seconds,
                full_report=report.verification,
            )
            for key, report in reports.items()
            if report.verification is not None
        }
        return IncrementalReport(
            accepted=all(
                not r.refused and r.accepted for r in reports.values()
            ),
            mode="baseline",
            reports=reports,
            rounds=rounds,
            repair=None,
            batch=None,
            update_index=0,
            stages_run=sum(self.session.stage_counters.values()) - before,
            elapsed_seconds=perf_counter() - start,
            fingerprint=self.graph.fingerprint(),
        )

    # ------------------------------------------------------------------
    def update(
        self, batch: EditBatch, force_full: bool = False
    ) -> IncrementalReport:
        """Apply one edit batch and recertify incrementally.

        Raises :class:`~repro.graphs.edits.EditError` (leaving the
        certifier's state untouched) when the batch does not apply.
        """
        if not isinstance(batch, EditBatch):
            batch = EditBatch(batch)
        if not batch:
            raise ValueError("update() needs a non-empty batch")
        if self._ids is None:
            self.baseline()
        if self._decomposition is None:
            # The current graph refuses certification (the baseline was
            # refused, or a fallback landed on a state with no witness —
            # e.g. the graph went disconnected).  Apply the edits anyway
            # and recertify the evolved graph from scratch so a healing
            # edit can recover the stream.
            return self._rebaseline_update(batch)
        start = perf_counter()
        new_graph = apply_edits(self.graph, batch)

        repair = repair_decomposition(
            self._decomposition,
            new_graph,
            batch,
            self.k,
            max_dirty_fraction=self.max_dirty_fraction,
        )
        self.metrics.updates += 1
        if repair.fallback:
            self.metrics.full_fallbacks += 1
            if repair.decomposition is not None:
                # Policy fallback (dirty region too large): the repaired
                # bags are still a valid witness; rebuild every
                # certificate over them instead of re-searching.
                self._chain_decomposer = witness_decomposer(
                    repair.decomposition
                )
            else:
                # No repaired witness exists (the width would grow):
                # hand the evolved graph to the session's full search.
                # The pinned base decomposer is only a witness for the
                # *base* graph, so it must not be reused here.
                self._chain_decomposer = None
        else:
            self.metrics.bags_dirtied += repair.dirty_count
            if batch.structural() or batch.relabels_edges():
                # The identity changed; chain fresh keys off the
                # repaired bags instead of re-running the search.
                self._chain_decomposer = witness_decomposer(
                    repair.decomposition
                )
            # else: vertex labels only — identical identity, identical
            # key chain (same decomposer as last time), so every
            # artifact (incl. the encoded bytes) resolves from cache.
        self.session.decomposer = self._chain_decomposer

        config = Configuration(new_graph, self._ids)
        before = sum(self.session.stage_counters.values())
        reports = self.session.certify(config, self.properties, verify=False)
        if not isinstance(reports, dict):
            reports = {self.properties[0]: reports}
        stages_run = sum(self.session.stage_counters.values()) - before
        reused = max(0, self._expected_stage_runs() - stages_run)
        self.metrics.artifacts_reused += reused

        # Commit the new state before the round: the certification
        # exists regardless of what the round concludes about it.
        self.graph = new_graph
        if repair.decomposition is not None:
            self._decomposition = repair.decomposition
        else:
            try:
                self._decomposition = self._resolve_decomposition(config)
            except ProverFailure:
                # The from-scratch search refused the evolved graph (it
                # may be disconnected, or no witness of width <= k was
                # found); the refusals ride in the reports and the next
                # update re-baselines.
                self._decomposition = None

        self._updates_since_full += 1
        full = (
            force_full
            or repair.fallback
            or (
                self.full_round_every > 0
                and self._updates_since_full >= self.full_round_every
            )
        )
        rounds: dict = {}
        dirty = batch.touched_vertices()
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
        if full:
            self.metrics.full_rounds += 1
            self._updates_since_full = 0
        else:
            self.metrics.region_rounds += 1

        accepted = bool(reports) and all(
            not r.refused and r.accepted for r in reports.values()
        )
        return IncrementalReport(
            accepted=accepted,
            mode="fallback" if repair.fallback else ("full" if full else "region"),
            reports=reports,
            rounds=rounds,
            repair=repair,
            batch=batch,
            update_index=self.metrics.updates,
            artifacts_reused=reused,
            stages_run=stages_run,
            elapsed_seconds=perf_counter() - start,
            fingerprint=new_graph.fingerprint(),
        )

    # ------------------------------------------------------------------
    def _rebaseline_update(self, batch: EditBatch) -> IncrementalReport:
        """Update with no live decomposition: recertify from scratch."""
        start = perf_counter()
        self.graph = apply_edits(self.graph, batch)
        base = self.baseline()
        self.metrics.updates += 1
        self.metrics.full_fallbacks += 1
        self.metrics.full_rounds += 1
        repair = RepairResult(
            None, (), fallback=True, reason="no live decomposition"
        )
        return IncrementalReport(
            accepted=base.accepted,
            mode="fallback",
            reports=base.reports,
            rounds=base.rounds,
            repair=repair,
            batch=batch,
            update_index=self.metrics.updates,
            stages_run=base.stages_run,
            elapsed_seconds=perf_counter() - start,
            fingerprint=self.graph.fingerprint(),
        )

    def _expected_stage_runs(self) -> int:
        """Stage runs a cold certify of the current batch would cost."""
        plan = theorem1_plan(self.k)
        per_property = len(plan.property_nodes()) * len(self.properties)
        return len(plan.structural_nodes()) + per_property

    def _resolve_decomposition(self, config: Configuration):
        """Fetch the decomposition the session just used (cache-warm)."""
        structure = self.session._structure_for(
            config, None, config.graph.fingerprint("edges")
        )
        return structure.ctx.decomposition
