"""Frontier re-verification: run the round only where the edits landed.

A full verification round touches every vertex; after a small edit
batch that is almost entirely redundant.  The
:class:`DirtyRegionExecutor` verifies the **dirty region** — the
vertices the batch touched plus a certified frontier of
``frontier_hops`` graph neighborhoods around them — against the *fresh*
labeling the incremental prover just produced.

Why this is sound, and what it does and does not claim:

* The labeling being checked is the honest prover's output for the
  edited graph.  By completeness (Theorem 1) every vertex accepts it,
  so for honest updates the region verdict and the full-round verdict
  coincide — this equivalence is *property-tested* in the tier-1 suite
  rather than assumed.
* Against an adversary who tampers with certificates **in or near the
  dirty region** (the stale-after-edit and forged-certificate attacks
  the audit campaign mounts), the region round rejects exactly like a
  full round would: every touched vertex re-runs the same deterministic
  ``scheme.verify``.
* A corruption placed *outside* the region is, by definition, outside
  what this round re-checks.  That is the standard locality trade-off
  (Bousquet et al. 2023): the escape hatch is the periodic/forced
  **full round** (`full_round`, or `IncrementalCertifier`'s
  ``full_round_every``), which restores whole-graph coverage on a
  schedule the deployment chooses.

Coverage accounting mirrors the engine's: a region vertex that yields
no verdict (missing label, verifier exception) is a rejection, never a
silent skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.api.runtime import (
    VerificationEngine,
    VerificationReport,
    _run_views,
)
from repro.pls.model import Configuration, ViewFactory

#: Default frontier radius: the touched vertices plus their neighbors.
DEFAULT_FRONTIER_HOPS = 1


@dataclass
class RegionReport:
    """What one dirty-region (or escalated full) round learned."""

    accepted: bool
    verdicts: dict  # vertex -> bool, region vertices only
    region: tuple  # sorted vertices the round verified
    vertices_total: int
    frontier_hops: int
    mode: str  # "region" | "full"
    rejections: tuple = ()
    elapsed_seconds: float = 0.0
    #: Set when ``mode == "full"``: the engine's whole-graph report.
    full_report: Optional[VerificationReport] = field(
        default=None, repr=False
    )

    @property
    def region_size(self) -> int:
        return len(self.region)

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "mode": self.mode,
            "region_size": self.region_size,
            "vertices_total": self.vertices_total,
            "frontier_hops": self.frontier_hops,
            "rejections": [repr(v) for v in self.rejections],
            "elapsed_seconds": self.elapsed_seconds,
        }


class DirtyRegionExecutor:
    """Verifies dirty neighborhoods; escalates to full rounds on demand."""

    def __init__(
        self,
        engine: Optional[VerificationEngine] = None,
        frontier_hops: int = DEFAULT_FRONTIER_HOPS,
    ):
        if frontier_hops < 0:
            raise ValueError("frontier_hops must be >= 0")
        self.engine = engine or VerificationEngine()
        self.frontier_hops = frontier_hops

    def __repr__(self) -> str:
        return (
            f"DirtyRegionExecutor(frontier_hops={self.frontier_hops}, "
            f"engine={self.engine!r})"
        )

    # ------------------------------------------------------------------
    def region_for(self, graph, dirty_vertices) -> set:
        """The dirty set grown by ``frontier_hops`` neighborhoods."""
        region = {v for v in dirty_vertices if v in graph}
        frontier = set(region)
        for _hop in range(self.frontier_hops):
            grown: set = set()
            for v in frontier:
                grown.update(graph.neighbors(v))
            grown -= region
            if not grown:
                break
            region.update(grown)
            frontier = grown
        return region

    # ------------------------------------------------------------------
    def verify_region(
        self,
        config: Configuration,
        scheme,
        labeling,
        dirty_vertices,
    ) -> RegionReport:
        """One region round: dirty vertices + frontier, nothing else."""
        start = perf_counter()
        graph = config.graph
        region = sorted(
            self.region_for(graph, dirty_vertices), key=repr
        )
        # The engine's reference loop: a raising verifier rejects, and
        # a view that cannot be built raises.
        factory = ViewFactory(config, labeling.mapping, labeling.location)
        order = [factory.index_of(v) for v in region]
        verdicts = _run_views(factory, scheme, order, fail_fast=False).verdicts
        rejections = [v for v, ok in verdicts.items() if not ok]
        accepted = not rejections and len(verdicts) == len(region)
        return RegionReport(
            accepted=accepted,
            verdicts=verdicts,
            region=tuple(region),
            vertices_total=graph.n,
            frontier_hops=self.frontier_hops,
            mode="region",
            rejections=tuple(rejections),
            elapsed_seconds=perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def full_round(self, config: Configuration, scheme, labeling) -> RegionReport:
        """The escape hatch: a whole-graph round through the engine."""
        report = self.engine.verify(config, scheme, labeling)
        return RegionReport(
            accepted=report.accepted,
            verdicts=dict(report.verdicts),
            region=tuple(sorted(report.verdicts, key=repr)),
            vertices_total=report.vertices_total,
            frontier_hops=self.frontier_hops,
            mode="full",
            rejections=tuple(report.rejecting_vertices),
            elapsed_seconds=report.elapsed_seconds,
            full_report=report,
        )
