"""The one-line certification entry point.

    from repro.api import certify

    report = certify(graph, "connected", k=2)
    reports = certify(sequence, ["connected", "acyclic", "even-order"])

``certify`` builds a throwaway :class:`CertificationSession` and returns
structured :class:`~repro.api.results.CertificationReport` objects.  For
repeated certification — many properties, many graphs — construct a
session once and call ``session.certify`` directly so the structural
stages are shared.

The legacy entry points (``Theorem1Scheme``, ``LanewidthScheme``,
``certify_lanewidth_graph``) are re-exported here; their provers run the
same plans through the same runner.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

# Back-compat re-exports: same objects as repro.core.
from repro.core.scheme import (  # noqa: F401  (re-exported)
    LanewidthScheme,
    Theorem1Scheme,
    certify_lanewidth_graph,
)

from repro.api.runtime import VerificationEngine
from repro.api.session import CertificationSession


def certify(
    target,
    properties,
    k: Optional[int] = None,
    *,
    rng: Optional[random.Random] = None,
    decomposer: Optional[Callable] = None,
    verify: bool = True,
    engine: Optional[VerificationEngine] = None,
    store=None,
    artifacts=None,
):
    """Certify MSO₂ ``properties`` on ``target`` and report the results.

    Parameters
    ----------
    target:
        A :class:`~repro.graphs.Graph` (random O(log n)-bit identifiers
        are attached), a :class:`~repro.pls.model.Configuration`, or a
        native :class:`~repro.core.lanewidth.ConstructionSequence`.
    properties:
        One registry key / algebra instance, or a list of them — a list
        is proven as a batch against one shared hierarchy.
    k:
        Pathwidth bound (required for graph targets; ignored for
        sequence targets, which carry their own width).
    rng:
        Identifier source for bare-graph targets.
    decomposer:
        Optional witness decomposition override, ``graph ->
        PathDecomposition`` (or ``(PathDecomposition, stats)``).  Without
        one the witness search is a fixed policy of the graph and ``k``
        (see :class:`repro.api.pipeline.DecomposeStage`), recorded in
        ``report.decomposition_stats``.
    verify:
        ``False`` skips the verification round (prove only); replay it
        later with ``CertificationSession.verify``.
    engine:
        The :class:`~repro.api.runtime.VerificationEngine` running the
        round — pick the executor (serial/vectorized) and ``fail_fast``
        policy here.  Defaults to a serial engine.
    store:
        Optional :class:`~repro.api.store.CertificateStore`.  Every
        successful report is persisted to it in wire form (graph
        fingerprint + codec header + encoded labels), ready for
        ``store.load(...)`` / ``store.reverify(...)`` in this process or
        a later one — no prover stage reruns on the stored path.  The
        store's ``artifact_cache()`` additionally persists the prover's
        structural artifacts, so re-certifying a seen graph (even from a
        fresh process) skips every structural stage.
    artifacts:
        Optional :class:`~repro.api.artifacts.ArtifactCache` override
        for the prover-artifact cache (``None``: derived from ``store``,
        else in-memory).

    Returns a single :class:`CertificationReport` when ``properties`` is
    a single key, else ``{key: report}``.  Prover refusals are reported,
    not raised.  Report sizes (``max/mean/total_label_bits``) are
    measured wire-encoding bit lengths; the arithmetic estimate is kept
    in ``accounted_*_label_bits``.
    """
    session = CertificationSession(
        k=k,
        decomposer=decomposer,
        rng=rng,
        engine=engine,
        store=store,
        artifacts=artifacts,
    )
    return session.certify(target, properties, verify=verify)
