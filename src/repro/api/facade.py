"""The one-line certification entry point.

    from repro.api import certify

    report = certify(graph, "connected", k=2)
    reports = certify(sequence, ["connected", "acyclic", "even-order"])

``certify`` builds a throwaway :class:`CertificationSession` (or reuses a
caller-supplied one) and returns structured
:class:`~repro.api.results.CertificationReport` objects.  For repeated
certification — many properties, many graphs — construct a session once
and call ``session.certify`` directly so the structural stages are
shared.

The legacy entry points (``Theorem1Scheme``, ``LanewidthScheme``,
``certify_lanewidth_graph``) are re-exported here; they are thin shims
whose provers delegate to the same pipeline stages.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

# Back-compat shims: same objects as repro.core, pipeline-backed.
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
    exact_limit: Optional[int] = None,
    exact_budget_ms: Optional[float] = None,
    session: Optional[CertificationSession] = None,
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
        PathDecomposition``.
    exact_limit:
        Exact-decomposition cutoff for the default decomposer (see
        :class:`repro.api.pipeline.DecomposeStage`).
    exact_budget_ms:
        Wall-clock budget authorizing exact branch-and-bound attempts on
        graphs above ``exact_limit``; a timeout falls back to the best
        incumbent (never worse than the heuristic), recorded in
        ``report.decomposition_stats``.
    session:
        Reuse an existing session (and its structural cache) instead of
        creating a fresh one.
    verify:
        ``False`` skips the verification round (prove only); replay it
        later with ``session.verify(report)``.
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
    if session is None:
        session = CertificationSession(
            k=k,
            decomposer=decomposer,
            exact_limit=exact_limit,
            exact_budget_ms=exact_budget_ms,
            rng=rng,
            engine=engine,
            store=store,
            artifacts=artifacts,
        )
    else:
        # Explicit arguments must not be silently dropped: adopt them on
        # a session that has none, refuse when they conflict (the cached
        # structures were built under the session's settings).
        for name, value in (
            ("k", k),
            ("decomposer", decomposer),
            ("exact_limit", exact_limit),
            ("exact_budget_ms", exact_budget_ms),
            ("engine", engine),
            ("store", store),
        ):
            if value is None:
                continue
            current = getattr(session, name)
            if current is None:
                if name == "store":
                    # Re-derives a lazily created store-less artifact
                    # cache so the store's persistence takes effect.
                    session.adopt_store(value)
                else:
                    setattr(session, name, value)
            elif current != value:
                raise ValueError(
                    f"session was configured with {name}={current!r}, got "
                    f"{name}={value!r}; use a separate session per setting"
                )
        if artifacts is not None:
            # ``session.artifacts`` is a lazily derived property; adopt
            # the explicit cache only while it is still unset.
            if session._artifacts is None:
                session._artifacts = artifacts
            elif session._artifacts is not artifacts:
                raise ValueError(
                    "session already carries an artifact cache; use a "
                    "separate session per cache"
                )
    return session.certify(target, properties, rng=rng, verify=verify)
