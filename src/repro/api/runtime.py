"""The verification runtime: pluggable executors and structured reports.

PR 1 rebuilt the *prover* side around the staged pipeline; this module
does the same for the *verification round* — the half of a proof labeling
scheme the paper actually bounds (every vertex checks its O(log n)-bit
local view).  The design mirrors the distributed reality:

* a :class:`VerificationEngine` owns the round's policy (which executor,
  whether to short-circuit) and produces a structured
  :class:`VerificationReport`;
* executors own the *scheduling* of the per-vertex checks.
  :class:`SerialExecutor` runs them in-process and is the reference
  every fast path is tested against; the batched numpy kernels of
  :mod:`repro.api.vectorized` are the one fast path.  Both produce
  identical verdicts for the same configuration — the checks are
  independent by the locality guarantee, so scheduling cannot change
  semantics;
* ``fail_fast`` short-circuits on the first rejection, which is the
  right mode for soundness audits where only the accept/reject bit
  matters.  The report's ``views_built`` counter
  makes the saving observable.

Executors build views through one per-round
:class:`~repro.pls.model.ViewFactory` — identifiers, input labels, and
certificates resolved into CSR-parallel arrays once, then each vertex's
:class:`~repro.pls.model.LocalView` is a pair of array slices.

Exception accounting: a verifier raising on malformed (adversarial)
labels still *rejects* — soundness must hold against arbitrary labelings
— but the report counts these ``exception_rejections`` separately from
ordinary ``verdict_rejections`` so scheme bugs on honest labelings are
not silently folded into soundness wins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.pls.model import Configuration, ViewFactory
from repro.pls.scheme import Labeling, ProofLabelingScheme, VerificationResult


# ----------------------------------------------------------------------
# Structured results.


def _vertex_to_json(vertex):
    """JSON-safe encoding of a vertex key (tuples become lists)."""
    if isinstance(vertex, tuple):
        return [_vertex_to_json(item) for item in vertex]
    if vertex is None or isinstance(vertex, (bool, int, float, str)):
        return vertex
    return repr(vertex)


def _vertex_from_json(vertex):
    if isinstance(vertex, list):
        return tuple(_vertex_from_json(item) for item in vertex)
    return vertex


@dataclass
class VerificationReport:
    """Everything one verification round learned.

    ``verdicts`` covers every vertex the executor reached; under
    ``fail_fast`` that may be a strict subset of the configuration
    (``views_built < vertices_total``), which is exactly the saving the
    mode exists to deliver.  ``accepted`` is authoritative either way: a
    short-circuited round is always a rejection.
    """

    accepted: bool
    verdicts: dict  # vertex -> bool (partial under fail_fast)
    vertices_total: int
    views_built: int
    #: Vertices whose verifier returned ``False``.
    verdict_rejections: tuple = ()
    #: Vertices whose verifier *raised* (rejects, counted separately).
    exception_rejections: tuple = ()
    executor: str = "serial"
    fail_fast: bool = False
    #: True when ``fail_fast`` actually skipped work.
    short_circuited: bool = False
    elapsed_seconds: float = 0.0
    #: Executor-specific counters (the vectorized executors report
    #: kernel coverage, fallback counts, and compile/kernel timing here;
    #: the reference executors leave it None).
    kernel_stats: Optional[dict] = None

    @property
    def rejecting_vertices(self) -> list:
        """All rejecting vertices (verdict and exception), sorted."""
        return sorted(
            set(self.verdict_rejections) | set(self.exception_rejections),
            key=repr,
        )

    def as_result(self) -> VerificationResult:
        """The legacy :class:`VerificationResult` view of this round."""
        return VerificationResult(
            verdicts=dict(self.verdicts), accepted=self.accepted
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form of the report.

        Round-trip fidelity (``from_dict(to_dict())`` preserving
        ``verdicts`` keys) holds for JSON-primitive and tuple vertex
        keys — everything the in-repo graphs use.  Exotic vertex
        objects are encoded by ``repr`` and come back as strings: the
        counters and verdict booleans survive, identity-based lookups
        do not.
        """
        return {
            "accepted": self.accepted,
            "verdicts": [
                [_vertex_to_json(v), ok] for v, ok in sorted(
                    self.verdicts.items(), key=lambda item: repr(item[0])
                )
            ],
            "vertices_total": self.vertices_total,
            "views_built": self.views_built,
            "verdict_rejections": [
                _vertex_to_json(v) for v in self.verdict_rejections
            ],
            "exception_rejections": [
                _vertex_to_json(v) for v in self.exception_rejections
            ],
            "executor": self.executor,
            "fail_fast": self.fail_fast,
            "short_circuited": self.short_circuited,
            "elapsed_seconds": self.elapsed_seconds,
            "kernel_stats": self.kernel_stats,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        # Reports stored by older builds carry a "chunks" list; it is
        # ignored.
        return cls(
            accepted=data["accepted"],
            verdicts={
                _vertex_from_json(v): ok for v, ok in data["verdicts"]
            },
            vertices_total=data["vertices_total"],
            views_built=data["views_built"],
            verdict_rejections=tuple(
                _vertex_from_json(v) for v in data["verdict_rejections"]
            ),
            exception_rejections=tuple(
                _vertex_from_json(v) for v in data["exception_rejections"]
            ),
            executor=data.get("executor", "serial"),
            fail_fast=data.get("fail_fast", False),
            short_circuited=data.get("short_circuited", False),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            kernel_stats=data.get("kernel_stats"),
        )

    def summary(self) -> str:
        verdict = "accepted" if self.accepted else "REJECTED"
        extra = ""
        if not self.accepted:
            extra = (
                f", {len(self.verdict_rejections)} verdict / "
                f"{len(self.exception_rejections)} exception rejections"
            )
        if self.short_circuited:
            extra += ", short-circuited"
        return (
            f"{verdict} ({self.views_built}/{self.vertices_total} views, "
            f"{self.executor}{extra})"
        )


# ----------------------------------------------------------------------
# What an executor returns.


@dataclass(frozen=True)
class _Outcome:
    """What one executor's pass over a round produced."""

    verdicts: dict
    exception_vertices: tuple
    views_built: int
    kernel_stats: Optional[dict] = None  # vectorized executors only


def _run_views(
    factory: ViewFactory,
    scheme,
    order: list,
    fail_fast: bool,
    kernel_stats: Optional[dict] = None,
) -> _Outcome:
    """Check the dense vertices ``order`` through reference views."""
    names = factory.vertices
    verdicts: dict = {}
    exceptions: list = []
    views = 0
    for dense in order:
        view = factory.view_at(dense)
        views += 1
        vertex = names[dense]
        try:
            ok = bool(scheme.verify(view))
        except Exception:
            # A verifier choking on malformed (adversarial) labels
            # rejects: soundness must hold against arbitrary labelings.
            ok = False
            exceptions.append(vertex)
        verdicts[vertex] = ok
        if not ok and fail_fast:
            break
    return _Outcome(
        verdicts=verdicts,
        exception_vertices=tuple(exceptions),
        views_built=views,
        kernel_stats=kernel_stats,
    )


# ----------------------------------------------------------------------
# Executors.


class VerificationExecutor:
    """Scheduling strategy for the independent per-vertex checks.

    ``execute`` returns one :class:`_Outcome` for the round.
    Implementations must preserve verdict semantics —
    the same configuration yields the same per-vertex verdicts
    regardless of scheduling — which the tier-1 property tests assert.
    """

    name = "executor"

    def execute(self, config, scheme, mapping, location, vertices, fail_fast):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(VerificationExecutor):
    """In-process execution through the reference ``LocalView`` path.

    One :class:`ViewFactory` serves the whole round.
    """

    name = "serial"

    def execute(self, config, scheme, mapping, location, vertices, fail_fast):
        if not vertices:
            return _Outcome({}, (), 0)
        factory = ViewFactory(config, mapping, location)
        order = [factory.index_of(v) for v in vertices]
        return _run_views(factory, scheme, order, fail_fast)


# ----------------------------------------------------------------------
# Executor registry: name -> factory.  The vectorized executor lives in
# ``repro.api.vectorized`` (optional numpy); it is imported lazily on
# first lookup so ``repro.api.runtime`` stays numpy-free.


_EXECUTOR_FACTORIES: dict = {
    "serial": SerialExecutor,
}

_LAZY_EXECUTORS = {"vectorized"}


def register_executor(name: str, factory) -> None:
    """Register an executor factory under ``name`` (overwrites)."""
    _EXECUTOR_FACTORIES[name] = factory


def _canonical_executor_name(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def make_executor(name: str, **kwargs) -> VerificationExecutor:
    """Build a registered executor by name.

    Accepts ``serial`` and ``vectorized`` (names are canonicalized:
    case-folded, ``_`` read as ``-``); the vectorized executor is
    imported on demand.  Raises ``ValueError`` for unknown names.
    """
    key = _canonical_executor_name(name)
    if key not in _EXECUTOR_FACTORIES and key in _LAZY_EXECUTORS:
        import repro.api.vectorized  # noqa: F401  (registers on import)
    factory = _EXECUTOR_FACTORIES.get(key)
    if factory is None:
        raise ValueError(
            f"unknown executor {name!r}; known: {sorted(executor_names())}"
        )
    return factory(**kwargs)


def executor_names() -> list:
    """All resolvable executor names (without importing lazy ones)."""
    return sorted(set(_EXECUTOR_FACTORIES) | _LAZY_EXECUTORS)


# ----------------------------------------------------------------------
# The engine.


class VerificationEngine:
    """Runs verification rounds under one scheduling/short-circuit policy.

        engine = VerificationEngine(make_executor("vectorized"))
        report = engine.verify(config, scheme, labeling)
        report.accepted, report.views_built, report.kernel_stats

    The inputs can come from a live ``certify`` call *or* from a
    :class:`~repro.api.store.CertificateStore` load — the engine only
    sees (configuration, verifier, labeling) and never runs a prover
    stage.

    Parameters
    ----------
    executor:
        A :class:`VerificationExecutor`; defaults to
        :class:`SerialExecutor`.
    fail_fast:
        Stop at the first rejection instead of collecting every verdict.
        The right mode for audits (only the accept bit matters); the
        wrong mode for diagnosing *which* vertices reject.
    """

    def __init__(
        self,
        executor: Optional[VerificationExecutor] = None,
        fail_fast: bool = False,
    ):
        self.executor = executor or SerialExecutor()
        self.fail_fast = fail_fast

    def __repr__(self) -> str:
        return (
            f"VerificationEngine(executor={self.executor!r}, "
            f"fail_fast={self.fail_fast})"
        )

    def verify(
        self,
        config: Configuration,
        scheme: ProofLabelingScheme,
        labeling: Labeling,
    ) -> VerificationReport:
        """Run one verification round and report it.

        The executor sees the configuration, the verifier and the
        labeling's mapping, nothing else.  A vectorized executor keys
        compiled rounds on the wire form a read-only
        :class:`~repro.api.store.StoredLabels` mapping carries, so the
        verdicts follow the labels the mapping serves; a plain ``dict``
        mapping is always compiled afresh.
        """
        if labeling.location != scheme.label_location:
            raise ValueError(
                f"labeling location {labeling.location!r} does not match "
                f"the scheme's {scheme.label_location!r}"
            )
        # Deterministic order: executors must agree on which vertex a
        # fail_fast round reaches first.
        vertices = sorted(config.graph.vertices(), key=repr)
        start = perf_counter()
        outcome = self.executor.execute(
            config,
            scheme,
            labeling.mapping,
            labeling.location,
            vertices,
            self.fail_fast,
        )
        elapsed = perf_counter() - start

        verdicts = outcome.verdicts
        rejecting = [v for v, ok in verdicts.items() if not ok]
        exception_set = set(outcome.exception_vertices)
        accepted = not rejecting and len(verdicts) == len(vertices)
        return VerificationReport(
            accepted=accepted,
            verdicts=verdicts,
            vertices_total=len(vertices),
            views_built=outcome.views_built,
            verdict_rejections=tuple(
                sorted(
                    (v for v in rejecting if v not in exception_set),
                    key=repr,
                )
            ),
            exception_rejections=tuple(sorted(exception_set, key=repr)),
            executor=self.executor.name,
            fail_fast=self.fail_fast,
            # Verdict coverage, not views_built: the vectorized
            # executors decide most vertices without building a view.
            short_circuited=self.fail_fast and len(verdicts) < len(vertices),
            elapsed_seconds=elapsed,
            kernel_stats=outcome.kernel_stats,
        )


def lend_artifacts(engine, cache) -> None:
    """Lend an artifact cache to the engine's executor if it takes one.

    Executors that persist compiled rounds (``vectorized``) expose
    ``adopt_artifacts`` and keep a cache they were configured with;
    everything else is left alone.  Duck-typed so custom engines and
    executors need no base-class change.
    """
    adopt = getattr(getattr(engine, "executor", None), "adopt_artifacts", None)
    if adopt is not None:
        adopt(cache)


def verify_labeling(
    config: Configuration,
    scheme: ProofLabelingScheme,
    labeling: Labeling,
    engine: Optional[VerificationEngine] = None,
) -> VerificationReport:
    """One-call verification round under ``engine`` (default: serial)."""
    return (engine or VerificationEngine()).verify(config, scheme, labeling)
