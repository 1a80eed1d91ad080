"""Public certification API: staged pipeline, sessions, and the facade.

The Theorem 1 machinery factors into graph-level *structural* stages and
property-level *evaluation* stages; this package exposes that split:

* :func:`certify` — one-line entry point returning structured
  :class:`CertificationReport` objects;
* :class:`CertificationSession` — memoizes structural artifacts per
  graph fingerprint and proves property batches against one hierarchy;
* :class:`CertificationPipeline` + the stage classes — explicit,
  swappable steps with per-stage timings for experiments;
* :class:`CertificationPlan` / :class:`PlanRunner` (:mod:`repro.api.plan`)
  — the stages as a content-addressed artifact DAG: nodes declare typed
  inputs/outputs, artifacts carry chained fingerprints, and resolved
  nodes are skipped against an :class:`ArtifactCache`
  (:mod:`repro.api.artifacts`) whose disk layer persists structural
  artifacts next to the certificates;
* :class:`VerificationEngine` + executors (:mod:`repro.api.runtime`,
  :mod:`repro.api.vectorized`) — the verification round with pluggable
  scheduling (the serial reference or the batched numpy kernels, see
  :func:`make_executor`), fail-fast short-circuiting, and structured
  :class:`VerificationReport` output;
* :class:`AuditPlan` / :class:`AuditReport` (:mod:`repro.api.audit`) —
  declarative soundness campaigns over the adversary generators, driven
  by named seed streams;
* :class:`CertificateStore` (:mod:`repro.api.store`) — persistence of
  wire-encoded certificates (:mod:`repro.codec`, ``docs/FORMAT.md``)
  keyed by graph fingerprint, enabling certify-once / re-verify-many
  workflows with zero prover stages on the stored path.

The legacy entry points (``Theorem1Scheme``, ``LanewidthScheme``,
``certify_lanewidth_graph``) live in :mod:`repro.core` and delegate to
these stages; they are re-exported here for convenience.
"""

from repro.api.artifacts import ArtifactCache, ArtifactEntry
from repro.api.facade import (
    LanewidthScheme,
    Theorem1Scheme,
    certify,
    certify_lanewidth_graph,
)
from repro.api.plan import (
    CertificationPlan,
    NodeKey,
    PlanError,
    PlanNode,
    PlanRun,
    PlanRunner,
    lanewidth_plan,
    theorem1_plan,
)
from repro.api.pipeline import (
    DEFAULT_EXACT_DECOMPOSITION_LIMIT,
    PROPERTY_STAGES,
    STRUCTURAL_STAGES,
    CertificationPipeline,
    CompletionStage,
    DecomposeStage,
    EvaluateStage,
    HierarchyStage,
    LabelStage,
    LaneStage,
    MatchSequenceStage,
    PipelineContext,
    PipelineScheme,
    Stage,
    lanewidth_stages,
    theorem1_stages,
)
from repro.api.audit import (
    AdversarialInstance,
    AttackTally,
    AuditAttack,
    AuditAttempt,
    AuditCase,
    AuditPlan,
    AuditReport,
    DropAttack,
    EdgeAdditionAttack,
    EdgeRemovalAttack,
    MutationAttack,
    SwapAttack,
    TransplantAttack,
    derive_rng,
    derive_seed,
)
from repro.api.results import CertificationReport, StageTiming
from repro.api.runtime import (
    SerialExecutor,
    VerificationEngine,
    VerificationExecutor,
    VerificationReport,
    executor_names,
    make_executor,
    register_executor,
    verify_labeling,
)
from repro.api.vectorized import VectorizedExecutor
from repro.api.session import CertificationSession
from repro.api.store import CertificateStore, StoreError, StoreMetrics

__all__ = [
    "certify",
    "CertificationSession",
    "CertificationReport",
    "StageTiming",
    # Certificate persistence.
    "CertificateStore",
    "StoreError",
    "StoreMetrics",
    # Plan-based proving + artifact cache.
    "CertificationPlan",
    "PlanNode",
    "PlanRunner",
    "PlanRun",
    "PlanError",
    "NodeKey",
    "theorem1_plan",
    "lanewidth_plan",
    "ArtifactCache",
    "ArtifactEntry",
    # Verification runtime.
    "VerificationEngine",
    "VerificationExecutor",
    "SerialExecutor",
    "VectorizedExecutor",
    "make_executor",
    "register_executor",
    "executor_names",
    "VerificationReport",
    "verify_labeling",
    # Adversarial audits.
    "AuditPlan",
    "AuditReport",
    "AuditCase",
    "AuditAttack",
    "AuditAttempt",
    "AttackTally",
    "AdversarialInstance",
    "MutationAttack",
    "SwapAttack",
    "DropAttack",
    "TransplantAttack",
    "EdgeRemovalAttack",
    "EdgeAdditionAttack",
    "derive_seed",
    "derive_rng",
    "CertificationPipeline",
    "PipelineContext",
    "PipelineScheme",
    "Stage",
    "DecomposeStage",
    "LaneStage",
    "CompletionStage",
    "MatchSequenceStage",
    "HierarchyStage",
    "EvaluateStage",
    "LabelStage",
    "theorem1_stages",
    "lanewidth_stages",
    "DEFAULT_EXACT_DECOMPOSITION_LIMIT",
    "STRUCTURAL_STAGES",
    "PROPERTY_STAGES",
    "Theorem1Scheme",
    "LanewidthScheme",
    "certify_lanewidth_graph",
]
