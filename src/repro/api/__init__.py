"""Public certification API: prover plans, sessions, and the facade.

The Theorem 1 machinery factors into graph-level *structural* stages and
property-level *evaluation* stages; this package exposes that split:

* :func:`certify` — one-line entry point returning structured
  :class:`CertificationReport` objects;
* :class:`CertificationSession` — memoizes structural artifacts per
  graph fingerprint and proves property batches against one hierarchy;
* the stage classes (:mod:`repro.api.pipeline`) — explicit steps that
  declare the context fields they read and write;
* :class:`CertificationPlan` / :class:`PlanRunner` (:mod:`repro.api.plan`)
  — the stages as a content-addressed artifact DAG and the one runner
  that executes every proof: artifacts carry chained fingerprints, and
  resolved nodes are skipped against an :class:`ArtifactCache`
  (:mod:`repro.api.artifacts`) whose disk layer persists structural
  artifacts next to the certificates; :func:`run_plan` is a from-scratch
  run over a throwaway cache;
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
``certify_lanewidth_graph``) live in :mod:`repro.core`; their provers
call :func:`run_plan`, and they are re-exported here for convenience.
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
    PlanRun,
    PlanRunner,
    lanewidth_plan,
    run_plan,
    theorem1_plan,
)
from repro.api.pipeline import (
    DEFAULT_EXACT_DECOMPOSITION_LIMIT,
    PROPERTY_STAGES,
    CompletionStage,
    DecomposeStage,
    EvaluateStage,
    HierarchyStage,
    LabelStage,
    LaneStage,
    MatchSequenceStage,
    PipelineContext,
    Stage,
    witness_decomposer,
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
    "PlanRunner",
    "PlanRun",
    "PlanError",
    "NodeKey",
    "theorem1_plan",
    "lanewidth_plan",
    "run_plan",
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
    "PipelineContext",
    "Stage",
    "DecomposeStage",
    "witness_decomposer",
    "LaneStage",
    "CompletionStage",
    "MatchSequenceStage",
    "HierarchyStage",
    "EvaluateStage",
    "LabelStage",
    "DEFAULT_EXACT_DECOMPOSITION_LIMIT",
    "PROPERTY_STAGES",
    "Theorem1Scheme",
    "LanewidthScheme",
    "certify_lanewidth_graph",
]
