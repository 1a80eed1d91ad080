"""Theorem 1: the O(log n)-bit proof labeling scheme.

``Theorem1Scheme`` certifies ``φ ∧ (pathwidth ≤ k)`` on a configuration:
the prover runs the full pipeline — path decomposition → interval
representation → lane partition with low-congestion embedding
(Observation 4.3's greedy lanes, or Proposition 4.6 when they miss its
bounds) → completion → construction sequence (Proposition 5.2)
→ hierarchy (Proposition 5.6) → homomorphism classes (Proposition 6.1) →
certificates (Lemmas 6.4/6.5 + embedding records) — and the verifier is
:func:`repro.core.verifier.verify_theorem1`.

``LanewidthScheme`` is the same machinery for *native* lanewidth
constructions (no Section 4 front end, no virtual edges): the benchmark
families of DESIGN.md use it to scale ``n`` without the f(k) constant
blow-up.  The construction sequence is supplied to the prover as a hint —
the paper's prover has unlimited computation and could recover one; ours
accepts the witness instead (documented substitution).

Both provers run the matching plan of :mod:`repro.api.plan`
(``theorem1_plan`` / ``lanewidth_plan``) from scratch through its
``PlanRunner`` over a throwaway in-memory cache — the same runner a
:class:`repro.api.CertificationSession` drives against its persistent
cache, so the two paths emit identical labels.  New code should prefer
:func:`repro.api.certify` or a session, which additionally expose
per-stage timings, structured reports, and cross-property reuse of the
structural stages; these classes are the verifier halves session reports
carry and the stable entry points of the original API.  (The plan
imports are deferred to call time: ``repro.api`` depends on this module
for the verifier half, so an eager import here would be circular.)

Per the paper's remark after Theorem 1, the structural part certified is
``pw(G) ≤ w - 1`` where ``w`` is the certified lanewidth (≤ f(k+1) when
the pipeline starts from a width-(k+1) interval representation) — the
exact-``k`` conjunct would additionally run the pathwidth-obstruction
formula through the same class machinery; see DESIGN.md.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.certificates import accounted_label_bits
from repro.core.lane_partition import f_bound
from repro.core.lanewidth import ConstructionSequence, apply_construction
from repro.core.verifier import verify_theorem1
from repro.courcelle.registry import resolve_algebra
from repro.pls.bits import SizeContext
from repro.pls.model import Configuration
from repro.pls.scheme import Labeling, ProofLabelingScheme, ProverFailure


class CertifyingScheme(ProofLabelingScheme):
    """Shared verify/measure half of the two schemes.

    Subclasses supply ``prove``; the verifier and the bit accounting are
    property-independent, which is what lets a session swap algebras
    without touching the structural artifacts.  A bare instance is a
    verifier half only (what the certificate store rehydrates): its
    ``prove`` refuses.
    """

    label_location = "edges"

    def __init__(self, algebra, max_width: int):
        self.algebra = resolve_algebra(algebra)
        self.max_width = max_width

    def prove(self, config: Configuration) -> Labeling:
        raise ProverFailure("a verifier-half scheme has no prover")

    def verify(self, view) -> bool:
        return verify_theorem1(view, self.algebra, self.max_width)

    def label_size_bits(self, label, ctx: SizeContext) -> int:
        # One accounting memo per size context: labels of one labeling
        # share record objects heavily.  The memo is transient state,
        # dropped on pickling.
        memo = self.__dict__.get("_bits_memo")
        if memo is None or memo[0] is not ctx:
            memo = (ctx, {})
            self.__dict__["_bits_memo"] = memo
        return accounted_label_bits(label, ctx, memo[1])

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_bits_memo", None)
        return state


class Theorem1Scheme(CertifyingScheme):
    """Certify ``φ ∧ (pathwidth ≤ k)`` with O(log n)-bit edge labels.

    ``decomposer`` overrides the witness search (see
    :class:`repro.api.pipeline.DecomposeStage`).
    """

    def __init__(
        self,
        algebra,
        k: int,
        decomposer: Optional[Callable] = None,
    ):
        if k < 1:
            raise ValueError("pathwidth bound must be at least 1")
        super().__init__(algebra, max_width=f_bound(k + 1))
        self.k = k
        self.decomposer = decomposer

    def prove(self, config: Configuration) -> Labeling:
        from repro.api.plan import run_plan, theorem1_plan

        plan = theorem1_plan(self.k, decomposer=self.decomposer)
        return run_plan(plan, config, self.algebra)


class LanewidthScheme(CertifyingScheme):
    """Certify ``φ`` on a graph given its lanewidth construction.

    The expected graph of ``sequence`` is replayed once and remembered as
    a fingerprint by ``match_stage`` (created on the first ``prove``;
    sessions hand in their memoized one); repeated ``prove`` calls
    compare configurations by hash instead of rebuilding the graph and
    its edge/vertex sets.
    """

    def __init__(self, algebra, sequence: ConstructionSequence):
        super().__init__(algebra, max_width=sequence.width)
        self.sequence = sequence
        self.match_stage = None  # a MatchSequenceStage once set

    def prove(self, config: Configuration) -> Labeling:
        from repro.api.pipeline import MatchSequenceStage
        from repro.api.plan import lanewidth_plan, run_plan

        if self.match_stage is None:
            self.match_stage = MatchSequenceStage(self.sequence)
        plan = lanewidth_plan(self.sequence, match_stage=self.match_stage)
        return run_plan(plan, config, self.algebra)


def certify_lanewidth_graph(
    sequence: ConstructionSequence, algebra, rng=None
) -> tuple:
    """Convenience: build the configuration, prove, and verify.

    Returns ``(config, scheme, labeling, result)``.  Legacy entry point —
    :func:`repro.api.certify` returns the same information (and more) as
    a structured :class:`repro.api.CertificationReport`; use
    ``report.as_tuple()`` during migration.
    """
    from repro.pls.simulator import run_verification

    graph = apply_construction(sequence)
    config = Configuration.with_random_ids(graph, rng)
    scheme = LanewidthScheme(algebra, sequence)
    labeling = scheme.prove(config)
    result = run_verification(config, scheme, labeling)
    return config, scheme, labeling, result
