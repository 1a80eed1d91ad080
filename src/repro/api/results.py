"""Structured certification results.

:class:`CertificationReport` replaces the untyped
``(config, scheme, labeling, result)`` tuple of the legacy
``certify_lanewidth_graph`` entry point with named fields: the verdict,
honest bit accounting (max/mean/total label bits, class count), the
structural shape (lane width, hierarchy depth), and per-stage wall-clock
timings plus the session's cumulative stage counters — the observability
surface the batching experiments assert against.

Since the wire codec landed, the headline ``*_label_bits`` figures are
**measured**: the exact bit lengths of the labels' wire encodings
(:mod:`repro.codec`, ``docs/FORMAT.md``), not arithmetic estimates.  The
pre-codec accounting of ``label_bits()`` is still reported alongside as
``accounted_*_label_bits`` — the tier-1 suite asserts measured ≤
accounted, so the O(log n) claims only ever got *tighter*.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.api.runtime import VerificationReport


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock seconds spent in one pipeline stage.

    ``cached`` marks timings replayed from a session's memoized
    structural artifacts: the stage did *not* run for this report — the
    figure records what the artifact originally cost.
    """

    name: str
    seconds: float
    cached: bool = False

    def __str__(self) -> str:
        suffix = " (cached)" if self.cached else ""
        return f"{self.name}: {self.seconds * 1e3:.2f} ms{suffix}"

    def to_dict(self) -> dict:
        return {"name": self.name, "seconds": self.seconds, "cached": self.cached}

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "StageTiming":
        return cls(
            name=data["name"],
            seconds=data["seconds"],
            cached=data.get("cached", False),
        )


@dataclass
class CertificationReport:
    """Everything one ``certify`` call learned about one property."""

    property_key: str
    accepted: bool
    #: True when the honest prover refused the instance (property false,
    #: width over bound, disconnected network, ...) — ``refusal`` says
    #: why, and ``refusal_reason`` is its code (``too-small``,
    #: ``disconnected``, ``width``, ``mismatch``, ``false``,
    #: ``unsupported``; see :class:`~repro.pls.scheme.ProverFailure`).
    refused: bool = False
    refusal: Optional[str] = None
    refusal_reason: Optional[str] = None

    # Instance shape.
    n: int = 0
    m: int = 0
    #: Certified lanewidth bound (f(k+1) in pathwidth mode).
    max_width: Optional[int] = None
    #: Lane count of the hierarchy root actually built.
    lane_count: Optional[int] = None
    hierarchy_depth: Optional[int] = None

    # Bit accounting (None when the prover refused).  The unqualified
    # figures are *measured* — exact wire-encoding bit lengths; the
    # ``accounted_*`` figures are the arithmetic ``label_bits`` estimate
    # kept for comparison (measured <= accounted, asserted in tier 1).
    class_count: Optional[int] = None
    max_label_bits: Optional[int] = None
    mean_label_bits: Optional[float] = None
    total_label_bits: Optional[int] = None
    accounted_max_label_bits: Optional[int] = None
    accounted_mean_label_bits: Optional[float] = None
    accounted_total_label_bits: Optional[int] = None

    # Observability.
    stage_timings: tuple = ()
    #: Snapshot of the owning session's cumulative per-stage run counts
    #: at report creation time ({} for sessionless pipeline runs).
    stage_counters: dict = field(default_factory=dict)
    #: True when the structural stages were served from the session cache.
    structure_cached: bool = False
    #: How the witness decomposition was obtained (``None`` in lanewidth
    #: mode or on refusal before the decompose stage): engine name
    #: ("bnb"/"heuristic"/"witness"), achieved vs heuristic width,
    #: and — for the branch-and-bound — nodes expanded, memo hits, the
    #: node budget and the ``optimal``/``exhausted`` flags.
    decomposition_stats: Optional[dict] = None
    #: Which lane builder the Theorem-1 prover kept (``None`` in
    #: lanewidth mode or on refusal): ``builder`` ("greedy" for
    #: Observation 4.3's lanes, "prop-4.6" for the fallback), the
    #: representation ``width`` w, the completion ``congestion`` and the
    #: ``h_bound`` h(w) it met.
    lane_stats: Optional[dict] = None

    # Cold-path observability: wall-clock the label node spent
    # wire-encoding the labeling (0.0 when the node came from the
    # artifact cache; an executed ``label`` stage row is net of it),
    # kernel compile time of the verification round, and whether that
    # round attached to a persisted compiled-round envelope instead of
    # compiling.
    encode_seconds: float = 0.0
    compile_seconds: float = 0.0
    compiled_round_cached: bool = False

    #: Structured record of the verification round (``None`` when the
    #: prover refused or the round was skipped via ``verify=False``).
    verification: Optional[VerificationReport] = field(default=None, repr=False)

    # Raw artifacts for drill-down and legacy interop (never compared).
    config: object = field(default=None, repr=False, compare=False)
    scheme: object = field(default=None, repr=False, compare=False)
    labeling: object = field(default=None, repr=False, compare=False)
    result: object = field(default=None, repr=False, compare=False)
    #: The labeling in wire form (:class:`repro.codec.EncodedLabeling`)
    #: when this report came from a live certify call or a store load.
    encoded: object = field(default=None, repr=False, compare=False)

    def as_tuple(self) -> tuple:
        """Return the legacy ``(config, scheme, labeling, result)`` tuple."""
        return (self.config, self.scheme, self.labeling, self.result)

    @property
    def rejecting_vertices(self) -> list:
        """Vertices that rejected during verification ([] if accepted)."""
        if self.result is None:
            return []
        return self.result.rejecting_vertices

    def stage_seconds(self, name: str) -> float:
        """Total seconds attributed to the named stage in this report."""
        return sum(t.seconds for t in self.stage_timings if t.name == name)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """Machine-readable form for experiment output.

        Raw artifacts (config/scheme/labeling/result) are drill-down
        handles, not data — they are deliberately not serialized; the
        structured ``verification`` record is.
        """
        data = {
            "property_key": self.property_key,
            "accepted": self.accepted,
            "refused": self.refused,
            "refusal": self.refusal,
            "n": self.n,
            "m": self.m,
            "max_width": self.max_width,
            "lane_count": self.lane_count,
            "hierarchy_depth": self.hierarchy_depth,
            "class_count": self.class_count,
            "max_label_bits": self.max_label_bits,
            "mean_label_bits": self.mean_label_bits,
            "total_label_bits": self.total_label_bits,
            "accounted_max_label_bits": self.accounted_max_label_bits,
            "accounted_mean_label_bits": self.accounted_mean_label_bits,
            "accounted_total_label_bits": self.accounted_total_label_bits,
            "stage_timings": [t.to_dict() for t in self.stage_timings],
            "stage_counters": dict(self.stage_counters),
            "structure_cached": self.structure_cached,
            "decomposition_stats": (
                dict(self.decomposition_stats)
                if self.decomposition_stats is not None
                else None
            ),
            "encode_seconds": self.encode_seconds,
            "compile_seconds": self.compile_seconds,
            "compiled_round_cached": self.compiled_round_cached,
            "verification": (
                self.verification.to_dict()
                if self.verification is not None
                else None
            ),
        }
        # Store entries embed this dict: leaving these keys out when
        # there is nothing to say keeps accepted lanewidth-mode entries
        # byte-identical.
        if self.lane_stats is not None:
            data["lane_stats"] = dict(self.lane_stats)
        if self.refusal_reason is not None:
            data["refusal_reason"] = self.refusal_reason
        return data

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "CertificationReport":
        verification = data.get("verification")
        return cls(
            property_key=data["property_key"],
            accepted=data["accepted"],
            refused=data.get("refused", False),
            refusal=data.get("refusal"),
            refusal_reason=data.get("refusal_reason"),
            n=data.get("n", 0),
            m=data.get("m", 0),
            max_width=data.get("max_width"),
            lane_count=data.get("lane_count"),
            hierarchy_depth=data.get("hierarchy_depth"),
            class_count=data.get("class_count"),
            max_label_bits=data.get("max_label_bits"),
            mean_label_bits=data.get("mean_label_bits"),
            total_label_bits=data.get("total_label_bits"),
            accounted_max_label_bits=data.get("accounted_max_label_bits"),
            accounted_mean_label_bits=data.get("accounted_mean_label_bits"),
            accounted_total_label_bits=data.get("accounted_total_label_bits"),
            stage_timings=tuple(
                StageTiming.from_dict(t) for t in data.get("stage_timings", ())
            ),
            stage_counters=dict(data.get("stage_counters", {})),
            structure_cached=data.get("structure_cached", False),
            decomposition_stats=data.get("decomposition_stats"),
            lane_stats=data.get("lane_stats"),
            encode_seconds=data.get("encode_seconds", 0.0),
            compile_seconds=data.get("compile_seconds", 0.0),
            compiled_round_cached=data.get("compiled_round_cached", False),
            verification=(
                VerificationReport.from_dict(verification)
                if verification is not None
                else None
            ),
        )

    def summary(self) -> str:
        """One human-readable line, for examples and benchmark tables.

        The bit figures are measured wire-encoding sizes (see
        ``docs/FORMAT.md``), not the arithmetic estimate — that one is
        available as ``accounted_max_label_bits``.
        """
        if self.refused:
            return (
                f"{self.property_key}: prover refused ({self.refusal}) "
                f"on n={self.n}, m={self.m}"
            )
        verdict = "accepted" if self.accepted else "REJECTED"
        cached = ", structure cached" if self.structure_cached else ""
        decomposed = ""
        if self.decomposition_stats:
            stats = self.decomposition_stats
            decomposed = f", {stats.get('engine')} width {stats.get('width')}"
            heuristic = stats.get("heuristic_width")
            if heuristic is not None and heuristic != stats.get("width"):
                decomposed += f" (heuristic {heuristic})"
        return (
            f"{self.property_key}: {verdict}, n={self.n}, m={self.m}, "
            f"max {self.max_label_bits} encoded bits, mean "
            f"{self.mean_label_bits:.1f} bits, {self.class_count} classes, "
            f"depth {self.hierarchy_depth}{decomposed}{cached}"
        )
