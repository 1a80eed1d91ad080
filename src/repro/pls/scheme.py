"""The ProofLabelingScheme interface and verification results."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from repro.pls.bits import SizeContext
from repro.pls.model import Configuration, LocalView


@dataclass
class Labeling:
    """A certificate assignment produced by a prover.

    ``location`` is ``"vertices"`` or ``"edges"``; ``mapping`` maps the
    corresponding keys (vertices, or canonical edge keys) to label objects.
    ``size_context`` carries the field widths used for honest bit
    accounting, including the homomorphism-class count discovered during
    proving.
    """

    location: str
    mapping: dict
    size_context: SizeContext

    def __post_init__(self):
        if self.location not in ("vertices", "edges"):
            raise ValueError("location must be 'vertices' or 'edges'")

    def max_label_bits(self, scheme: "ProofLabelingScheme") -> int:
        """Return the maximum encoded certificate size in bits."""
        ctx = self.size_context
        return max(
            (scheme.label_size_bits(x, ctx) for x in self.mapping.values()),
            default=0,
        )

    def total_label_bits(self, scheme: "ProofLabelingScheme") -> int:
        """Return the total certificate volume in bits."""
        ctx = self.size_context
        return sum(
            scheme.label_size_bits(x, ctx) for x in self.mapping.values()
        )

    def mean_label_bits(self, scheme: "ProofLabelingScheme") -> float:
        """Return the average encoded certificate size in bits."""
        if not self.mapping:
            return 0.0
        return self.total_label_bits(scheme) / len(self.mapping)


@dataclass
class VerificationResult:
    """Per-vertex verdicts of one verification round."""

    verdicts: dict  # vertex -> bool
    accepted: bool

    @property
    def rejecting_vertices(self) -> list:
        return sorted(v for v, ok in self.verdicts.items() if not ok)


class ProofLabelingScheme(ABC):
    """A (prover, verifier) pair for one graph predicate.

    ``prove`` may use unlimited centralized computation (the paper's P);
    ``verify`` must be strictly local: it receives one vertex's
    :class:`LocalView` and nothing else (the paper's V).  ``prove`` must
    raise :class:`ProverFailure` when the configuration does not satisfy
    the predicate — soundness experiments then craft adversarial labels
    separately.
    """

    #: "vertices" or "edges"
    label_location = "vertices"

    @abstractmethod
    def prove(self, config: Configuration) -> Labeling:
        """Return certificates making every vertex accept."""

    @abstractmethod
    def verify(self, view: LocalView) -> bool:
        """Return one vertex's verdict from its local view only."""

    @abstractmethod
    def label_size_bits(self, label, ctx: SizeContext) -> int:
        """Return the encoded size of one certificate in bits."""


class ProverFailure(Exception):
    """Raised by provers on configurations violating the predicate.

    ``reason`` is a short machine-readable code for the refusal (the
    Theorem-1 and lanewidth stages use ``too-small``, ``disconnected``,
    ``width``, ``mismatch``, ``false`` and ``unsupported``), or ``None``.
    """

    def __init__(self, message: str = "", reason: Optional[str] = None):
        super().__init__(message)
        self.reason = reason
