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

    def __getstate__(self):
        # The sizes cache holds a scheme, which may close over
        # unpicklable prover state; drop it at process boundaries.
        state = self.__dict__.copy()
        state.pop("_sizes_cache", None)
        return state

    def _label_sizes(self, scheme: "ProofLabelingScheme") -> tuple:
        """Per-label sizes, computed once per scheme (the report asks
        for max, mean, and total back to back over the same walk)."""
        cached = self.__dict__.get("_sizes_cache")
        if cached is not None and cached[0] is scheme:
            return cached[1]
        sizes = tuple(
            scheme.label_size_bits(label, self.size_context)
            for label in self.mapping.values()
        )
        self.__dict__["_sizes_cache"] = (scheme, sizes)
        return sizes

    def max_label_bits(self, scheme: "ProofLabelingScheme") -> int:
        """Return the maximum encoded certificate size in bits."""
        if not self.mapping:
            return 0
        return max(self._label_sizes(scheme))

    def total_label_bits(self, scheme: "ProofLabelingScheme") -> int:
        """Return the total certificate volume in bits."""
        return sum(self._label_sizes(scheme))

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
    """Raised by provers on configurations violating the predicate."""
