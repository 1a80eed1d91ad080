"""Proof labeling schemes: model, simulator, and building blocks.

This package implements Section 1.1's model faithfully:

* a :class:`Configuration` is a connected graph with O(log n)-bit distinct
  identifiers and optional input labels on vertices and edges;
* a :class:`ProofLabelingScheme` is a (centralized prover, local verifier)
  pair; labels live on vertices or on edges (Section 2.1's variant);
* the :mod:`simulator <repro.pls.simulator>` runs the single verification
  round, giving each vertex exactly its local view and nothing else;
* :mod:`transforms <repro.pls.transforms>` implements Proposition 2.1
  (edge labels -> vertex labels through a bounded-outdegree orientation);
* :mod:`pointer <repro.pls.pointer>` implements Proposition 2.2 (the
  spanning-tree scheme "pointing to" a designated vertex);
* :mod:`adversary <repro.pls.adversary>` and
  :mod:`lower_bound <repro.pls.lower_bound>` provide the soundness attack
  harness and the KKP cut-and-splice Omega(log n) adversary.
"""

from repro.pls.model import (
    Configuration,
    EdgePort,
    LocalView,
    ViewFactory,
    view_factory_for,
)
from repro.pls.arrays import HAVE_NUMPY, NotVectorizable, RoundArrays
from repro.pls.scheme import Labeling, ProofLabelingScheme, VerificationResult
from repro.pls.simulator import run_verification
from repro.pls.bits import uint_bits, id_bits_for
from repro.pls.pointer import PointerScheme
from repro.pls.classic import AcyclicityScheme, BipartitenessScheme, SpanningTreeScheme
from repro.pls.transforms import EdgeToVertexScheme

__all__ = [
    "Configuration",
    "EdgePort",
    "LocalView",
    "ViewFactory",
    "view_factory_for",
    "HAVE_NUMPY",
    "NotVectorizable",
    "RoundArrays",
    "Labeling",
    "ProofLabelingScheme",
    "VerificationResult",
    "run_verification",
    "uint_bits",
    "id_bits_for",
    "PointerScheme",
    "AcyclicityScheme",
    "BipartitenessScheme",
    "SpanningTreeScheme",
    "EdgeToVertexScheme",
]
