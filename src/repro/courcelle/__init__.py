"""Homomorphism-class algebras for boundaried graphs (Propositions 2.4/6.1).

Proposition 2.4 asserts that for every MSO2 property there is a *finite*
set of homomorphism classes, closed under the composition operators of
k-terminal recursive graphs, that determines the property.  This package
realizes that statement constructively through the Borie-Parker-Tovey
style: a :class:`BoundedAlgebra` interface whose states are the
homomorphism classes and whose operations are the composition functions
``f_B``/``f_P`` needed by Proposition 6.1, plus one concrete algebra per
headline property of the paper.

The ground-truth :class:`WholeGraphAlgebra` (whose "class" is the entire
boundaried graph) lets the test suite validate every finite-state algebra
against the naive MSO semantics on randomized composition sequences.
"""

from repro.courcelle.boundary import BoundariedGraph, OpSequence, random_op_sequence
from repro.courcelle.algebra import (
    ArityLimitExceeded,
    BoundedAlgebra,
    ProductAlgebra,
    WholeGraphAlgebra,
)
from repro.courcelle.registry import (
    algebra_for,
    available_algebra_keys,
    resolve_algebra,
)

__all__ = [
    "BoundariedGraph",
    "OpSequence",
    "random_op_sequence",
    "ArityLimitExceeded",
    "BoundedAlgebra",
    "ProductAlgebra",
    "WholeGraphAlgebra",
    "algebra_for",
    "available_algebra_keys",
    "resolve_algebra",
]
