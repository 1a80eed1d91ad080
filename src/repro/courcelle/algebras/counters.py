"""Counter-flavored algebras: parity, size thresholds, degree bounds.

Parity and size thresholds are *counting-MSO* properties — the standard
extension of Courcelle's framework mentioned with Proposition 2.4 — and
their homomorphism classes are simply truncated counters.  Degree bounds
are plain MSO (Section 1.2's formula with ``Δ+1`` nested quantifiers) and
their classes are per-slot truncated degree vectors.
"""

from __future__ import annotations

from repro.courcelle.algebra import BoundedAlgebra, join_slot_map


class ParityAlgebra(BoundedAlgebra):
    """|V| mod m == r (counting MSO).  State: vertex count mod m."""

    def __init__(self, modulus: int = 2, residue: int = 0):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        self.modulus = modulus
        self.residue = residue % modulus
        self.key = f"order-mod-{modulus}-is-{self.residue}"

    def _new_vertices(self, count: int):
        return count % self.modulus

    def _add_real_edge(self, state, a: int, b: int):
        return state

    def _join(self, state1, arity1, state2, arity2, identify):
        return (state1 + state2 - len(identify)) % self.modulus

    def _forget(self, state, arity, keep):
        return state

    def accepts(self, state, arity) -> bool:
        return state == self.residue


class SizeThresholdAlgebra(BoundedAlgebra):
    """|V| >= threshold.  State: vertex count truncated at the threshold."""

    def __init__(self, threshold: int):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self.key = f"order-at-least-{threshold}"

    def _new_vertices(self, count: int):
        return min(count, self.threshold)

    def _add_real_edge(self, state, a: int, b: int):
        return state

    def _join(self, state1, arity1, state2, arity2, identify):
        return min(state1 + state2 - len(identify), self.threshold)

    def _forget(self, state, arity, keep):
        return state

    def accepts(self, state, arity) -> bool:
        return state >= self.threshold


class DegreeAlgebra(BoundedAlgebra):
    """Maximum degree <= delta.

    State: ``(degrees, violated)`` with per-slot degrees truncated at
    ``delta + 1``.  Forgotten vertices never gain edges, so their final
    degree is already known when they leave the boundary.
    """

    def __init__(self, delta: int):
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.delta = delta
        self.key = f"max-degree-{delta}"

    def _cap(self, d: int) -> int:
        return min(d, self.delta + 1)

    def _new_vertices(self, count: int):
        return (tuple([0] * count), False)

    def _add_real_edge(self, state, a: int, b: int):
        degrees, violated = state
        new = list(degrees)
        new[a] = self._cap(new[a] + 1)
        new[b] = self._cap(new[b] + 1)
        violated = violated or new[a] > self.delta or new[b] > self.delta
        return (tuple(new), violated)

    def _join(self, state1, arity1, state2, arity2, identify):
        degrees1, violated1 = state1
        degrees2, violated2 = state2
        slot_map = join_slot_map(arity1, arity2, identify)
        new_arity = arity1 + arity2 - len(identify)
        new = list(degrees1) + [0] * (new_arity - arity1)
        for j, d in enumerate(degrees2):
            target = slot_map[j]
            new[target] = self._cap(new[target] + d)
        violated = violated1 or violated2 or any(d > self.delta for d in new)
        return (tuple(new), violated)

    def _forget(self, state, arity, keep):
        degrees, violated = state
        return (tuple(degrees[k] for k in keep), violated)

    def accepts(self, state, arity) -> bool:
        return not state[1]
