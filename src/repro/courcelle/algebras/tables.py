"""Table-flavored algebras: coloring, vertex cover, independent set,
dominating set, perfect matching.

These homomorphism classes are *tables indexed by boundary traces* — the
textbook Borie–Parker–Tovey dynamic programs.  Their state size is
exponential in the boundary arity (2^b or 3^b entries), which is the
concrete face of the constant blow-up discussed in DESIGN.md: the paper's
f(k) lane counts are constants in n but astronomical in k, so these
algebras are exercised at small lanewidth while the partition-based ones
cover the full pipeline.  Each class guards its arity and fails loudly.

Bitmask conventions: subsets of boundary slots are ints; bit ``i`` is
slot ``i``.
"""

from __future__ import annotations

from repro.courcelle.algebra import (
    ArityLimitExceeded,
    BoundedAlgebra,
    join_slot_map,
)

_DENSE_ARITY_LIMIT = 14
_PROFILE_ARITY_LIMIT = 8


def _check_arity(arity: int, limit: int, key: str) -> None:
    if arity > limit:
        raise ArityLimitExceeded(
            f"algebra {key!r} supports boundary arity <= {limit} (got {arity}); "
            "this is the constant blow-up inherent to table-based Courcelle "
            "DPs — use a smaller lanewidth or a partition-based property"
        )


class ColoringAlgebra(BoundedAlgebra):
    """q-colorability.  State: frozenset of proper boundary colorings."""

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("need at least one color")
        self.q = q
        self.key = f"colorable-{q}"

    def _new_vertices(self, count: int):
        _check_arity(count, _PROFILE_ARITY_LIMIT, self.key)
        colorings = [()]
        for _ in range(count):
            colorings = [c + (x,) for c in colorings for x in range(self.q)]
        return frozenset(colorings)

    def _add_real_edge(self, state, a: int, b: int):
        return frozenset(c for c in state if c[a] != c[b])

    def _join(self, state1, arity1, state2, arity2, identify):
        new_arity = arity1 + arity2 - len(identify)
        _check_arity(new_arity, _PROFILE_ARITY_LIMIT, self.key)
        slot_map = join_slot_map(arity1, arity2, identify)
        appended = [j for j in range(arity2) if slot_map[j] >= arity1]
        glued = [(i, j) for i, j in identify]
        result = set()
        for c1 in state1:
            for c2 in state2:
                if all(c1[i] == c2[j] for i, j in glued):
                    result.add(c1 + tuple(c2[j] for j in appended))
        return frozenset(result)

    def _forget(self, state, arity, keep):
        return frozenset(tuple(c[k] for k in keep) for c in state)

    def accepts(self, state, arity) -> bool:
        return bool(state)


class VertexCoverAlgebra(BoundedAlgebra):
    """Vertex cover of size <= c.

    State: dense tuple ``f`` of length ``2^arity``; ``f[A]`` is the minimum
    number of **interior** cover vertices over covers whose boundary trace
    is exactly the slot set ``A``, truncated at ``c + 1`` (the "infeasible"
    sentinel).  Counting only interior vertices means joins never subtract
    (the two interiors are disjoint), which keeps truncation sound; the
    boundary contribution ``|A|`` is added at forget/accept time, when the
    vertices' membership is finalized.
    """

    def __init__(self, c: int):
        if c < 0:
            raise ValueError("cover budget must be non-negative")
        self.c = c
        self.key = f"vertex-cover-{c}"

    def _cap(self, v: int) -> int:
        return min(v, self.c + 1)

    def _new_vertices(self, count: int):
        _check_arity(count, _DENSE_ARITY_LIMIT, self.key)
        return tuple(0 for _mask in range(1 << count))

    def _add_real_edge(self, state, a: int, b: int):
        need = (1 << a) | (1 << b)
        return tuple(
            v if (mask & need) else self.c + 1 for mask, v in enumerate(state)
        )

    def _join(self, state1, arity1, state2, arity2, identify):
        new_arity = arity1 + arity2 - len(identify)
        _check_arity(new_arity, _DENSE_ARITY_LIMIT, self.key)
        slot_map = join_slot_map(arity1, arity2, identify)
        mask1_of = (1 << arity1) - 1
        result = []
        for mask in range(1 << new_arity):
            a1 = mask & mask1_of
            a2 = 0
            for j in range(arity2):
                if mask >> slot_map[j] & 1:
                    a2 |= 1 << j
            result.append(self._cap(state1[a1] + state2[a2]))
        return tuple(result)

    def _forget(self, state, arity, keep):
        new_arity = len(keep)
        best = [self.c + 1] * (1 << new_arity)
        for mask, v in enumerate(state):
            new_mask = 0
            forgotten_in_cover = 0
            for old_slot in range(arity):
                if not (mask >> old_slot & 1):
                    continue
                if old_slot in keep:
                    new_mask |= 1 << keep.index(old_slot)
                else:
                    forgotten_in_cover += 1
            value = self._cap(v + forgotten_in_cover)
            if value < best[new_mask]:
                best[new_mask] = value
        return tuple(best)

    def accepts(self, state, arity) -> bool:
        return any(
            v + mask.bit_count() <= self.c for mask, v in enumerate(state)
        )


class IndependentSetAlgebra(BoundedAlgebra):
    """Independent set of size >= c.

    State: dense tuple ``g``; ``g[A]`` is the maximum number of **interior**
    vertices of an independent set with boundary trace exactly ``A``
    (capped at ``c``), or ``-1`` when ``A`` is itself not independent.
    Interior-only counting avoids overlap subtraction at joins, which keeps
    the cap sound (see :class:`VertexCoverAlgebra`).
    """

    def __init__(self, c: int):
        if c < 0:
            raise ValueError("set size must be non-negative")
        self.c = c
        self.key = f"independent-set-{c}"

    def _cap(self, v: int) -> int:
        return min(v, self.c)

    def _new_vertices(self, count: int):
        _check_arity(count, _DENSE_ARITY_LIMIT, self.key)
        return tuple(0 for _mask in range(1 << count))

    def _add_real_edge(self, state, a: int, b: int):
        both = (1 << a) | (1 << b)
        return tuple(
            -1 if (mask & both) == both else v for mask, v in enumerate(state)
        )

    def _join(self, state1, arity1, state2, arity2, identify):
        new_arity = arity1 + arity2 - len(identify)
        _check_arity(new_arity, _DENSE_ARITY_LIMIT, self.key)
        slot_map = join_slot_map(arity1, arity2, identify)
        mask1_of = (1 << arity1) - 1
        result = []
        for mask in range(1 << new_arity):
            a1 = mask & mask1_of
            a2 = 0
            for j in range(arity2):
                if mask >> slot_map[j] & 1:
                    a2 |= 1 << j
            if state1[a1] < 0 or state2[a2] < 0:
                result.append(-1)
                continue
            result.append(self._cap(state1[a1] + state2[a2]))
        return tuple(result)

    def _forget(self, state, arity, keep):
        new_arity = len(keep)
        best = [-1] * (1 << new_arity)
        for mask, v in enumerate(state):
            if v < 0:
                continue
            new_mask = 0
            forgotten_chosen = 0
            for old_slot in range(arity):
                if not (mask >> old_slot & 1):
                    continue
                if old_slot in keep:
                    new_mask |= 1 << keep.index(old_slot)
                else:
                    forgotten_chosen += 1
            value = self._cap(v + forgotten_chosen)
            if value > best[new_mask]:
                best[new_mask] = value
        return tuple(best)

    def accepts(self, state, arity) -> bool:
        return any(
            v >= 0 and v + mask.bit_count() >= self.c
            for mask, v in enumerate(state)
        )


class PerfectMatchingAlgebra(BoundedAlgebra):
    """A perfect matching exists.

    State: frozenset of masks — the achievable sets of *matched* boundary
    slots, under the invariant that every interior vertex is matched
    (enforced at ``forget``).
    """

    key = "perfect-matching"

    def _new_vertices(self, count: int):
        _check_arity(count, _DENSE_ARITY_LIMIT, self.key)
        return frozenset({0})

    def _add_real_edge(self, state, a: int, b: int):
        edge_mask = (1 << a) | (1 << b)
        extended = {m | edge_mask for m in state if not (m & edge_mask)}
        return frozenset(state) | extended

    def _join(self, state1, arity1, state2, arity2, identify):
        new_arity = arity1 + arity2 - len(identify)
        _check_arity(new_arity, _DENSE_ARITY_LIMIT, self.key)
        slot_map = join_slot_map(arity1, arity2, identify)
        result = set()
        for m1 in state1:
            for m2 in state2:
                # A glued vertex may be matched on at most one side.
                if any((m1 >> i & 1) and (m2 >> j & 1) for i, j in identify):
                    continue
                mapped = m1
                for j in range(arity2):
                    if m2 >> j & 1:
                        mapped |= 1 << slot_map[j]
                result.add(mapped)
        return frozenset(result)

    def _forget(self, state, arity, keep):
        kept = set(keep)
        forgotten_mask = 0
        for s in range(arity):
            if s not in kept:
                forgotten_mask |= 1 << s
        result = set()
        for m in state:
            if (m & forgotten_mask) != forgotten_mask:
                continue  # an unmatched vertex is leaving the boundary
            new_mask = 0
            for new_slot, old_slot in enumerate(keep):
                if m >> old_slot & 1:
                    new_mask |= 1 << new_slot
            result.add(new_mask)
        return frozenset(result)

    def accepts(self, state, arity) -> bool:
        return ((1 << arity) - 1) in state


class DominatingSetAlgebra(BoundedAlgebra):
    """Dominating set of size <= c.

    State: canonical tuple of ``(profile, min_interior_size)`` pairs, where
    a profile assigns each slot a status — 0 undominated, 1 dominated,
    2 in the set — and the value counts **interior** set vertices only,
    truncated at ``c + 1`` (boundary members are added at forget/accept
    time; see :class:`VertexCoverAlgebra` for why).
    """

    UNDOM, DOM, IN = 0, 1, 2

    def __init__(self, c: int):
        if c < 0:
            raise ValueError("budget must be non-negative")
        self.c = c
        self.key = f"dominating-set-{c}"

    def _cap(self, v: int) -> int:
        return min(v, self.c + 1)

    @staticmethod
    def _canonical(table: dict) -> tuple:
        return tuple(sorted(table.items()))

    def _new_vertices(self, count: int):
        _check_arity(count, _PROFILE_ARITY_LIMIT, self.key)
        table: dict = {}
        for mask in range(1 << count):
            profile = tuple(
                self.IN if mask >> i & 1 else self.UNDOM for i in range(count)
            )
            table[profile] = 0  # interior members only; none exist yet
        return self._canonical(table)

    def _add_real_edge(self, state, a: int, b: int):
        table: dict = {}
        for profile, v in state:
            p = list(profile)
            if p[a] == self.IN and p[b] == self.UNDOM:
                p[b] = self.DOM
            if p[b] == self.IN and p[a] == self.UNDOM:
                p[a] = self.DOM
            key = tuple(p)
            if v < table.get(key, self.c + 2):
                table[key] = v
        return self._canonical(table)

    def _join(self, state1, arity1, state2, arity2, identify):
        new_arity = arity1 + arity2 - len(identify)
        _check_arity(new_arity, _PROFILE_ARITY_LIMIT, self.key)
        slot_map = join_slot_map(arity1, arity2, identify)
        appended = [j for j in range(arity2) if slot_map[j] >= arity1]
        table: dict = {}
        for profile1, v1 in state1:
            for profile2, v2 in state2:
                compatible = True
                merged = list(profile1)
                for i, j in identify:
                    in1 = profile1[i] == self.IN
                    in2 = profile2[j] == self.IN
                    if in1 != in2:
                        compatible = False
                        break
                    if not in1:
                        merged[i] = max(profile1[i], profile2[j])
                if not compatible:
                    continue
                merged.extend(profile2[j] for j in appended)
                key = tuple(merged)
                value = self._cap(v1 + v2)
                if value < table.get(key, self.c + 2):
                    table[key] = value
        return self._canonical(table)

    def _forget(self, state, arity, keep):
        kept = set(keep)
        table: dict = {}
        for profile, v in state:
            # A vertex leaving the boundary can never become dominated.
            if any(
                profile[s] == self.UNDOM for s in range(arity) if s not in kept
            ):
                continue
            forgotten_members = sum(
                1
                for s in range(arity)
                if s not in kept and profile[s] == self.IN
            )
            key = tuple(profile[k] for k in keep)
            value = self._cap(v + forgotten_members)
            if value < table.get(key, self.c + 2):
                table[key] = value
        return self._canonical(table)

    def accepts(self, state, arity) -> bool:
        return any(
            all(s != self.UNDOM for s in profile)
            and v + sum(1 for s in profile if s == self.IN) <= self.c
            for profile, v in state
        )
