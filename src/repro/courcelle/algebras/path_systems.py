"""Path-system algebras: Hamiltonicity and bounded longest path.

These are the heavyweight homomorphism classes.  A state is a set of
*profiles*; each profile summarizes one way the chosen path system can
interface the boundary.

Spanning profiles (Hamiltonian path/cycle)
------------------------------------------
Every vertex lies on exactly one path of the system.  A component is a
triple ``(end1, end2, singleton)`` with ends either boundary slots or
``STUCK = -1`` (an interior endpoint, frozen forever):

* ``(s, s, True)`` — a single vertex at slot ``s`` (degree 0);
* ``(a, b, False)`` — a path whose two endpoints are ``a`` and ``b``;
* slots not mentioned in any component are path-interior (degree 2).

The sentinel profile ``CLOSED`` means the whole graph built so far is one
spanning cycle; it survives later compositions only while no new vertex
arrives (tracked via the state's ``grown`` flag).

Non-spanning profiles (longest path)
------------------------------------
Components additionally carry a length (edge count, capped at the target)
and the *explicit* set of boundary slots lying mid-path, because unused
and mid-path slots must be distinguished when only part of the graph is
covered.

Correctness of both engines is established differentially in the test
suite against brute-force search over randomized composition sequences.
"""

from __future__ import annotations

from repro.courcelle.algebra import (
    ArityLimitExceeded,
    BoundedAlgebra,
    join_slot_map,
)

STUCK = -1
CLOSED = ("CLOSED",)

# Transient join boundaries reach roughly twice the lane count before the
# canonical forget; 12 accommodates lanewidth-3 pipelines while still
# bounding the profile-set blow-up.
_ARITY_LIMIT = 12


def _guard(arity: int, key: str) -> None:
    if arity > _ARITY_LIMIT:
        raise ArityLimitExceeded(
            f"algebra {key!r} supports boundary arity <= {_ARITY_LIMIT} "
            f"(got {arity}); use a smaller lanewidth for this property"
        )


def _comp(end1: int, end2: int, singleton: bool) -> tuple:
    return (min(end1, end2), max(end1, end2), singleton)


def _path_degree(profile: frozenset, slot: int) -> int:
    """Return the path-system degree (0/1/2) of ``slot`` in a profile."""
    for e1, e2, singleton in profile:
        if singleton:
            if e1 == slot:
                return 0
        else:
            hits = (1 if e1 == slot else 0) + (1 if e2 == slot else 0)
            if hits:
                return 2 - hits  # one end-occurrence -> degree 1; two -> 0?
    return 2


# A slot appearing twice as ends of one open component would mean a path
# from a vertex back to itself, which the stitching logic never stores
# (it closes the cycle immediately); _path_degree therefore treats
# (s, x, False) with one hit as degree 1 and never sees two hits.


def _prune_profile(comps: list) -> frozenset:
    """Return the canonical profile or ``None`` when it is dead.

    A both-stuck component (a path no composition can ever reach again)
    is only viable when it is the entire profile.
    """
    stuck_count = sum(
        1 for e1, e2, _s in comps if e1 == STUCK and e2 == STUCK
    )
    if stuck_count and len(comps) > 1:
        return None
    if stuck_count > 1:
        return None
    return frozenset(comps)


class _SpanningPathAlgebra(BoundedAlgebra):
    """Shared engine for Hamiltonian path/cycle homomorphism classes.

    State: ``(profiles, grown)`` where ``profiles`` is a frozenset of open
    profiles and/or ``CLOSED``, and ``grown`` records whether any vertex
    has ever left the boundary (needed to decide whether a later join adds
    genuinely new vertices next to a CLOSED cycle).
    """

    allow_cycle = False

    def _new_vertices(self, count: int):
        _guard(count, self.key)
        profile = frozenset(_comp(i, i, True) for i in range(count))
        return (frozenset({profile}), False)

    # ------------------------------------------------------------------
    def _add_real_edge(self, state, a: int, b: int):
        profiles, grown = state
        result = set()
        for profile in profiles:
            result.add(profile)  # the system may simply not use this edge
            if profile == CLOSED:
                continue
            merged = self._use_edge(profile, a, b)
            if merged is not None:
                result.add(merged)
        return (frozenset(result), grown)

    def _use_edge(self, profile: frozenset, a: int, b: int):
        comp_a = self._component_at(profile, a)
        comp_b = self._component_at(profile, b)
        if comp_a is None or comp_b is None:
            return None  # an endpoint is already path-interior
        if comp_a == comp_b:
            e1, e2, singleton = comp_a
            if singleton:
                return None  # no self-loops exist
            if self.allow_cycle and {e1, e2} == {a, b} and len(profile) == 1:
                return CLOSED
            return None  # closing a non-spanning cycle is never useful
        rest = [c for c in profile if c not in (comp_a, comp_b)]
        r1 = self._remaining_end(comp_a, a)
        r2 = self._remaining_end(comp_b, b)
        if r1 == r2 and r1 != STUCK:
            # Both remaining ends are the same vertex: a cycle just closed.
            if self.allow_cycle and not rest:
                return CLOSED
            return None
        rest.append(_comp(r1, r2, False))
        return _prune_profile(rest)

    @staticmethod
    def _component_at(profile: frozenset, slot: int):
        """Return the component with a free end at ``slot`` (or None)."""
        for comp in profile:
            if comp == CLOSED:
                continue
            e1, e2, singleton = comp
            if slot in (e1, e2):
                return comp
        return None

    @staticmethod
    def _remaining_end(comp: tuple, used_slot: int) -> int:
        e1, e2, singleton = comp
        if singleton:
            return used_slot  # a singleton keeps its other end at itself
        return e2 if e1 == used_slot else e1

    # ------------------------------------------------------------------
    def _join(self, state1, arity1, state2, arity2, identify):
        profiles1, grown1 = state1
        profiles2, grown2 = state2
        new_arity = arity1 + arity2 - len(identify)
        _guard(new_arity, self.key)
        slot_map = join_slot_map(arity1, arity2, identify)
        adds1 = grown1 or (arity1 - len(identify) > 0)
        adds2 = grown2 or (arity2 - len(identify) > 0)
        result = set()
        for p1 in profiles1:
            for p2 in profiles2:
                combined = self._join_pair(
                    p1, p2, arity2, identify, slot_map, adds1, adds2
                )
                if combined is not None:
                    result.add(combined)
        return (frozenset(result), grown1 or grown2)

    def _join_pair(self, p1, p2, arity2, identify, slot_map, adds1, adds2):
        if p1 == CLOSED and p2 == CLOSED:
            return None
        if p1 == CLOSED:
            # The cycle must already span everything: the other side may
            # contribute neither vertices nor path edges.
            if adds2:
                return None
            if all(singleton for _e1, _e2, singleton in p2):
                return CLOSED
            return None
        if p2 == CLOSED:
            if adds1:
                return None
            if all(singleton for _e1, _e2, singleton in p1):
                return CLOSED
            return None
        mapped2 = [
            _comp(
                slot_map[e1] if e1 != STUCK else STUCK,
                slot_map[e2] if e2 != STUCK else STUCK,
                singleton,
            )
            for e1, e2, singleton in p2
        ]
        # Degree feasibility at every glued slot.
        glued_slots = []
        for i, j in identify:
            d1 = _path_degree(p1, i)
            d2 = _path_degree(p2, j)
            if d1 + d2 > 2:
                return None
            glued_slots.append((i, d1, d2))
        pool = list(p1) + mapped2
        cycle_closed = False
        for s, d1, d2 in glued_slots:
            free_total = (2 - d1) + (2 - d2)
            if free_total <= 2 and (d1 == 2 or d2 == 2):
                # One side passes through s mid-path; the other side must
                # hold s as a bare singleton, which simply disappears.
                pool = self._drop_one_singleton(pool, s)
                if pool is None:
                    return None
                continue
            if d1 == 0 and d2 == 0:
                # Two singletons for the same vertex: keep one.
                pool = self._drop_one_singleton(pool, s)
                if pool is None:
                    return None
                continue
            if (d1, d2) in ((0, 1), (1, 0)):
                # Singleton one side, path end the other: the singleton is
                # absorbed by the path.
                pool = self._drop_one_singleton(pool, s)
                if pool is None:
                    return None
                continue
            if d1 == 1 and d2 == 1:
                merged = self._stitch_at(pool, s)
                if merged is None:
                    return None
                pool, closed_now = merged
                if closed_now:
                    if not self.allow_cycle or cycle_closed:
                        return None
                    cycle_closed = True
                continue
            return None
        if cycle_closed:
            if pool:
                return None  # the closed cycle does not span everything
            return CLOSED
        return _prune_profile(pool)

    @staticmethod
    def _drop_one_singleton(pool: list, slot: int):
        for index, (e1, e2, singleton) in enumerate(pool):
            if singleton and e1 == slot:
                return pool[:index] + pool[index + 1 :]
        return None

    @staticmethod
    def _stitch_at(pool: list, slot: int):
        """Concatenate the two components with a free end at ``slot``.

        Returns ``(new_pool, cycle_closed)`` or ``None`` when impossible.
        """
        holders = [
            index
            for index, (e1, e2, singleton) in enumerate(pool)
            if not singleton and slot in (e1, e2)
        ]
        if len(holders) == 1:
            # Both end-occurrences are in the same component: the two ends
            # are the same vertex, so stitching closes a cycle.
            e1, e2, _singleton = pool[holders[0]]
            if e1 == slot and e2 == slot:
                new_pool = [c for i, c in enumerate(pool) if i != holders[0]]
                return new_pool, True
            return None
        if len(holders) != 2:
            return None
        ia, ib = holders
        ca, cb = pool[ia], pool[ib]
        ra = ca[1] if ca[0] == slot else ca[0]
        rb = cb[1] if cb[0] == slot else cb[0]
        new_pool = [c for i, c in enumerate(pool) if i not in (ia, ib)]
        if ra == rb and ra != STUCK:
            # The remaining ends are the same vertex: cycle closed.
            return new_pool, True
        new_pool.append(_comp(ra, rb, False))
        return new_pool, False

    # ------------------------------------------------------------------
    def _forget(self, state, arity, keep):
        profiles, grown = state
        kept = {old: new for new, old in enumerate(keep)}
        grown = grown or len(keep) < arity
        result = set()
        for profile in profiles:
            if profile == CLOSED:
                result.add(CLOSED)
                continue
            comps = []
            for e1, e2, singleton in profile:
                if singleton:
                    if e1 in kept:
                        comps.append(_comp(kept[e1], kept[e1], True))
                    else:
                        # An isolated interior vertex: a one-vertex path
                        # with both ends stuck.
                        comps.append(_comp(STUCK, STUCK, False))
                    continue
                n1 = kept.get(e1, STUCK) if e1 != STUCK else STUCK
                n2 = kept.get(e2, STUCK) if e2 != STUCK else STUCK
                comps.append(_comp(n1, n2, False))
            pruned = _prune_profile(comps)
            if pruned is not None:
                result.add(pruned)
        return (frozenset(result), grown)


class HamiltonianPathAlgebra(_SpanningPathAlgebra):
    """A Hamiltonian path exists."""

    key = "hamiltonian-path"
    allow_cycle = False

    def accepts(self, state, arity) -> bool:
        profiles, _grown = state
        for profile in profiles:
            if profile == CLOSED:
                continue
            if len(profile) == 1:
                return True
        return False


class HamiltonianCycleAlgebra(_SpanningPathAlgebra):
    """A Hamiltonian cycle exists."""

    key = "hamiltonian-cycle"
    allow_cycle = True

    def accepts(self, state, arity) -> bool:
        profiles, _grown = state
        return CLOSED in profiles


class PathLengthAlgebra(BoundedAlgebra):
    """Existence of a simple path with at least ``target`` edges.

    With ``negate=True`` this decides P_t-minor-freeness for the path on
    ``target + 1`` vertices (path minors coincide with path subgraphs).

    State: ``(profiles, found)``; a profile is a frozenset of components
    ``(end1, end2, length, mids)`` — a partial path between two ends
    (boundary slots or STUCK) of ``length`` edges (capped at ``target``)
    whose mid-path *boundary* vertices are ``mids``.  Unlike the spanning
    engine, untracked slots are simply unused.
    """

    def __init__(self, target: int, negate: bool = False):
        if target < 1:
            raise ValueError("target length must be positive")
        self.target = target
        self.negate = negate
        self.key = f"{'no-' if negate else ''}path-length-{target}"

    # ------------------------------------------------------------------
    def _cap(self, length: int) -> int:
        return min(length, self.target)

    @staticmethod
    def _used_slots(profile: frozenset) -> set:
        used = set()
        for e1, e2, _length, mids in profile:
            used.update(m for m in mids)
            for e in (e1, e2):
                if e != STUCK:
                    used.add(e)
        return used

    def _new_vertices(self, count: int):
        _guard(count, self.key)
        return (frozenset({frozenset()}), False)

    # ------------------------------------------------------------------
    def _add_real_edge(self, state, a: int, b: int):
        profiles, found = state
        if found:
            return state
        result = set()
        for profile in profiles:
            result.add(profile)
            used = self._used_slots(profile)
            comp_a = self._end_component(profile, a)
            comp_b = self._end_component(profile, b)
            # Start a fresh component.
            if a not in used and b not in used:
                new = set(profile)
                new.add((min(a, b), max(a, b), 1, frozenset()))
                result.add(frozenset(new))
            # Extend an existing component at a (towards unused b).
            if comp_a is not None and b not in used:
                result.add(self._extended(profile, comp_a, a, b))
            if comp_b is not None and a not in used:
                result.add(self._extended(profile, comp_b, b, a))
            # Concatenate two components.
            if comp_a is not None and comp_b is not None and comp_a != comp_b:
                result.add(self._concatenated(profile, comp_a, a, comp_b, b))
        found = any(
            any(length >= self.target for _e1, _e2, length, _m in p)
            for p in result
        )
        if found:
            return (frozenset({frozenset()}), True)
        return (frozenset(result), False)

    @staticmethod
    def _end_component(profile: frozenset, slot: int):
        for comp in profile:
            e1, e2, _length, _mids = comp
            if slot in (e1, e2) and e1 != e2:
                return comp
            if e1 == slot and e2 == slot:
                return comp
        return None

    def _extended(self, profile, comp, used_slot, new_end):
        e1, e2, length, mids = comp
        other = e2 if e1 == used_slot else e1
        new_mids = frozenset(set(mids) | {used_slot})
        new = set(profile)
        new.discard(comp)
        new.add(
            (min(other, new_end), max(other, new_end), self._cap(length + 1), new_mids)
        )
        return frozenset(new)

    def _concatenated(self, profile, comp_a, a, comp_b, b):
        e1a, e2a, la, ma = comp_a
        e1b, e2b, lb, mb = comp_b
        ra = e2a if e1a == a else e1a
        rb = e2b if e1b == b else e1b
        mids = frozenset(set(ma) | set(mb) | {a, b})
        new = set(profile)
        new.discard(comp_a)
        new.discard(comp_b)
        new.add((min(ra, rb), max(ra, rb), self._cap(la + lb + 1), mids))
        return frozenset(new)

    # ------------------------------------------------------------------
    def _join(self, state1, arity1, state2, arity2, identify):
        profiles1, found1 = state1
        profiles2, found2 = state2
        new_arity = arity1 + arity2 - len(identify)
        _guard(new_arity, self.key)
        if found1 or found2:
            return (frozenset({frozenset()}), True)
        slot_map = join_slot_map(arity1, arity2, identify)
        result = set()
        found = False
        for p1 in profiles1:
            for p2 in profiles2:
                combined = self._join_pair(p1, p2, identify, slot_map)
                if combined is None:
                    continue
                if any(l >= self.target for _a, _b, l, _m in combined):
                    found = True
                result.add(combined)
        if found:
            return (frozenset({frozenset()}), True)
        return (frozenset(result), False)

    def _join_pair(self, p1, p2, identify, slot_map):
        mapped2 = []
        for e1, e2, length, mids in p2:
            m1 = slot_map[e1] if e1 != STUCK else STUCK
            m2 = slot_map[e2] if e2 != STUCK else STUCK
            mapped2.append(
                (
                    min(m1, m2),
                    max(m1, m2),
                    length,
                    frozenset(slot_map[m] for m in mids),
                )
            )
        used1 = self._used_slots(p1)
        used2 = self._used_slots(frozenset(mapped2))
        pool = list(p1) + mapped2

        for i, _j in identify:
            in1 = i in used1
            in2 = i in used2
            if not (in1 and in2):
                continue
            # Vertex used by both sides: only end+end stitching is valid.
            holders = [
                idx
                for idx, (e1, e2, _l, mids) in enumerate(pool)
                if i in (e1, e2)
            ]
            mid_holders = [
                idx for idx, (_e1, _e2, _l, mids) in enumerate(pool) if i in mids
            ]
            if mid_holders or len(holders) != 2:
                return None
            ia, ib = holders
            ca, cb = pool[ia], pool[ib]
            ra = ca[1] if ca[0] == i else ca[0]
            rb = cb[1] if cb[0] == i else cb[0]
            if ra == rb and ra != STUCK:
                return None  # would close a cycle; never lengthens a path
            merged = (
                min(ra, rb),
                max(ra, rb),
                self._cap(ca[2] + cb[2]),
                frozenset(set(ca[3]) | set(cb[3]) | {i}),
            )
            pool = [c for idx, c in enumerate(pool) if idx not in (ia, ib)]
            pool.append(merged)
        return frozenset(pool)

    # ------------------------------------------------------------------
    def _forget(self, state, arity, keep):
        profiles, found = state
        if found:
            return state
        kept = {old: new for new, old in enumerate(keep)}
        result = set()
        for profile in profiles:
            comps = []
            for e1, e2, length, mids in profile:
                n1 = kept.get(e1, STUCK) if e1 != STUCK else STUCK
                n2 = kept.get(e2, STUCK) if e2 != STUCK else STUCK
                new_mids = frozenset(kept[m] for m in mids if m in kept)
                if n1 == STUCK and n2 == STUCK:
                    if length >= self.target:
                        return (frozenset({frozenset()}), True)
                    continue  # frozen and short: drop the component
                comps.append((min(n1, n2), max(n1, n2), length, new_mids))
            result.add(frozenset(comps))
        return (frozenset(result), False)

    def accepts(self, state, arity) -> bool:
        _profiles, found = state
        return (not found) if self.negate else found
