"""Partition-flavored algebras: connectivity, acyclicity, bipartiteness.

These are the "cheap" homomorphism classes: a state is essentially a
partition of the boundary slots into connected blocks, decorated with a
few bits.  Their state count is a Bell-number function of the arity, but
each *individual* state is tiny, which is what makes the full Theorem 1
pipeline feasible even at the large lane counts f(k) produces (Section 4's
f(3) = 18 means up to 36 boundary slots — still fine here, in sharp
contrast to the table-based algebras).
"""

from __future__ import annotations

from repro.courcelle.algebra import (
    BoundedAlgebra,
    canonical_partition,
    join_slot_map,
    singleton_partition,
)


class _UnionFind:
    """Union-find over result slots, with merge-redundancy reporting."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Union the classes of ``a``/``b``; return True if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        self.parent[ra] = rb
        return False

    def blocks(self, size: int) -> tuple:
        groups: dict = {}
        for x in range(size):
            groups.setdefault(self.find(x), []).append(x)
        return canonical_partition(groups.values())


class ConnectivityAlgebra(BoundedAlgebra):
    """Homomorphism classes for "the graph is connected".

    State: ``(partition, interior)`` where ``partition`` is the canonical
    partition of boundary slots into connected components and ``interior``
    counts components with no boundary vertex, truncated at 2 (two lost
    components can never reunite, so the exact count beyond 2 is
    irrelevant — this truncation is what makes the class set finite).
    """

    key = "connected"

    def _new_vertices(self, count: int):
        return (singleton_partition(count), 0)

    def _add_real_edge(self, state, a: int, b: int):
        partition, interior = state
        uf = self._uf_from(partition)
        uf.union(a, b)
        return (uf.blocks(self._arity_of(partition)), interior)

    def _join(self, state1, arity1, state2, arity2, identify):
        partition1, interior1 = state1
        partition2, interior2 = state2
        slot_map = join_slot_map(arity1, arity2, identify)
        new_arity = arity1 + arity2 - len(identify)
        uf = _UnionFind(new_arity)
        for block in partition1:
            for s in block[1:]:
                uf.union(block[0], s)
        for block in partition2:
            mapped = [slot_map[s] for s in block]
            for s in mapped[1:]:
                uf.union(mapped[0], s)
        interior = min(2, interior1 + interior2)
        return (uf.blocks(new_arity), interior)

    def _forget(self, state, arity, keep):
        partition, interior = state
        mapping = {old: new for new, old in enumerate(keep)}
        new_blocks = []
        dropped = 0
        for block in partition:
            mapped = tuple(sorted(mapping[s] for s in block if s in mapping))
            if mapped:
                new_blocks.append(mapped)
            else:
                dropped += 1
        return (canonical_partition(new_blocks), min(2, interior + dropped))

    def accepts(self, state, arity) -> bool:
        partition, interior = state
        return len(partition) + interior <= 1

    # ------------------------------------------------------------------
    @staticmethod
    def _arity_of(partition) -> int:
        return sum(len(block) for block in partition)

    @staticmethod
    def _uf_from(partition) -> _UnionFind:
        size = sum(len(block) for block in partition)
        uf = _UnionFind(size)
        for block in partition:
            for s in block[1:]:
                uf.union(block[0], s)
        return uf


class AcyclicityAlgebra(BoundedAlgebra):
    """Homomorphism classes for "the graph is a forest".

    State: ``(partition, has_cycle)``.  Fully interior components are
    irrelevant — once acyclic and interior, they stay acyclic.  A cycle
    appears exactly when a union-find merge is redundant: an added edge
    inside one component, or a gluing that connects two already-connected
    slots (two Parent-merge identifications between the same pair of
    components, Section 5.2's figure-8 case).
    """

    key = "acyclic"

    def _new_vertices(self, count: int):
        return (singleton_partition(count), False)

    def _add_real_edge(self, state, a: int, b: int):
        partition, has_cycle = state
        uf = ConnectivityAlgebra._uf_from(partition)
        redundant = uf.union(a, b)
        size = sum(len(block) for block in partition)
        return (uf.blocks(size), has_cycle or redundant)

    def _join(self, state1, arity1, state2, arity2, identify):
        partition1, cycle1 = state1
        partition2, cycle2 = state2
        slot_map = join_slot_map(arity1, arity2, identify)
        new_arity = arity1 + arity2 - len(identify)
        uf = _UnionFind(new_arity)
        has_cycle = cycle1 or cycle2
        # Each block stands for a tree connecting its slots; replaying each
        # block as a star of unions detects exactly the redundancies that
        # gluing introduces.
        for block in partition1:
            for s in block[1:]:
                if uf.union(block[0], s):
                    has_cycle = True
        for block in partition2:
            mapped = [slot_map[s] for s in block]
            for s in mapped[1:]:
                if uf.union(mapped[0], s):
                    has_cycle = True
        return (uf.blocks(new_arity), has_cycle)

    def _forget(self, state, arity, keep):
        partition, has_cycle = state
        mapping = {old: new for new, old in enumerate(keep)}
        new_blocks = []
        for block in partition:
            mapped = tuple(sorted(mapping[s] for s in block if s in mapping))
            if mapped:
                new_blocks.append(mapped)
        return (canonical_partition(new_blocks), has_cycle)

    def accepts(self, state, arity) -> bool:
        return not state[1]


class BipartiteAlgebra(BoundedAlgebra):
    """Homomorphism classes for 2-colorability.

    State: ``(blocks, odd_cycle)`` where each block is a tuple of
    ``(slot, parity)`` pairs — the parity of the slot's 2-coloring
    relative to the block's minimum slot (normalized to parity 0).  A
    bipartite component has exactly two proper 2-colorings, so relative
    parities are a complete invariant; an edge or gluing contradicting
    them records the odd cycle.
    """

    key = "bipartite"

    def _new_vertices(self, count: int):
        blocks = tuple(((i, 0),) for i in range(count))
        return (blocks, False)

    # -- weighted union-find helpers ------------------------------------
    class _ParityUF:
        def __init__(self, size: int):
            self.parent = list(range(size))
            self.parity = [0] * size  # parity relative to parent

        def find(self, x: int):
            if self.parent[x] == x:
                return x, 0
            root, par = self.find(self.parent[x])
            self.parent[x] = root
            self.parity[x] = (self.parity[x] + par) % 2
            return root, self.parity[x]

        def union(self, a: int, b: int, relation: int) -> bool:
            """Assert parity(a) xor parity(b) == relation.

            Returns True on contradiction (odd cycle).
            """
            ra, pa = self.find(a)
            rb, pb = self.find(b)
            if ra == rb:
                return (pa ^ pb) != relation
            self.parent[ra] = rb
            self.parity[ra] = (pa ^ pb ^ relation) % 2
            return False

    def _replay(self, uf: "_ParityUF", blocks, slot_map=None) -> bool:
        contradiction = False
        for block in blocks:
            (s0, p0) = block[0]
            m0 = slot_map[s0] if slot_map else s0
            for s, p in block[1:]:
                ms = slot_map[s] if slot_map else s
                if uf.union(m0, ms, (p0 ^ p) % 2):
                    contradiction = True
        return contradiction

    def _extract(self, uf: "_ParityUF", size: int) -> tuple:
        groups: dict = {}
        for x in range(size):
            root, parity = uf.find(x)
            groups.setdefault(root, []).append((x, parity))
        blocks = []
        for members in groups.values():
            members.sort()
            base = members[0][1]
            blocks.append(tuple((s, p ^ base) for s, p in members))
        return tuple(sorted(blocks))

    def _add_real_edge(self, state, a: int, b: int):
        blocks, odd = state
        size = sum(len(block) for block in blocks)
        uf = self._ParityUF(size)
        odd |= self._replay(uf, blocks)
        odd |= uf.union(a, b, 1)
        return (self._extract(uf, size), odd)

    def _join(self, state1, arity1, state2, arity2, identify):
        blocks1, odd1 = state1
        blocks2, odd2 = state2
        slot_map = join_slot_map(arity1, arity2, identify)
        new_arity = arity1 + arity2 - len(identify)
        uf = self._ParityUF(new_arity)
        odd = odd1 or odd2
        odd |= self._replay(uf, blocks1)
        odd |= self._replay(uf, blocks2, slot_map)
        return (self._extract(uf, new_arity), odd)

    def _forget(self, state, arity, keep):
        blocks, odd = state
        mapping = {old: new for new, old in enumerate(keep)}
        new_blocks = []
        for block in blocks:
            kept = sorted(
                (mapping[s], p) for s, p in block if s in mapping
            )
            if kept:
                base = kept[0][1]
                new_blocks.append(tuple((s, p ^ base) for s, p in kept))
        return (tuple(sorted(new_blocks)), odd)

    def accepts(self, state, arity) -> bool:
        return not state[1]
