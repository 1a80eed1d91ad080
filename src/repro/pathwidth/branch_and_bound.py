"""Branch-and-bound exact vertex separation (= pathwidth).

The subset DP in :mod:`repro.pathwidth.exact` visits all ``2^n`` prefix
sets and therefore hits a wall around 20 vertices.  This module implements
the Coudert–Mazauric–Nisse branch-and-bound for the same vertex-separation
layout problem, which routinely proves optimality at n ≈ 50–100 on
bounded-pathwidth inputs:

* **bitset frontiers** — prefixes and neighborhoods are python ints over
  the CSR dense indices (:mod:`repro.pathwidth.bitsets`), so boundary
  updates are word-parallel;
* **greedy-exact extension** — two commitment rules that provably cannot
  increase the separation are applied before branching: (i) a vertex with
  every neighbor already placed is placed for free, and (ii) when a
  boundary vertex has exactly one unplaced neighbor, that neighbor is
  placed (the boundary vertex retires, the newcomer at worst replaces it);
* **prefix memo table** — the suffix cost from a prefix depends only on
  the prefix *set*, so a set revisited with an equal-or-worse internal
  separation is pruned.  An entry is marked *prunable forever* unless its
  exploration improved the incumbent to exactly its own internal
  separation (the one case where a cheaper internal ordering could still
  win), mirroring the ``vP[P]`` flag of the reference implementation;
* **vsep-ordered branching with lower-bound pruning** — candidates are
  tried by ascending boundary-after, branches whose separation reaches
  the incumbent are cut, and the search stops as soon as the incumbent
  meets the contraction-degeneracy lower bound (a minor's min degree ≤
  treewidth ≤ pathwidth);
* **component splitting** — each connected component is solved on its
  own local masks and the orderings are concatenated (a prefix boundary
  never spans components, so the separation is the max over parts).

The search is anytime: it starts from a caller-supplied (or heuristic)
incumbent ordering and only improves it, so a search stopped by its
``node_budget`` of expanded nodes returns a valid ordering that is never
worse than the seed, with ``optimal=False`` and ``exhausted`` recorded in
the stats.  No decision reads the clock: the same graph, seed and budget
give the same ordering on any machine.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Optional, Sequence

from repro.graphs import Graph
from repro.pathwidth.bitsets import (
    iter_bits,
    neighbor_masks,
    place,
    subgraph_masks,
    vertex_separation_of_order,
)
from repro.pathwidth.interval import IntervalRepresentation
from repro.pathwidth.path_decomposition import PathDecomposition

#: Stop recording new memo entries beyond this many (lookups continue);
#: keeps worst-case memory bounded on adversarial inputs.
DEFAULT_MEMO_LIMIT = 1 << 20


@dataclass
class BnBStats:
    """Counters from one :func:`branch_and_bound_ordering` run."""

    nodes_expanded: int = 0
    memo_hits: int = 0
    memo_entries: int = 0
    greedy_commits: int = 0
    components: int = 0
    lower_bound: int = 0
    seed_width: Optional[int] = None
    elapsed_ms: float = 0.0
    node_budget: Optional[int] = None
    exhausted: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BnBResult:
    """Ordering + width from a branch-and-bound run.

    ``optimal`` is True only when every component's search ran to
    completion (the node budget was not exhausted), i.e. ``width`` is
    the exact vertex separation number = pathwidth of the input.
    """

    ordering: list
    width: int
    optimal: bool
    stats: BnBStats = field(default_factory=BnBStats)


class _Exhausted(Exception):
    """Internal unwind signal when the node budget is spent."""


class _ComponentSearch:
    """Exact vertex-separation search over one component's local masks."""

    def __init__(self, masks, incumbent_order, incumbent_width, lower_bound,
                 node_budget, stats, memo_limit):
        self.masks = masks
        self.n = len(masks)
        self.full = (1 << self.n) - 1
        self.best_order = list(incumbent_order)
        self.best_width = incumbent_width
        self.lower_bound = lower_bound
        self.node_budget = node_budget
        self.stats = stats
        # prefix set -> (internal vsep at last visit, prunable-forever flag)
        self.memo = {}
        self.memo_limit = memo_limit

    def run(self) -> None:
        if self.n == 0 or self.best_width <= self.lower_bound:
            return
        # Depth-first over an explicit stack of open prefixes: a dive
        # can go one level per vertex, far past the recursion limit.
        stack = []
        child = (0, [], 0, 0)
        while True:
            if child is not None:
                frame = self._open(*child)
                if frame is not None:
                    stack.append(frame)
            if not stack:
                return
            child = self._next_child(stack[-1])
            if child is None:
                self._close(stack.pop())

    # -- search internals -------------------------------------------------

    def _tick(self) -> None:
        if self.stats.nodes_expanded == self.node_budget:
            raise _Exhausted
        self.stats.nodes_expanded += 1

    def _greedy_extend(self, prefix_mask: int, order: list, boundary: int):
        """Apply the two zero-cost commitment rules to a fixed point.

        Rule (i): an unplaced vertex whose neighbors are all placed can be
        appended — it never joins the boundary and may retire neighbors.
        Rule (ii): if a boundary vertex ``u`` has exactly one unplaced
        neighbor ``w``, appending ``w`` retires ``u``; even if ``w`` joins
        the boundary the count cannot grow.  Neither rule can increase the
        running separation, so these placements need no branching.
        """
        masks = self.masks
        changed = True
        while changed and prefix_mask != self.full:
            changed = False
            # Rule (i) candidates with a neighbor are always adjacent to the
            # boundary (their placed neighbors still see them outside), so
            # scanning N(boundary) suffices; isolated vertices only occur in
            # singleton components, which the incumbent already covers.
            reach = 0
            scan = boundary
            while scan:
                low = scan & -scan
                scan ^= low
                reach |= masks[low.bit_length() - 1]
            scan = reach & ~prefix_mask
            while scan:
                low = scan & -scan
                scan ^= low
                v = low.bit_length() - 1
                if not masks[v] & ~prefix_mask:  # rule (i)
                    prefix_mask, boundary = place(
                        prefix_mask, boundary, v, masks
                    )
                    order.append(v)
                    self.stats.greedy_commits += 1
                    changed = True
            scan = boundary
            while scan:
                low = scan & -scan
                scan ^= low
                u = low.bit_length() - 1
                outside = masks[u] & ~prefix_mask
                if outside and not (outside & (outside - 1)):  # rule (ii)
                    w = outside.bit_length() - 1
                    prefix_mask, boundary = place(
                        prefix_mask, boundary, w, masks
                    )
                    order.append(w)
                    self.stats.greedy_commits += 1
                    changed = True
        return prefix_mask, boundary

    def _open(self, prefix_mask: int, order: list, boundary: int, vsep: int):
        """Enter a prefix (``order`` is the caller's fresh list).

        Returns ``None`` when the prefix is pruned or completes the
        ordering, else its frame ``(entry_key, entry_best, vsep,
        prefix_mask, boundary, order, candidates)``.
        """
        if vsep >= self.best_width or self.best_width <= self.lower_bound:
            return None
        entry = self.memo.get(prefix_mask)
        if entry is not None:
            stored_vsep, prunable = entry
            if prunable or vsep >= stored_vsep:
                self.stats.memo_hits += 1
                return None
        self._tick()
        entry_key = prefix_mask  # memoize the set as *reached*, pre-greedy
        entry_best = self.best_width
        prefix_mask, boundary = self._greedy_extend(prefix_mask, order, boundary)
        if prefix_mask == self.full:
            # Greedy placements never increase the separation, so vsep
            # still bounds the whole ordering; vsep < best_width here.
            self.best_width = vsep
            self.best_order = order
            return None
        # Only vertices adjacent to the boundary can retire anyone or reuse
        # a slot; every other unplaced vertex has all-unplaced neighborhoods
        # and lands at exactly |boundary| + 1.
        masks = self.masks
        unplaced = self.full & ~prefix_mask
        reach = 0
        scan = boundary
        while scan:
            low = scan & -scan
            scan ^= low
            reach |= masks[low.bit_length() - 1]
        near = reach & unplaced
        candidates = []
        scan = near
        while scan:
            low = scan & -scan
            scan ^= low
            v = low.bit_length() - 1
            _, after = place(prefix_mask, boundary, v, masks)
            b_after = bin(after).count("1")
            if max(vsep, b_after) < self.best_width:
                candidates.append((b_after, v))
        far_b = bin(boundary).count("1") + 1
        if max(vsep, far_b) < self.best_width:
            scan = unplaced & ~near
            while scan:
                low = scan & -scan
                scan ^= low
                candidates.append((far_b, low.bit_length() - 1))
        candidates.sort()
        return (entry_key, entry_best, vsep, prefix_mask, boundary, order,
                iter(candidates))

    def _next_child(self, frame):
        """The frame's next unpruned child prefix, or ``None`` when done."""
        if self.best_width <= self.lower_bound:
            return None
        _key, _best, vsep, prefix_mask, boundary, order, candidates = frame
        for b_after, v in candidates:
            next_vsep = vsep if b_after <= vsep else b_after
            if next_vsep >= self.best_width:
                continue  # incumbent improved since candidate generation
            child_mask, child_boundary = place(
                prefix_mask, boundary, v, self.masks
            )
            return child_mask, order + [v], child_boundary, next_vsep
        return None

    def _close(self, frame) -> None:
        """Memoize a fully explored prefix set."""
        entry_key, entry_best, vsep = frame[:3]
        # A completion through this set costs >= vsep, so an improvement
        # found here pins best_width >= vsep; only best_width == vsep
        # leaves room for a revisit with a cheaper internal ordering.
        # (Greedy extension is set-deterministic, so memoizing the
        # pre-greedy entry key covers the extended prefix too.)
        if len(self.memo) < self.memo_limit or entry_key in self.memo:
            improved = self.best_width < entry_best
            self.memo[entry_key] = (
                vsep,
                not (improved and self.best_width == vsep),
            )


def _contraction_degeneracy(masks: Sequence[int]) -> int:
    """Contraction degeneracy of the graph given by local masks.

    Repeatedly contracts a minimum-degree vertex (the least index among
    ties) into its least-degree neighbor and reports the largest minimum
    degree seen.  Every contraction step yields a minor, and min-degree ≤
    degeneracy ≤ treewidth ≤ pathwidth, so the maximum is a valid
    pathwidth lower bound — strictly stronger in practice than plain
    degeneracy, and often tight enough to stop the search the moment the
    incumbent matches it.  The minimum-degree vertex comes off a heap
    keyed on ``(degree, index)``: every degree change pushes a fresh
    entry, and entries whose degree is stale are skipped when popped.
    """
    n = len(masks)
    if n <= 1:
        return 0
    adjacency = [set(iter_bits(m)) for m in masks]
    heap = [(len(adjacency[v]), v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    alive = n
    worst = 0
    while alive > 1:
        degree, v = heapq.heappop(heap)
        if removed[v] or degree != len(adjacency[v]):
            continue
        if degree > worst:
            worst = degree
        removed[v] = True
        alive -= 1
        if degree == 0:
            continue
        u = min(adjacency[v], key=lambda x: len(adjacency[x]))
        for w in adjacency[v]:
            if w == u:
                adjacency[w].discard(v)
            else:
                adjacency[w].discard(v)
                adjacency[w].add(u)
                adjacency[u].add(w)
                heapq.heappush(heap, (len(adjacency[w]), w))
        heapq.heappush(heap, (len(adjacency[u]), u))
        adjacency[v].clear()
    return worst


def ordering_from_decomposition(decomposition: PathDecomposition) -> list:
    """Vertex order by first bag appearance (vsep ≤ decomposition width)."""
    seen = set()
    order = []
    for bag in decomposition.bags:
        for v in sorted(bag):
            if v not in seen:
                seen.add(v)
                order.append(v)
    return order


def _seed_orderings(graph: Graph, seed_ordering: Optional[Sequence]) -> list:
    """The caller's seed alone, else the heuristic portfolio's orderings."""
    if seed_ordering is not None:
        return [list(seed_ordering)]
    from repro.pathwidth.heuristics import bfs_ordering, greedy_boundary_ordering

    return [bfs_ordering(graph), greedy_boundary_ordering(graph)]


def branch_and_bound_ordering(
    graph: Graph,
    node_budget: Optional[int] = None,
    seed_ordering: Optional[Sequence] = None,
    memo_limit: int = DEFAULT_MEMO_LIMIT,
) -> BnBResult:
    """Return a minimum vertex-separation ordering of ``graph``.

    Runs the branch-and-bound per connected component, seeded by
    ``seed_ordering`` when given, else by the best of the heuristic
    portfolio.  With a ``node_budget`` the search expands at most that
    many nodes over all components; the result is then anytime — never
    worse than the seed — and ``result.optimal`` reports whether the
    search completed.
    """
    stats = BnBStats(node_budget=node_budget)
    started = perf_counter()
    if graph.n == 0:
        return BnBResult(ordering=[], width=-1, optimal=True, stats=stats)

    vertices, masks = neighbor_masks(graph)
    index_of = {v: i for i, v in enumerate(vertices)}

    # Measure each seed once on the full graph; keep the best as incumbent.
    best_seed = None
    best_seed_width = None
    for seed in _seed_orderings(graph, seed_ordering):
        if len(seed) != graph.n or set(seed) != set(vertices):
            raise ValueError("seed_ordering must order every vertex once")
        width = vertex_separation_of_order([index_of[v] for v in seed], masks)
        if best_seed_width is None or width < best_seed_width:
            best_seed_width = width
            best_seed = seed
    stats.seed_width = best_seed_width

    components = graph.connected_components()
    stats.components = len(components)
    ordering: list = []
    width = 0
    for component in components:
        members = sorted(index_of[v] for v in component)
        local_masks = subgraph_masks(masks, members)
        local_of = {dense: local for local, dense in enumerate(members)}
        # Project the incumbent ordering onto this component.
        local_seed = [local_of[index_of[v]] for v in best_seed
                      if index_of[v] in local_of]
        local_width = vertex_separation_of_order(local_seed, local_masks)
        lower = _contraction_degeneracy(local_masks)
        stats.lower_bound = max(stats.lower_bound, lower)
        search = _ComponentSearch(
            local_masks, local_seed, local_width, lower, node_budget, stats,
            memo_limit,
        )
        try:
            search.run()
        except _Exhausted:
            stats.exhausted = True
        stats.memo_entries += len(search.memo)
        ordering.extend(vertices[members[local]] for local in search.best_order)
        if search.best_width > width:
            width = search.best_width
    stats.elapsed_ms = (perf_counter() - started) * 1000.0
    return BnBResult(ordering=ordering, width=width,
                     optimal=not stats.exhausted, stats=stats)


def branch_and_bound_decomposition(
    graph: Graph,
    node_budget: Optional[int] = None,
    seed_ordering: Optional[Sequence] = None,
) -> "tuple[PathDecomposition, BnBResult]":
    """Return ``(decomposition, result)`` from a branch-and-bound run."""
    if graph.n == 0:
        return (
            PathDecomposition(graph, [], validate=False),
            BnBResult(ordering=[], width=-1, optimal=True),
        )
    result = branch_and_bound_ordering(graph, node_budget=node_budget,
                                       seed_ordering=seed_ordering)
    rep = IntervalRepresentation.from_ordering(graph, result.ordering)
    return PathDecomposition.from_interval_representation(rep), result
