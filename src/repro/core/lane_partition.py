"""Proposition 4.6: completing a k-lane partition with low congestion.

Given a width-``k`` interval representation of a connected graph, the
recursive construction below produces a ``w``-lane partition with
``w <= f(k)`` whose weak completion embeds into ``G`` with congestion at
most ``g(k)`` (and the completion with at most ``h(k)``), where

    f(1) = 1,  f(k) = 2 + 2(k-1) f(k-1)
    g(1) = 0,  g(k) = 2 + g(k-1) + 2k f(k-1)
    h(k) = g(k) + f(k) - 1.

The implementation follows the proof verbatim:

* pick ``v_st``/``v_ed`` extremal for L/R, a ``v_st``–``v_ed`` path ``P``,
  and the greedy jump sequence ``S`` along it (Observations 4.7/4.8 make
  the odd/even subsequences ``S1``/``S2`` valid lanes);
* classify the components of ``G - S`` into ``k - 1`` interval-disjoint
  classes (Lemma 4.10), split each class by adjacency to ``S1`` vs ``S2``,
  and recurse (Lemma 4.11 bounds component width by ``k - 1``);
* assemble lanes ``S1``, ``S2``, and one lane per (class, side, recursive
  lane index), and embed the lane edges as in Cases 1, 2.1, and 2.2 of
  the proof.

:func:`greedy_lanes` is the cheap alternative the Theorem-1 prover tries
first: Observation 4.3's at most ``k`` lanes, embedded along shortest
paths, kept whenever it meets the bounds above
(:func:`check_lane_bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.embedding import Embedding
from repro.core.lanes import KLanePartition, greedy_lane_partition
from repro.graphs import Graph, edge_key
from repro.pathwidth.interval import IntervalRepresentation


def f_bound(k: int) -> int:
    """The lane-count bound f(k) of Section 4.2."""
    if k < 1:
        raise ValueError("width must be at least 1")
    if k == 1:
        return 1
    return 2 + 2 * (k - 1) * f_bound(k - 1)


def g_bound(k: int) -> int:
    """The weak-completion congestion bound g(k) of Section 4.2."""
    if k < 1:
        raise ValueError("width must be at least 1")
    if k == 1:
        return 0
    return 2 + g_bound(k - 1) + 2 * k * f_bound(k - 1)


def h_bound(k: int) -> int:
    """The completion congestion bound h(k) = g(k) + f(k) - 1."""
    return g_bound(k) + f_bound(k) - 1


@dataclass
class LanePartitionResult:
    """Lanes plus the embeddings of Proposition 4.6."""

    partition: KLanePartition
    weak_embedding: Embedding  # paths for E1 (lane-internal) edges
    head_embedding: Embedding  # paths for E2 (lane-head) edges

    def full_embedding(self) -> Embedding:
        """Return the union embedding for the (strong) completion."""
        return self.weak_embedding.merged_with(self.head_embedding)


def build_lane_partition(
    graph: Graph, rep: IntervalRepresentation
) -> LanePartitionResult:
    """Run the Proposition 4.6 construction on a connected graph."""
    if graph.n == 0:
        raise ValueError("graph must be non-empty")
    if not graph.is_connected():
        raise ValueError("Proposition 4.6 requires a connected graph")

    lanes, paths = _partition(graph, rep)
    partition = KLanePartition(rep, lanes)
    weak = Embedding(graph)
    for key, path in paths.items():
        if len(path) >= 2:
            weak.add_path(key, path)
    head = _shortest_path_embedding(graph, [partition.heads()])
    return LanePartitionResult(partition, weak, head)


def greedy_lanes(graph: Graph, rep: IntervalRepresentation) -> LanePartitionResult:
    """Observation 4.3's lanes, embedded along shortest paths.

    :func:`greedy_lane_partition` yields at most ``rep.width()`` lanes;
    each consecutive in-lane pair and head pair that is not already an
    edge of ``graph`` embeds along ``graph.shortest_path``.  A pair that
    is a real edge gets no path: a path keyed on a real edge would stand
    in for that edge's own label.  Nothing bounds the congestion here;
    the caller compares it with ``h(width)``.
    """
    if graph.n == 0:
        raise ValueError("graph must be non-empty")
    if not graph.is_connected():
        raise ValueError("embedding lanes requires a connected graph")
    partition = greedy_lane_partition(rep)
    return LanePartitionResult(
        partition,
        _shortest_path_embedding(graph, partition.lanes),
        _shortest_path_embedding(graph, [partition.heads()]),
    )


def check_lane_bounds(
    result: LanePartitionResult, congestion: int, width: int
) -> None:
    """Raise ``AssertionError`` unless a lane partition of a width-``width``
    representation meets Proposition 4.6's bounds: at most ``f(width)``
    lanes and completion congestion at most ``h(width)``."""
    if result.partition.width > f_bound(width):
        raise AssertionError(
            f"{result.partition.width} lanes exceed f({width}) = {f_bound(width)}"
        )
    if congestion > h_bound(width):
        raise AssertionError(
            f"completion congestion {congestion} exceeds h({width}) = {h_bound(width)}"
        )


def _shortest_path_embedding(graph: Graph, sequences) -> Embedding:
    """Embed each consecutive pair of every sequence that is not already
    an edge along a shortest path (E2, the "second statement" of
    Proposition 4.6, embeds the lane heads this way)."""
    embedding = Embedding(graph)
    for sequence in sequences:
        for a, b in zip(sequence, sequence[1:]):
            if not graph.has_edge(a, b):
                embedding.add_path(edge_key(a, b), graph.shortest_path(a, b))
    return embedding


# ----------------------------------------------------------------------
# The recursion
# ----------------------------------------------------------------------
def _partition(graph: Graph, rep: IntervalRepresentation):
    """Return ``(lanes, e1_paths)`` for one connected graph.

    ``e1_paths`` maps each lane-internal consecutive pair (that is not
    already an edge of ``graph``) to its embedding path.  Pairs that are
    real edges get the trivial two-vertex path.
    """
    if graph.n == 1:
        return [graph.vertices()], {}

    # --- the jump sequence S along a v_st -> v_ed path ----------------
    v_st = rep.argmin_left()
    v_ed = rep.argmax_right()
    spine = graph.shortest_path(v_st, v_ed)
    position = {v: i for i, v in enumerate(spine)}
    r_ed = rep.right(v_ed)

    jumps = [v_st]
    while rep.right(jumps[-1]) < r_ed:
        current = jumps[-1]
        candidates = [
            u
            for u in spine[position[current] + 1 :]
            if rep.overlaps(u, current)
        ]
        if not candidates:
            raise AssertionError(
                "jump sequence stuck — the path would be disconnected"
            )
        nxt = max(candidates, key=lambda u: (rep.right(u), -position[u]))
        jumps.append(nxt)

    s1 = jumps[0::2]
    s2 = jumps[1::2]
    jump_set = set(jumps)

    lanes: list = [s1]
    if s2:
        lanes.append(s2)
    paths: dict = {}

    # Case 1: lane edges inside S1/S2 embed along subpaths of the spine.
    for lane in (s1, s2):
        for a, b in zip(lane, lane[1:]):
            paths[edge_key(a, b)] = spine[position[a] : position[b] + 1]

    # --- components of G - S, classified (Lemma 4.10) ------------------
    rest = [v for v in graph.vertices() if v not in jump_set]
    if not rest:
        return [lane for lane in lanes if lane], paths
    remainder = graph.induced_subgraph(rest)
    components = remainder.connected_components()

    # Greedy interval-disjoint classes over the component union intervals.
    comp_info = []
    for comp in components:
        left, right = rep.union_interval(comp)
        comp_info.append((left, right, comp))
    comp_info.sort(key=lambda t: (t[0], t[1]))
    class_of: dict = {}
    class_end: list = []
    for left, right, comp in comp_info:
        target = None
        for index, end in enumerate(class_end):
            if end < left:
                target = index
                break
        if target is None:
            class_end.append(right)
            target = len(class_end) - 1
        else:
            class_end[target] = right
        class_of[tuple(comp)] = target

    # Side split: a component adjacent to S1 goes to side 0, else side 1.
    s1_set, s2_set = set(s1), set(s2)

    def side_of(comp) -> int:
        for v in comp:
            if not s1_set.isdisjoint(graph.neighbors_sorted(v)):
                return 0
        for v in comp:
            if not s2_set.isdisjoint(graph.neighbors_sorted(v)):
                return 1
        raise AssertionError("component not adjacent to S — graph disconnected?")

    # Designated connection edge (u*_C, v*_C) from each component to its side.
    def connector(comp, side_set) -> tuple:
        for v in sorted(comp):
            for u in graph.neighbors_sorted(v):  # sorted: first hit is min
                if u in side_set:
                    return (v, u)
        raise AssertionError("no connector edge found")

    # --- recurse and assemble ------------------------------------------
    buckets: dict = {}
    for left, right, comp in comp_info:
        cls = class_of[tuple(comp)]
        side = side_of(comp)
        sub = graph.induced_subgraph(comp)
        sub_rep = rep.restricted_to(comp)
        sub_lanes, sub_paths = _partition(sub, sub_rep)
        paths.update(sub_paths)  # Case 2.1: recursive embeddings
        side_set = s1_set if side == 0 else s2_set
        u_star, v_star = connector(comp, side_set)
        buckets.setdefault((cls, side), []).append(
            {
                "comp": comp,
                "lanes": sub_lanes,
                "graph": sub,
                "u_star": u_star,
                "v_star": v_star,
            }
        )

    for (cls, side) in sorted(buckets):
        entries = buckets[(cls, side)]  # already in ≺ order of I_C
        max_lanes = max(len(entry["lanes"]) for entry in entries)
        for lane_index in range(max_lanes):
            assembled: list = []
            previous = None  # (entry, last vertex of its lane_index lane)
            for entry in entries:
                if lane_index >= len(entry["lanes"]):
                    continue
                lane = entry["lanes"][lane_index]
                if previous is not None:
                    # Case 2.2: embed the cross-component lane edge.
                    x_entry, x = previous
                    y = lane[0]
                    key = edge_key(x, y)
                    if not graph.has_edge(x, y):
                        path = _cross_component_path(
                            graph, spine, position, x_entry, x, entry, y
                        )
                        paths[key] = path
                    else:
                        paths[key] = [x, y]
                assembled.extend(lane)
                previous = (entry, lane[-1])
            if assembled:
                lanes.append(assembled)

    return [lane for lane in lanes if lane], paths


def _cross_component_path(graph, spine, position, x_entry, x, y_entry, y):
    """Case 2.2: x -> u*_C -> v*_C -> (spine) -> v*_C' -> u*_C' -> y.

    The concatenation is a priori a *walk* — the spine may revisit
    component vertices — so it is shortcut into a simple path, which only
    lowers congestion relative to the proof's accounting.
    """
    first_leg = x_entry["graph"].shortest_path(x, x_entry["u_star"])
    last_leg = y_entry["graph"].shortest_path(y_entry["u_star"], y)
    va, vb = x_entry["v_star"], y_entry["v_star"]
    pa, pb = position[va], position[vb]
    if pa <= pb:
        middle = spine[pa : pb + 1]
    else:
        middle = list(reversed(spine[pb : pa + 1]))
    walk = first_leg + middle + last_leg
    return _shortcut_walk(walk)


def _shortcut_walk(walk: list) -> list:
    """Turn a walk into a simple path by excising loops at revisits."""
    cleaned: list = []
    index_of: dict = {}
    for v in walk:
        if v == (cleaned[-1] if cleaned else None):
            continue  # consecutive duplicate (leg endpoints coincide)
        if v in index_of:
            cut = index_of[v]
            for removed in cleaned[cut + 1 :]:
                del index_of[removed]
            cleaned = cleaned[: cut + 1]
        else:
            index_of[v] = len(cleaned)
            cleaned.append(v)
    return cleaned
