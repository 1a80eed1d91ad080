"""Hierarchical decompositions: the five node types and their evaluation.

Section 5.3 builds every lanewidth-``k`` graph as a **T-node** whose
hierarchical decomposition ``H`` has the two properties that enable
O(log n) certification: every root-to-leaf path has at most ``2k`` nodes
(Observation 5.5), and every node's subgraph is connected.

``H``'s structure here:

* ``V``/``E``/``P`` leaves own a vertex, an edge, and the initial path;
* a ``B`` node owns its bridge edge and has exactly two children (each a
  V- or T-node);
* a ``T`` node owns no edges; its children are *all* members of its
  internal tree (the paper's convention), whose parent-child relations
  are kept in ``member_parent``.

:func:`evaluate_hierarchy` runs any homomorphism-class algebra bottom-up
(Proposition 6.1): Bridge-merge is a boundary join plus one edge;
Parent-merge is a join gluing same-named terminals followed by a forget
that retires merged terminals — exactly the paper's 3k-terminal detour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.courcelle.algebra import BoundedAlgebra
from repro.graphs import Graph, edge_key


@dataclass
class HierarchyNode:
    """One node of the hierarchical decomposition."""

    kind: str  # 'V' | 'E' | 'P' | 'B' | 'T'
    lanes: tuple  # sorted lane numbers
    t_in: dict  # lane -> vertex
    t_out: dict  # lane -> vertex
    children: list = field(default_factory=list)
    # V-node:
    vertex: object = None
    # E-node:
    edge: Optional[tuple] = None  # (in_vertex, out_vertex)
    edge_tag: object = None
    # P-node:
    path_vertices: tuple = ()
    path_tags: tuple = ()
    # B-node:
    bridge: Optional[tuple] = None  # (lane_i, lane_j)
    bridge_tag: object = None
    # T-node internals: children == members; member_parent maps child list
    # positions to parent positions (None for the internal root).
    member_parent: dict = field(default_factory=dict)
    root_member: int = 0
    # assigned by number_nodes():
    node_id: int = -1

    # ------------------------------------------------------------------
    def owned_edges(self) -> list:
        """Return the edges this node itself contributes (with tags)."""
        if self.kind == "E":
            return [(edge_key(*self.edge), self.edge_tag)]
        if self.kind == "P":
            return [
                (edge_key(a, b), tag)
                for (a, b), tag in zip(
                    zip(self.path_vertices, self.path_vertices[1:]), self.path_tags
                )
            ]
        if self.kind == "B":
            left, right = self.children
            i, j = self.bridge
            return [(edge_key(left.t_out[i], right.t_out[j]), self.bridge_tag)]
        return []

    def all_edges(self) -> list:
        """Return every (edge, tag) in this node's subgraph."""
        edges = list(self.owned_edges())
        for child in self.children:
            edges.extend(child.all_edges())
        return edges

    def all_vertices(self) -> set:
        """Return every vertex in this node's subgraph."""
        if self.kind == "V":
            return {self.vertex}
        if self.kind == "E":
            return set(self.edge)
        if self.kind == "P":
            return set(self.path_vertices)
        result: set = set()
        for child in self.children:
            result |= child.all_vertices()
        return result

    def walk(self):
        """Yield every node of the hierarchy, root first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"HierarchyNode({self.kind}, lanes={list(self.lanes)}, "
            f"children={len(self.children)})"
        )


def number_nodes(root: HierarchyNode) -> None:
    """Assign serial ``node_id``s (prover-side grouping hints in labels)."""
    for serial, node in enumerate(root.walk()):
        node.node_id = serial


def hierarchy_depth(root: HierarchyNode) -> int:
    """Return the max number of nodes on a root-to-leaf path (Obs 5.5)."""
    if not root.children:
        return 1
    return 1 + max(hierarchy_depth(child) for child in root.children)


def validate_hierarchy(root: HierarchyNode, graph: Graph) -> int:
    """Check the hierarchy is a faithful decomposition of ``graph``;
    return its depth.

    One bottom-up pass over terminal maps and vertex sets, on explicit
    stacks (member trees are about n/w deep), without building graphs.
    It checks what the reference merges of :mod:`repro.core.klane_graph`
    check, node by node:

    * V/E/P leaves cover exactly their lanes with injective terminals
      and no self-loop;
    * a B node has exactly two children with disjoint lane sets and
      disjoint vertex sets, and its bridge lanes on the matching sides;
    * a T node's member tree reaches every member once from its root
      member, siblings use disjoint lanes (Tree-merge), and each
      Parent-merge has child lanes inside the parent's, shares exactly
      the glued terminals, and meets in-terminals with out-terminals
      lane by lane; the merged out-terminals stay injective;
    * every node's stored ``lanes``/``t_in``/``t_out`` equal the merged
      ones (the certificates carry the stored maps);
    * the owned edges partition E(graph) with matching tags, the
      vertices are V(graph), and the depth meets Observation 5.5.

    Vertex sets merge smaller-into-larger.  Every failure is a
    ``ValueError``.
    """
    owned: set = set()
    entered: set = set()
    merged: dict = {}  # id(node) -> _Merged, consumed by the parent
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            kids = [merged.pop(id(child)) for child in node.children]
            merged[id(node)] = _merge_node(node, kids, graph, owned)
            continue
        if id(node) in entered:
            raise ValueError(f"{node!r} appears twice in the hierarchy")
        entered.add(id(node))
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))
    top = merged.pop(id(root))
    if len(owned) != graph.m:
        raise ValueError("hierarchy edges do not match the graph")
    if len(top.vertices) != graph.n or not all(v in graph for v in top.vertices):
        raise ValueError("hierarchy vertices do not match the graph")
    if top.depth > 2 * len(top.lanes):
        raise ValueError("Observation 5.5 depth bound violated")
    return top.depth


class _Merged:
    """What one node's subgraph merges to: the k-lane graph's lanes,
    terminals and vertex set, plus the subtree's depth."""

    __slots__ = ("lanes", "t_in", "t_out", "vertices", "depth")

    def __init__(self, lanes, t_in, t_out, vertices, depth=1):
        self.lanes = lanes
        self.t_in = t_in
        self.t_out = t_out
        self.vertices = vertices
        self.depth = depth


def _merge_node(node, kids, graph, owned) -> _Merged:
    """Merge one node from its children's results (Defs 5.3/5.4)."""
    try:
        lanes = frozenset(node.lanes)
    except TypeError:
        raise ValueError(f"a {node.kind} node has no lane set") from None
    if node.kind in ("V", "E", "P"):
        if kids:
            raise ValueError(f"leaf {node!r} has children")
        result = _merge_leaf(node, lanes, graph, owned)
    elif node.kind == "B":
        result = _merge_bridge(node, kids, graph, owned)
    elif node.kind == "T":
        result = _merge_tree(node, kids)
    else:
        raise ValueError(f"unknown node kind {node.kind!r}")
    if len(node.lanes) != len(result.lanes) or lanes != result.lanes:
        raise ValueError(f"{node!r}: stored lanes differ from the merged ones")
    if node.t_in != result.t_in or node.t_out != result.t_out:
        raise ValueError(f"{node!r}: stored terminals differ from the merged ones")
    return result


def _merge_leaf(node, lanes, graph, owned) -> _Merged:
    if node.kind == "P":
        path = tuple(node.path_vertices)
        tags = tuple(node.path_tags)
        if len(set(path)) != len(path) or len(path) != len(node.lanes):
            raise ValueError(f"{node!r}: path must be one distinct vertex per lane")
        if len(tags) != len(path) - 1:
            raise ValueError(f"{node!r}: need one tag per path edge")
        for a, b, tag in zip(path, path[1:], tags):
            _own(owned, graph, a, b, tag)
        terminals = dict(zip(node.lanes, path))
        return _Merged(lanes, terminals, dict(terminals), set(path))
    if len(node.lanes) != 1:
        raise ValueError(f"{node!r} must cover exactly one lane")
    (lane,) = lanes
    if node.kind == "V":
        return _Merged(lanes, {lane: node.vertex}, {lane: node.vertex}, {node.vertex})
    if not isinstance(node.edge, tuple) or len(node.edge) != 2:
        raise ValueError(f"{node!r} must own one edge")
    u, v = node.edge
    _own(owned, graph, u, v, node.edge_tag)
    return _Merged(lanes, {lane: u}, {lane: v}, {u, v})


def _merge_bridge(node, kids, graph, owned) -> _Merged:
    """Bridge-merge: disjoint lanes and vertices, one new edge."""
    if len(kids) != 2:
        raise ValueError(f"{node!r} must have exactly two children")
    if not isinstance(node.bridge, tuple) or len(node.bridge) != 2:
        raise ValueError(f"{node!r} must name one lane per side")
    left, right = kids
    i, j = node.bridge
    if left.lanes & right.lanes:
        raise ValueError(f"{node!r}: Bridge-merge requires disjoint lane sets")
    if i not in left.lanes or j not in right.lanes:
        raise ValueError(f"{node!r}: bridge lanes must belong to their sides")
    vertices = _union(left.vertices, right.vertices, frozenset())
    _own(owned, graph, left.t_out[i], right.t_out[j], node.bridge_tag)
    return _Merged(
        left.lanes | right.lanes,
        {**left.t_in, **right.t_in},
        {**left.t_out, **right.t_out},
        vertices,
        1 + max(left.depth, right.depth),
    )


def _merge_tree(node, members) -> _Merged:
    """Tree-merge: contract the member tree from its root member down,
    kids in sorted order, on an explicit stack of ``(member index,
    accumulator, pending kids, lanes the kids used)`` frames."""
    count = len(members)
    if not count:
        raise ValueError(f"{node!r} has no members")
    kids_of: list = [[] for _ in range(count)]
    for index, parent in node.member_parent.items():
        if not _is_index(index, count) or not (
            parent is None or _is_index(parent, count)
        ):
            raise ValueError(f"{node!r}: member parent entry out of range")
        if parent is not None:
            kids_of[parent].append(index)
    if not _is_index(node.root_member, count) or node.member_parent.get(
        node.root_member
    ) is not None:
        raise ValueError(f"{node!r}: bad root member")
    entered = [False] * count

    def enter(index: int) -> list:
        if entered[index]:
            raise ValueError(f"{node!r}: member parents form a cycle")
        entered[index] = True
        member = members[index]
        acc = _Merged(
            member.lanes, member.t_in, dict(member.t_out), member.vertices
        )
        return [index, acc, iter(sorted(kids_of[index])), set()]

    stack = [enter(node.root_member)]
    while True:
        _index, acc, kids, used = stack[-1]
        kid = next(kids, None)
        if kid is not None:
            if not used.isdisjoint(members[kid].lanes):
                raise ValueError(f"{node!r}: sibling members share a lane")
            used |= members[kid].lanes
            stack.append(enter(kid))
            continue
        stack.pop()
        if not stack:
            break
        _parent_merge_check(node, stack[-1][1], acc)
    if not all(entered):
        raise ValueError(f"{node!r}: a member is unreachable from the root member")
    acc.depth = 1 + max(member.depth for member in members)
    return acc


def _parent_merge_check(node, parent: _Merged, child: _Merged) -> None:
    """Parent-merge ``child`` into ``parent`` in place: glue the child's
    in-terminals onto the parent's out-terminals lane by lane."""
    if not child.lanes <= parent.lanes:
        raise ValueError(f"{node!r}: Parent-merge requires T(child) ⊆ T(parent)")
    glued = set()
    for lane in child.lanes:
        if child.t_in[lane] != parent.t_out[lane]:
            raise ValueError(
                f"{node!r}: lane {lane} in-terminal does not meet out-terminal"
            )
        glued.add(child.t_in[lane])
    parent.vertices = _union(parent.vertices, child.vertices, glued)
    for lane in child.lanes:
        parent.t_out[lane] = child.t_out[lane]
    if len(set(parent.t_out.values())) != len(parent.t_out):
        raise ValueError(f"{node!r}: merged out-terminals are not injective")


def _union(a: set, b: set, shared) -> set:
    """Union two vertex sets that may meet only in ``shared``, merging the
    smaller into the larger (which is reused)."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    for v in small:
        if v in large and v not in shared:
            raise ValueError(f"vertex {v!r} appears on both sides of a merge")
    large.update(small)
    return large


def _own(owned: set, graph: Graph, a, b, tag) -> None:
    """Record one owned edge: a tagged edge of ``graph``, owned once."""
    if a == b:
        raise ValueError(f"self-loop at {a!r}")
    key = edge_key(a, b)
    if key in owned:
        raise ValueError(f"edge {key!r} is owned twice")
    if not graph.has_edge(a, b):
        raise ValueError(f"edge {key!r} is not in the graph")
    if graph.edge_label(a, b) != tag:
        raise ValueError(f"tag mismatch on edge {key!r}")
    owned.add(key)


def _is_index(value, count: int) -> bool:
    return isinstance(value, int) and 0 <= value < count


# ----------------------------------------------------------------------
# Algebra evaluation (Proposition 6.1)
# ----------------------------------------------------------------------
@dataclass
class NodeEvaluation:
    """Algebra state + boundary bookkeeping for one (sub)graph."""

    state: object
    boundary: tuple  # terminal vertices in canonical order
    t_in: dict
    t_out: dict
    lanes: tuple


@dataclass
class HierarchyEvaluation:
    """Results of one bottom-up algebra pass over a hierarchy.

    Evaluations are keyed by the serial ``node_id`` assigned by
    :func:`number_nodes` (not by object identity), so an evaluation
    pickled to another process — or persisted in an artifact cache —
    still resolves against any equal copy of its hierarchy.
    """

    algebra: BoundedAlgebra
    node_eval: dict = field(default_factory=dict)  # node_id -> NodeEvaluation
    subtree_eval: dict = field(default_factory=dict)  # member node_id -> NodeEvaluation

    def for_node(self, node: HierarchyNode) -> NodeEvaluation:
        return self.node_eval[node.node_id]

    def for_subtree(self, member: HierarchyNode) -> NodeEvaluation:
        return self.subtree_eval[member.node_id]

    def accepts(self, root: HierarchyNode) -> bool:
        evaluation = self.for_node(root)
        return self.algebra.accepts(evaluation.state, len(evaluation.boundary))


def canonical_boundary(lanes, t_in: dict, t_out: dict) -> tuple:
    """Paper's ξ order: by lane, in-terminal before out-terminal."""
    boundary = []
    for lane in sorted(lanes):
        for v in (t_in[lane], t_out[lane]):
            if v not in boundary:
                boundary.append(v)
    return tuple(boundary)


def evaluate_hierarchy(
    root: HierarchyNode, algebra: BoundedAlgebra
) -> HierarchyEvaluation:
    """Compute homomorphism classes bottom-up (the f_B/f_P of Prop 6.1)."""
    if root.node_id < 0:
        # Hand-built hierarchies (tests, external callers) may skip
        # number_nodes; evaluation keys require the serial ids.
        number_nodes(root)
    evaluation = HierarchyEvaluation(algebra=algebra)
    _eval_node(root, algebra, evaluation)
    return evaluation


def _eval_node(node, algebra, evaluation) -> NodeEvaluation:
    if node.kind == "V":
        state = algebra.new_vertices(1)
        result = NodeEvaluation(
            state, (node.vertex,), dict(node.t_in), dict(node.t_out), node.lanes
        )
    elif node.kind == "E":
        state = algebra.new_vertices(2)
        state = algebra.add_edge(state, 0, 1, node.edge_tag)
        result = NodeEvaluation(
            state, tuple(node.edge), dict(node.t_in), dict(node.t_out), node.lanes
        )
    elif node.kind == "P":
        w = len(node.path_vertices)
        state = algebra.new_vertices(w)
        for index, tag in enumerate(node.path_tags):
            state = algebra.add_edge(state, index, index + 1, tag)
        result = NodeEvaluation(
            state,
            tuple(node.path_vertices),
            dict(node.t_in),
            dict(node.t_out),
            node.lanes,
        )
    elif node.kind == "B":
        left, right = node.children
        left_eval = _eval_node(left, algebra, evaluation)
        right_eval = _eval_node(right, algebra, evaluation)
        state = algebra.join(
            left_eval.state,
            len(left_eval.boundary),
            right_eval.state,
            len(right_eval.boundary),
            (),
        )
        boundary = left_eval.boundary + right_eval.boundary
        i, j = node.bridge
        a = boundary.index(left.t_out[i])
        b = boundary.index(right.t_out[j])
        state = algebra.add_edge(state, a, b, node.bridge_tag)
        state, boundary = _project(
            algebra, state, boundary, node.lanes, node.t_in, node.t_out
        )
        result = NodeEvaluation(
            state, boundary, dict(node.t_in), dict(node.t_out), node.lanes
        )
    elif node.kind == "T":
        result = _fold_members(node, algebra, evaluation)
        result = NodeEvaluation(
            result.state, result.boundary, dict(node.t_in), dict(node.t_out), node.lanes
        )
    else:
        raise ValueError(f"unknown node kind {node.kind!r}")
    evaluation.node_eval[node.node_id] = result
    return result


def _fold_members(node, algebra, evaluation) -> NodeEvaluation:
    """Fold a T-node's member tree bottom-up (the f_P of Prop 6.1).

    A member's subtree result is its own evaluation with every kid
    subtree glued on, kids in sorted order.  The member tree is as deep
    as the member chain is long (≈200 at n=1024), so the fold runs on an
    explicit stack of ``(member index, accumulator, pending kids)``
    frames rather than one Python frame per level.
    """
    children: dict = {index: [] for index in range(len(node.children))}
    for index, parent in node.member_parent.items():
        if parent is not None:
            children[parent].append(index)

    def enter(index: int) -> tuple:
        own = _eval_node(node.children[index], algebra, evaluation)
        acc = NodeEvaluation(
            own.state, own.boundary, dict(own.t_in), dict(own.t_out), own.lanes
        )
        return index, acc, iter(sorted(children[index]))

    stack = [enter(node.root_member)]
    while True:
        index, acc, kids = stack[-1]
        kid_index = next(kids, None)
        if kid_index is not None:
            stack.append(enter(kid_index))
            continue
        stack.pop()
        evaluation.subtree_eval[node.children[index].node_id] = acc
        if not stack:
            return acc
        _parent_merge(algebra, stack[-1][1], acc)


def _parent_merge(algebra, acc: NodeEvaluation, kid: NodeEvaluation) -> None:
    """Glue ``kid``'s in-terminals (same vertex names) onto ``acc``'s
    current out-terminals, lane-wise, updating ``acc`` in place."""
    identify = tuple(
        (acc.boundary.index(acc.t_out[lane]), kid.boundary.index(kid.t_in[lane]))
        for lane in kid.lanes
    )
    state = algebra.join(
        acc.state, len(acc.boundary), kid.state, len(kid.boundary), identify
    )
    glued = {kid.t_in[lane] for lane in kid.lanes}
    boundary = acc.boundary + tuple(v for v in kid.boundary if v not in glued)
    for lane in kid.lanes:
        acc.t_out[lane] = kid.t_out[lane]
    acc.state, acc.boundary = _project(
        algebra, state, boundary, acc.lanes, acc.t_in, acc.t_out
    )


def _project(algebra, state, boundary, lanes, t_in, t_out):
    """Forget boundary vertices that are no longer terminals."""
    target = canonical_boundary(lanes, t_in, t_out)
    keep = tuple(boundary.index(v) for v in target)
    if keep == tuple(range(len(boundary))):
        return state, boundary
    return algebra.forget(state, len(boundary), keep), target
