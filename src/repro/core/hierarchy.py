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

from repro.core.klane_graph import KLaneGraph, bridge_merge, parent_merge
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


def validate_hierarchy(root: HierarchyNode, graph: Graph) -> None:
    """Check the hierarchy is a faithful decomposition of ``graph``.

    Edge sets of all nodes must partition E(graph); terminal maps must be
    consistent with the explicit Bridge/Parent/Tree-merge semantics; and
    the Observation 5.5 depth bound must hold.
    """
    edges = root.all_edges()
    keys = [key for key, _tag in edges]
    if len(keys) != len(set(keys)):
        raise ValueError("hierarchy nodes own overlapping edge sets")
    if set(keys) != set(graph.edges()):
        raise ValueError("hierarchy edges do not match the graph")
    for key, tag in edges:
        if graph.edge_label(*key) != tag:
            raise ValueError(f"tag mismatch on edge {key!r}")
    if root.all_vertices() != set(graph.vertices()):
        raise ValueError("hierarchy vertices do not match the graph")
    width = len(root.lanes)
    if hierarchy_depth(root) > 2 * width:
        raise ValueError("Observation 5.5 depth bound violated")
    to_klane(root)  # raises on structural inconsistencies


def to_klane(node: HierarchyNode) -> KLaneGraph:
    """Materialize the node's k-lane graph via the reference merges."""
    if node.kind == "V":
        g = Graph(vertices=[node.vertex])
        lane = node.lanes[0]
        return KLaneGraph(g, frozenset(node.lanes), {lane: node.vertex}, {lane: node.vertex})
    if node.kind == "E":
        u, v = node.edge
        g = Graph(edges=[(u, v)])
        g.set_edge_label(u, v, node.edge_tag)
        lane = node.lanes[0]
        return KLaneGraph(g, frozenset(node.lanes), {lane: u}, {lane: v})
    if node.kind == "P":
        g = Graph(vertices=node.path_vertices)
        for (a, b), tag in zip(
            zip(node.path_vertices, node.path_vertices[1:]), node.path_tags
        ):
            g.add_edge(a, b)
            g.set_edge_label(a, b, tag)
        terminals = {lane: v for lane, v in zip(node.lanes, node.path_vertices)}
        return KLaneGraph(g, frozenset(node.lanes), dict(terminals), dict(terminals))
    if node.kind == "B":
        left, right = node.children
        i, j = node.bridge
        return bridge_merge(to_klane(left), to_klane(right), i, j, node.bridge_tag)
    if node.kind == "T":
        members = [to_klane(member) for member in node.children]
        return _tree_contract(node, members)
    raise ValueError(f"unknown node kind {node.kind!r}")


def _tree_contract(node: HierarchyNode, members: list) -> KLaneGraph:
    children: dict = {index: [] for index in range(len(members))}
    for index, parent in node.member_parent.items():
        if parent is not None:
            children[parent].append(index)

    def contract(index: int) -> KLaneGraph:
        result = members[index]
        for kid in sorted(children[index]):
            result = parent_merge(contract(kid), result)
        return result

    return contract(node.root_member)


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
