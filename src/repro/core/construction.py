"""Proposition 5.6: every lanewidth-k graph is a single T-node.

The builder replays a :class:`ConstructionSequence` while maintaining the
paper's invariants:

* the current graph is ``Tree-merge(T)`` for a top-level tree ``T`` of
  E-, P-, and B-nodes rooted at the initial P-node;
* ``designated[i]`` is the lane-``i`` out-terminal of the current graph;
* ``lowest[i]`` is the lowest node of ``V(T)`` containing ``designated[i]``.

``V-insert`` hangs a fresh E-node under ``lowest[i]`` (Case 1).
``E-insert`` builds a B-node from V-nodes and/or packaged subtrees
(T-nodes) according to where the two designated vertices live relative to
their lowest common ancestor (Cases 2.1-2.3), which is exactly what keeps
the final hierarchy depth at most ``2k`` (Observation 5.5).
"""

from __future__ import annotations

from repro.core.hierarchy import HierarchyNode, number_nodes
from repro.core.lanewidth import ConstructionSequence


class _TreeState:
    """Mutable top-level tree bookkeeping.

    Every node records its depth, so LCAs and child-ancestors come from
    parent walks that stop at the meeting point.  The nodes walked lie
    below the LCA, in the subtree the E-insert then detaches, so the
    walks cost no more than the packaging (linear over the build).
    """

    def __init__(self, root: HierarchyNode):
        self.root = root
        self.parent: dict = {id(root): None}
        self.children: dict = {id(root): []}
        self.depth: dict = {id(root): 0}

    def attach(self, node: HierarchyNode, parent: HierarchyNode) -> None:
        self.parent[id(node)] = parent
        self.children[id(node)] = []
        self.children[id(parent)].append(node)
        self.depth[id(node)] = self.depth[id(parent)] + 1

    def lca(self, a: HierarchyNode, b: HierarchyNode) -> HierarchyNode:
        parent, depth = self.parent, self.depth
        while depth[id(a)] > depth[id(b)]:
            a = parent[id(a)]
        while depth[id(b)] > depth[id(a)]:
            b = parent[id(b)]
        while a is not b:
            a, b = parent[id(a)], parent[id(b)]
            if a is None or b is None:
                raise AssertionError("nodes share no ancestor — tree corrupted")
        return a

    def child_ancestor_of(
        self, top: HierarchyNode, descendant: HierarchyNode
    ) -> HierarchyNode:
        """Return the child of ``top`` on the path down to ``descendant``."""
        node = descendant
        for _ in range(self.depth[id(descendant)] - self.depth[id(top)] - 1):
            node = self.parent[id(node)]
        if node is top or self.parent[id(node)] is not top:
            raise AssertionError(f"{descendant!r} is not below {top!r}")
        return node

    def subtree_members(self, node: HierarchyNode) -> list:
        """Return the subtree of ``node`` in DFS order (node first)."""
        members = [node]
        stack = [node]
        while stack:
            current = stack.pop()
            for child in self.children[id(current)]:
                members.append(child)
                stack.append(child)
        return members

    def detach_subtree(self, node: HierarchyNode) -> list:
        """Remove ``node``'s subtree from the tree; return its members."""
        members = self.subtree_members(node)
        siblings = self.children[id(self.parent[id(node)])]
        del siblings[next(i for i, s in enumerate(siblings) if s is node)]
        for member in members:
            del self.parent[id(member)]
            del self.depth[id(member)]
        internal_children = {id(m): self.children.pop(id(m)) for m in members}
        # Keep the internal structure on the node objects for packaging.
        self._detached_children = internal_children
        return members


def _package_subtree(state: _TreeState, members: list, designated: dict) -> HierarchyNode:
    """Wrap a detached subtree into a T-node (Tree-merge of the subtree)."""
    root = members[0]
    index_of = {id(member): pos for pos, member in enumerate(members)}
    parent_pos: list = [None] * len(members)
    for pos, member in enumerate(members):
        for child in state._detached_children[id(member)]:
            parent_pos[index_of[id(child)]] = pos
    t_out = {lane: designated[lane] for lane in root.lanes}
    return HierarchyNode(
        kind="T",
        lanes=tuple(root.lanes),
        t_in=dict(root.t_in),
        t_out=t_out,
        children=list(members),
        member_parent=dict(enumerate(parent_pos)),
        root_member=0,
    )


def build_hierarchy(seq: ConstructionSequence) -> HierarchyNode:
    """Build the Proposition 5.6 hierarchy for a construction sequence."""
    lanes = tuple(range(seq.width))
    initial = {i: v for i, v in enumerate(seq.initial_vertices)}
    p_node = HierarchyNode(
        kind="P",
        lanes=lanes,
        t_in=dict(initial),
        t_out=dict(initial),
        path_vertices=tuple(seq.initial_vertices),
        path_tags=tuple(seq.initial_edge_tags),
    )
    state = _TreeState(p_node)
    designated = dict(initial)
    lowest = {i: p_node for i in lanes}

    for op in seq.ops:
        if op[0] == "V":
            _kind, lane, vertex, tag = op
            e_node = HierarchyNode(
                kind="E",
                lanes=(lane,),
                t_in={lane: designated[lane]},
                t_out={lane: vertex},
                edge=(designated[lane], vertex),
                edge_tag=tag,
            )
            anchor = lowest[lane]
            if lane not in anchor.lanes:
                raise AssertionError(
                    f"V-insert invariant broken: lane {lane} not in "
                    f"{anchor!r}'s lanes"
                )
            state.attach(e_node, anchor)
            designated[lane] = vertex
            lowest[lane] = e_node
            continue

        _kind, lane_i, lane_j, tag = op
        g_i, g_j = lowest[lane_i], lowest[lane_j]
        top = state.lca(g_i, g_j)

        def make_part(lane: int, g_node: HierarchyNode):
            """Return (part, detached members or None) for one bridge side."""
            if g_node is top:
                part = HierarchyNode(
                    kind="V",
                    lanes=(lane,),
                    t_in={lane: designated[lane]},
                    t_out={lane: designated[lane]},
                    vertex=designated[lane],
                )
                return part, None
            child = state.child_ancestor_of(top, g_node)
            members = state.detach_subtree(child)
            part = _package_subtree(state, members, designated)
            return part, members

        left, left_members = make_part(lane_i, g_i)
        right, right_members = make_part(lane_j, g_j)
        merged_lanes = tuple(sorted(set(left.lanes) | set(right.lanes)))
        b_node = HierarchyNode(
            kind="B",
            lanes=merged_lanes,
            t_in={**left.t_in, **right.t_in},
            t_out={**left.t_out, **right.t_out},
            children=[left, right],
            bridge=(lane_i, lane_j),
            bridge_tag=tag,
        )
        state.attach(b_node, top)
        moved = set()
        for members in (left_members, right_members):
            if members:
                moved.update(id(m) for m in members)
        for lane in lanes:
            if id(lowest[lane]) in moved:
                lowest[lane] = b_node
        lowest[lane_i] = b_node
        lowest[lane_j] = b_node

    members = state.subtree_members(p_node)
    index_of = {id(member): pos for pos, member in enumerate(members)}
    member_parent = {}
    for pos, member in enumerate(members):
        parent = state.parent[id(member)]
        member_parent[pos] = None if parent is None else index_of[id(parent)]
    root = HierarchyNode(
        kind="T",
        lanes=lanes,
        t_in=dict(initial),
        t_out={i: designated[i] for i in lanes},
        children=members,
        member_parent=member_parent,
        root_member=index_of[id(p_node)],
    )
    number_nodes(root)
    return root
