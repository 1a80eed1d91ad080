"""k-lane graphs and their merges (Definitions 5.3-5.4) — reference form.

These are *explicit* graph-level semantics of Bridge-merge, Parent-merge
and Tree-merge, and :func:`to_klane` materializes a hierarchy node's
k-lane graph through them.  They are the test oracle: the prover checks
its hierarchies with the one-pass
:func:`~repro.core.hierarchy.validate_hierarchy`, and the test suite
asserts that every corruption these merges catch, that check catches
too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphs import Graph


@dataclass
class KLaneGraph:
    """A graph with a lane set and in/out terminals per lane (Def 5.3)."""

    graph: Graph
    lanes: frozenset
    t_in: dict  # lane -> vertex
    t_out: dict  # lane -> vertex

    def __post_init__(self):
        if not self.lanes:
            raise ValueError("a k-lane graph needs a non-empty lane set")
        for mapping, name in ((self.t_in, "in"), (self.t_out, "out")):
            if set(mapping) != set(self.lanes):
                raise ValueError(f"{name}-terminals must cover the lane set")
            values = list(mapping.values())
            if len(set(values)) != len(values):
                raise ValueError(f"{name}-terminals must be injective")
            for v in values:
                if v not in self.graph:
                    raise ValueError(f"{name}-terminal {v!r} not in graph")


def bridge_merge(g1: KLaneGraph, g2: KLaneGraph, i: int, j: int, tag=None) -> KLaneGraph:
    """Bridge-merge (Section 5.2): disjoint lane sets, one new edge."""
    if g1.lanes & g2.lanes:
        raise ValueError("Bridge-merge requires disjoint lane sets")
    if i not in g1.lanes or j not in g2.lanes:
        raise ValueError("bridge lanes must belong to the respective graphs")
    merged = g1.graph.disjoint_union(g2.graph)
    u, v = g1.t_out[i], g2.t_out[j]
    merged.add_edge(u, v)
    if tag is not None:
        merged.set_edge_label(u, v, tag)
    return KLaneGraph(
        graph=merged,
        lanes=g1.lanes | g2.lanes,
        t_in={**g1.t_in, **g2.t_in},
        t_out={**g1.t_out, **g2.t_out},
    )


def parent_merge(child: KLaneGraph, parent: KLaneGraph) -> KLaneGraph:
    """Parent-merge (Section 5.2): glue child in-terminals onto parent
    out-terminals lane-wise.

    The two graphs share exactly the glued vertices by name (the
    construction of Proposition 5.6 builds them that way); edge sets must
    stay disjoint.
    """
    if not child.lanes <= parent.lanes:
        raise ValueError("Parent-merge requires T(child) ⊆ T(parent)")
    shared = set(child.graph.vertices()) & set(parent.graph.vertices())
    glue_targets = {child.t_in[i] for i in child.lanes}
    expected = {parent.t_out[i] for i in child.lanes}
    if glue_targets != expected or shared != glue_targets:
        raise ValueError(
            "child and parent must share exactly the glued terminals "
            f"(shared {sorted(map(repr, shared))})"
        )
    for i in child.lanes:
        if child.t_in[i] != parent.t_out[i]:
            raise ValueError(f"lane {i}: in-terminal does not meet out-terminal")
    overlap_edges = set(child.graph.edges()) & set(parent.graph.edges())
    if overlap_edges:
        raise ValueError("Parent-merge must not identify edges")
    merged = parent.graph.copy()
    for v in child.graph.vertices():
        merged.add_vertex(v)
    for u, v in child.graph.edges():
        merged.add_edge(u, v)
        label = child.graph.edge_label(u, v)
        if label is not None:
            merged.set_edge_label(u, v, label)
    t_out = dict(parent.t_out)
    for i in child.lanes:
        t_out[i] = child.t_out[i]
    return KLaneGraph(
        graph=merged, lanes=parent.lanes, t_in=dict(parent.t_in), t_out=t_out
    )


def tree_merge(members: list, parent_of: dict, root_index: int) -> KLaneGraph:
    """Tree-merge (Section 5.3): contract all parent-child pairs.

    ``members`` is a list of :class:`KLaneGraph`; ``parent_of`` maps a
    member index to its parent index (``None`` for the root).  Children of
    one parent must have pairwise disjoint lane sets, each a subset of the
    parent's (the Tree-merge side conditions).  Parent-merge associativity
    (noted after the definition) lets us contract bottom-up.
    """
    children: dict = {index: [] for index in range(len(members))}
    for index, parent in parent_of.items():
        if parent is not None:
            children[parent].append(index)
    for parent, kids in children.items():
        lanes_seen: set = set()
        for kid in kids:
            if members[kid].lanes & lanes_seen:
                raise ValueError("siblings must use disjoint lanes")
            lanes_seen |= members[kid].lanes
            if not members[kid].lanes <= members[parent].lanes:
                raise ValueError("child lanes must be a subset of parent lanes")

    def contract(index: int) -> KLaneGraph:
        result = members[index]
        for kid in sorted(children[index]):
            result = parent_merge(contract(kid), result)
        return result

    return contract(root_index)


def to_klane(node) -> KLaneGraph:
    """Materialize a :class:`~repro.core.hierarchy.HierarchyNode`'s
    k-lane graph via the reference merges (recursive; test sizes only)."""
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
        return tree_merge(members, node.member_parent, node.root_member)
    raise ValueError(f"unknown node kind {node.kind!r}")
