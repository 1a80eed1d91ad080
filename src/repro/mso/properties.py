"""The property zoo: MSO2 formulas paired with direct checkers.

The paper's headline examples (Section 1.2) — planarity, Hamiltonicity,
k-colorability, H-minor-freeness, perfect matching, bounded vertex cover —
are all MSO2-expressible.  Each :class:`GraphProperty` here bundles

* a human-readable name,
* the defining MSO2 formula (when practical to state; ``None`` for
  counting properties that live in the standard CMSO extension),
* a **direct checker**: an independent decision procedure used as ground
  truth in cross-validation tests and experiments, and
* the key of the matching homomorphism-class algebra in
  :mod:`repro.courcelle` (when one is implemented).

The formulas are deliberately written in the primitive vocabulary of
Section 1.2 so the naive model checker exercises the same fragment the
paper quantifies over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.graphs import Graph
from repro.mso.syntax import (
    Adj,
    And,
    EdgeSetVar,
    EdgeVar,
    Eq,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    In,
    Inc,
    Not,
    Or,
    VertexSetVar,
    VertexVar,
    exists_many,
    forall_many,
)


@dataclass(frozen=True)
class GraphProperty:
    """A named graph property with formula and reference checker."""

    name: str
    description: str
    check: Callable[[Graph], bool]
    formula: Optional[Formula] = None
    algebra_key: Optional[str] = None
    cmso: bool = False  # counting-MSO extension rather than plain MSO2

    def __call__(self, graph: Graph) -> bool:
        return self.check(graph)

    def __repr__(self) -> str:
        return f"GraphProperty({self.name!r})"


# ----------------------------------------------------------------------
# Formula builders
# ----------------------------------------------------------------------
def _crossing_edge(S: VertexSetVar) -> Formula:
    """Some edge leaves S (one endpoint in, one out)."""
    u, v = VertexVar("_u_cr"), VertexVar("_v_cr")
    return Exists(u, Exists(v, And(And(In(u, S), Not(In(v, S))), Adj(u, v))))


def connectivity_formula() -> Formula:
    """Connected: every non-trivial vertex cut is crossed by an edge."""
    S = VertexSetVar("S")
    x, y = VertexVar("_x"), VertexVar("_y")
    nontrivial = And(Exists(x, In(x, S)), Exists(y, Not(In(y, S))))
    return ForAll(S, Implies(nontrivial, _crossing_edge(S)))


def acyclicity_formula() -> Formula:
    """Forest: no non-empty edge set in which every touched vertex has
    two incident set-edges (such a set contains a cycle and vice versa)."""
    F = EdgeSetVar("F")
    e, e1, e2 = EdgeVar("_e"), EdgeVar("_e1"), EdgeVar("_e2")
    v = VertexVar("_v")
    touched = Exists(e, And(In(e, F), Inc(e, v)))
    two_incident = Exists(
        e1,
        Exists(
            e2,
            And(
                And(In(e1, F), In(e2, F)),
                And(Not(Eq(e1, e2)), And(Inc(e1, v), Inc(e2, v))),
            ),
        ),
    )
    cycle_exists = Exists(
        F, And(Exists(e, In(e, F)), ForAll(v, Implies(touched, two_incident)))
    )
    return Not(cycle_exists)


def colorability_formula(q: int) -> Formula:
    """q-colorable: a partition into q independent sets exists."""
    classes = [VertexSetVar(f"C{i}") for i in range(q)]
    v = VertexVar("_v")
    u, w = VertexVar("_u"), VertexVar("_w")
    covered = ForAll(v, _or_many([In(v, c) for c in classes]))
    independent = forall_many(
        [u, w],
        Implies(
            Adj(u, w),
            _and_many([Not(And(In(u, c), In(w, c))) for c in classes]),
        ),
    )
    return exists_many(classes, And(covered, independent))


def perfect_matching_formula() -> Formula:
    """A spanning edge set in which every vertex has exactly one incident edge."""
    F = EdgeSetVar("F")
    v = VertexVar("_v")
    e, e1, e2 = EdgeVar("_e"), EdgeVar("_e1"), EdgeVar("_e2")
    has_one = Exists(e, And(In(e, F), Inc(e, v)))
    at_most_one = forall_many(
        [e1, e2],
        Implies(
            And(And(In(e1, F), In(e2, F)), And(Inc(e1, v), Inc(e2, v))),
            Eq(e1, e2),
        ),
    )
    return Exists(F, ForAll(v, And(has_one, at_most_one)))


def hamiltonian_cycle_formula() -> Formula:
    """A connected spanning 2-regular edge subset exists.

    Expressed as: there is an edge set F such that (a) every vertex has
    exactly two incident F-edges and (b) the spanning subgraph (V, F) is
    connected (every proper non-empty vertex cut is crossed by an F-edge).
    """
    F = EdgeSetVar("F")
    v = VertexVar("_v")
    S = VertexSetVar("_S")
    e1, e2, e3 = EdgeVar("_e1"), EdgeVar("_e2"), EdgeVar("_e3")
    x, y = VertexVar("_x"), VertexVar("_y")
    u1, u2 = VertexVar("_u1"), VertexVar("_u2")

    two_distinct = exists_many(
        [e1, e2],
        And(
            And(And(In(e1, F), In(e2, F)), Not(Eq(e1, e2))),
            And(Inc(e1, v), Inc(e2, v)),
        ),
    )
    at_most_two = forall_many(
        [e1, e2, e3],
        Implies(
            _and_many(
                [
                    In(e1, F),
                    In(e2, F),
                    In(e3, F),
                    Inc(e1, v),
                    Inc(e2, v),
                    Inc(e3, v),
                ]
            ),
            _or_many([Eq(e1, e2), Eq(e1, e3), Eq(e2, e3)]),
        ),
    )
    degree_two = ForAll(v, And(two_distinct, at_most_two))

    nontrivial = And(Exists(x, In(x, S)), Exists(y, Not(In(y, S))))
    f_crossing = exists_many(
        [e1, u1, u2],
        _and_many(
            [
                In(e1, F),
                Inc(e1, u1),
                Inc(e1, u2),
                In(u1, S),
                Not(In(u2, S)),
            ]
        ),
    )
    connected = ForAll(S, Implies(nontrivial, f_crossing))
    return Exists(F, And(degree_two, connected))


def vertex_cover_formula(c: int) -> Formula:
    """``c`` vertices covering every edge (vertex cover of size <= c)."""
    covers = [VertexVar(f"x{i}") for i in range(c)]
    e = EdgeVar("_e")
    if c == 0:
        return ForAll(e, Not(Eq(e, e)))  # no edges at all
    covered = ForAll(e, _or_many([Inc(e, x) for x in covers]))
    return exists_many(covers, covered)


def independent_set_formula(c: int) -> Formula:
    """``c`` pairwise distinct, pairwise non-adjacent vertices exist."""
    chosen = [VertexVar(f"x{i}") for i in range(c)]
    if c == 0:
        v = VertexVar("_v")
        return ForAll(v, Eq(v, v))  # trivially true
    constraints = []
    for a, b in itertools.combinations(chosen, 2):
        constraints.append(Not(Eq(a, b)))
        constraints.append(Not(Adj(a, b)))
    return exists_many(chosen, _and_many(constraints) if constraints else Eq(chosen[0], chosen[0]))


def dominating_set_formula(c: int) -> Formula:
    """``c`` vertices dominating every vertex (closed neighborhoods)."""
    chosen = [VertexVar(f"x{i}") for i in range(c)]
    v = VertexVar("_v")
    if c == 0:
        return ForAll(v, Not(Eq(v, v)))  # only the empty graph
    dominated = ForAll(
        v, _or_many([Or(Eq(v, x), Adj(v, x)) for x in chosen])
    )
    return exists_many(chosen, dominated)


def max_degree_formula(delta: int) -> Formula:
    """Maximum degree <= delta (no delta+1 distinct neighbors)."""
    v = VertexVar("_v")
    nbrs = [VertexVar(f"w{i}") for i in range(delta + 1)]
    all_adjacent = _and_many([Adj(v, w) for w in nbrs])
    all_distinct = _and_many(
        [Not(Eq(a, b)) for a, b in itertools.combinations(nbrs, 2)]
    )
    too_many = exists_many(nbrs, And(all_adjacent, all_distinct))
    return ForAll(v, Not(too_many))


def triangle_free_formula() -> Formula:
    """No three pairwise adjacent vertices."""
    u, v, w = VertexVar("_u"), VertexVar("_v"), VertexVar("_w")
    triangle = exists_many(
        [u, v, w], _and_many([Adj(u, v), Adj(v, w), Adj(u, w)])
    )
    return Not(triangle)


def _and_many(formulas: list) -> Formula:
    result = formulas[0]
    for f in formulas[1:]:
        result = And(result, f)
    return result


def _or_many(formulas: list) -> Formula:
    result = formulas[0]
    for f in formulas[1:]:
        result = Or(result, f)
    return result


# ----------------------------------------------------------------------
# Direct checkers (independent ground truth)
# ----------------------------------------------------------------------
def is_bipartite(graph: Graph) -> bool:
    """2-colorability by BFS."""
    color: dict = {}
    for start in graph.vertices():
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in graph.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def is_q_colorable(graph: Graph, q: int) -> bool:
    """Backtracking q-coloring (exponential; ground truth for small graphs)."""
    if q >= graph.n:
        return True
    order = sorted(graph.vertices(), key=graph.degree, reverse=True)
    color: dict = {}

    def assign(index: int) -> bool:
        if index == len(order):
            return True
        v = order[index]
        used = {color[u] for u in graph.neighbors(v) if u in color}
        for c in range(q):
            if c in used:
                continue
            color[v] = c
            if assign(index + 1):
                return True
            del color[v]
            if c not in used and all(c2 in used for c2 in range(c)):
                # First fresh color failed: any other fresh color is
                # symmetric, so prune.
                break
        return False

    return assign(0)


def has_hamiltonian_path(graph: Graph) -> bool:
    """Backtracking Hamiltonian path search."""
    n = graph.n
    if n == 0:
        return False
    if n == 1:
        return True

    def extend(v, visited: set) -> bool:
        if len(visited) == n:
            return True
        return any(
            extend(w, visited | {w})
            for w in sorted(graph.neighbors(v))
            if w not in visited
        )

    return any(extend(v, {v}) for v in graph.vertices())


def has_hamiltonian_cycle(graph: Graph) -> bool:
    """Backtracking Hamiltonian cycle search."""
    n = graph.n
    if n < 3:
        return False
    start = graph.vertices()[0]

    def extend(v, visited: set) -> bool:
        if len(visited) == n:
            return graph.has_edge(v, start)
        return any(
            extend(w, visited | {w})
            for w in sorted(graph.neighbors(v))
            if w not in visited
        )

    return extend(start, {start})


def has_perfect_matching(graph: Graph) -> bool:
    """Backtracking perfect matching search (exact, small graphs)."""
    if graph.n % 2 != 0:
        return False
    unmatched = set(graph.vertices())

    def match() -> bool:
        if not unmatched:
            return True
        v = min(unmatched)
        unmatched.discard(v)
        for w in sorted(graph.neighbors(v)):
            if w in unmatched:
                unmatched.discard(w)
                if match():
                    unmatched.add(w)
                    unmatched.add(v)
                    return True
                unmatched.add(w)
        unmatched.add(v)
        return False

    return match()


def has_vertex_cover_at_most(graph: Graph, c: int) -> bool:
    """Classic FPT branching on an uncovered edge."""

    def solve(edges: list, budget: int) -> bool:
        edges = [e for e in edges]
        if not edges:
            return True
        if budget == 0:
            return False
        u, v = edges[0]
        rest_u = [e for e in edges if u not in e]
        if solve(rest_u, budget - 1):
            return True
        rest_v = [e for e in edges if v not in e]
        return solve(rest_v, budget - 1)

    return solve(graph.edges(), c)


def has_independent_set_at_least(graph: Graph, c: int) -> bool:
    """IS >= c iff VC <= n - c (complement duality)."""
    if c <= 0:
        return True
    if c > graph.n:
        return False
    return has_vertex_cover_at_most(graph, graph.n - c)


def has_dominating_set_at_most(graph: Graph, c: int) -> bool:
    """Exact search over candidate dominating sets (small graphs)."""
    vertices = graph.vertices()
    if c >= len(vertices):
        return True
    closed: dict = {
        v: frozenset(graph.neighbors(v)) | {v} for v in vertices
    }
    for size in range(min(c, len(vertices)) + 1):
        for combo in itertools.combinations(vertices, size):
            covered: set = set()
            for v in combo:
                covered |= closed[v]
            if len(covered) == len(vertices):
                return True
    return False


def is_triangle_free(graph: Graph) -> bool:
    """No K3 subgraph."""
    for u, v in graph.edges():
        if graph.neighbors(u) & graph.neighbors(v):
            return False
    return True


def is_caterpillar_forest(graph: Graph) -> bool:
    """Every component is a caterpillar — exactly pathwidth <= 1.

    A connected graph is a caterpillar iff it is a tree whose non-leaf
    vertices induce a path.
    """
    if not graph.is_forest():
        return False
    for component in graph.connected_components():
        sub = graph.induced_subgraph(component)
        spine = [v for v in sub.vertices() if sub.degree(v) >= 2]
        if not spine:
            continue
        spine_graph = sub.induced_subgraph(spine)
        if not (spine_graph.is_path_graph() or spine_graph.n == 0):
            return False
    return True


# ----------------------------------------------------------------------
# The zoo
# ----------------------------------------------------------------------
def _property_list() -> list:
    props = [
        GraphProperty(
            name="connected",
            description="the graph is connected",
            check=Graph.is_connected,
            formula=connectivity_formula(),
            algebra_key="connected",
        ),
        GraphProperty(
            name="acyclic",
            description="the graph is a forest",
            check=Graph.is_forest,
            formula=acyclicity_formula(),
            algebra_key="acyclic",
        ),
        GraphProperty(
            name="tree",
            description="connected and acyclic",
            check=lambda g: g.is_tree(),
            formula=And(connectivity_formula(), acyclicity_formula()),
            algebra_key="tree",
        ),
        GraphProperty(
            name="bipartite",
            description="2-colorable",
            check=is_bipartite,
            formula=colorability_formula(2),
            algebra_key="bipartite",
        ),
        GraphProperty(
            name="3-colorable",
            description="3-colorable",
            check=lambda g: is_q_colorable(g, 3),
            formula=colorability_formula(3),
            algebra_key="colorable-3",
        ),
        GraphProperty(
            name="hamiltonian-path",
            description="a Hamiltonian path exists",
            check=has_hamiltonian_path,
            formula=None,  # statable but gigantic; cycle version provided
            algebra_key="hamiltonian-path",
        ),
        GraphProperty(
            name="hamiltonian-cycle",
            description="a Hamiltonian cycle exists",
            check=has_hamiltonian_cycle,
            formula=hamiltonian_cycle_formula(),
            algebra_key="hamiltonian-cycle",
        ),
        GraphProperty(
            name="perfect-matching",
            description="a perfect matching exists",
            check=has_perfect_matching,
            formula=perfect_matching_formula(),
            algebra_key="perfect-matching",
        ),
        GraphProperty(
            name="triangle-free",
            description="no K3 subgraph",
            check=is_triangle_free,
            formula=triangle_free_formula(),
            algebra_key="triangle-free",
        ),
        GraphProperty(
            name="even-order",
            description="|V| is even (counting-MSO extension)",
            check=lambda g: g.n % 2 == 0,
            formula=None,
            algebra_key="even-order",
            cmso=True,
        ),
        GraphProperty(
            name="caterpillar-forest",
            description="pathwidth <= 1 (minor obstructions K3 and S(2,2,2))",
            check=is_caterpillar_forest,
            formula=None,  # obstruction formula omitted; checker is exact
            algebra_key="caterpillar",
        ),
    ]
    for c in (1, 2, 3):
        props.append(
            GraphProperty(
                name=f"vertex-cover<={c}",
                description=f"a vertex cover of size at most {c} exists",
                check=lambda g, c=c: has_vertex_cover_at_most(g, c),
                formula=vertex_cover_formula(c),
                algebra_key=f"vertex-cover-{c}",
            )
        )
        props.append(
            GraphProperty(
                name=f"independent-set>={c}",
                description=f"an independent set of size at least {c} exists",
                check=lambda g, c=c: has_independent_set_at_least(g, c),
                formula=independent_set_formula(c),
                algebra_key=f"independent-set-{c}",
            )
        )
        props.append(
            GraphProperty(
                name=f"dominating-set<={c}",
                description=f"a dominating set of size at most {c} exists",
                check=lambda g, c=c: has_dominating_set_at_most(g, c),
                formula=dominating_set_formula(c),
                algebra_key=f"dominating-set-{c}",
            )
        )
    for delta in (2, 3):
        props.append(
            GraphProperty(
                name=f"max-degree<={delta}",
                description=f"maximum degree at most {delta}",
                check=lambda g, d=delta: g.max_degree() <= d,
                formula=max_degree_formula(delta),
                algebra_key=f"max-degree-{delta}",
            )
        )
    return props


PROPERTY_ZOO: dict = {prop.name: prop for prop in _property_list()}
