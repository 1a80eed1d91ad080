"""Edit batches: the unit of change for evolving graphs.

Local certification was born in self-stabilization, where deployments
see *streams of edits* — an edge flips, a mark changes — rather than
fresh graphs.  An :class:`EditBatch` is the declarative record of one
such change set: a sequence of :class:`Edit` operations (edge add or
remove, vertex- or edge-label assignment) that :func:`apply_edits`
replays onto a copy of a base graph.

Batches are strict by design.  Re-adding a present edge, removing an
absent one, or touching an unknown vertex raises :class:`EditError`
instead of silently degenerating — an adversarially replayed or
misordered edit stream must surface as an error, not as a certified
report over a graph nobody asked for.  (`Graph.add_edge` itself treats
re-adds as no-ops; the strictness lives here, at the batch layer, where
intent is explicit.)

The classification helpers are what the incremental layer keys on:

* :meth:`EditBatch.structural` — edits that change ``(V, E)`` and hence
  the CSR snapshot, the decomposition, and every downstream artifact;
* :meth:`EditBatch.relabels_edges` — edge-label edits, which reach the
  certificates through the construction sequence's tags;
* vertex-label edits, which never enter any pipeline stage and leave
  the certification bit-for-bit intact (see
  ``Graph.fingerprint("edges")``).

Batches have a canonical wire form (:meth:`EditBatch.to_wire` /
:meth:`EditBatch.from_wire`) so the service's ``update`` op can ship an
edit stream instead of a whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Tuple

from repro.graphs.graph import Graph

#: The edit vocabulary, in wire order.
EDIT_KINDS = (
    "add_edge",
    "remove_edge",
    "set_vertex_label",
    "set_edge_label",
)

_STRUCTURAL = frozenset(("add_edge", "remove_edge"))


class EditError(ValueError):
    """Raised when an edit cannot be applied to the base graph."""


@dataclass(frozen=True)
class Edit:
    """One atomic change.

    ``kind`` is one of :data:`EDIT_KINDS`.  Edge edits carry both
    endpoints; ``set_vertex_label`` carries the vertex in ``u`` and the
    new label; ``set_edge_label`` carries endpoints and the new label.
    """

    kind: str
    u: Any
    v: Any = None
    label: Any = None

    def __post_init__(self):
        if self.kind not in EDIT_KINDS:
            raise EditError(f"unknown edit kind {self.kind!r}")
        if self.kind != "set_vertex_label" and self.v is None:
            raise EditError(f"{self.kind} needs both endpoints")

    @property
    def structural(self) -> bool:
        """Whether this edit changes the vertex/edge set."""
        return self.kind in _STRUCTURAL

    def touched(self) -> Tuple:
        """The vertices whose local neighborhood this edit dirties."""
        if self.kind == "set_vertex_label":
            return (self.u,)
        return (self.u, self.v)

    def to_wire(self) -> list:
        """Canonical JSON-friendly form (labels must be JSON values)."""
        if self.kind == "set_vertex_label":
            return [self.kind, self.u, self.label]
        if self.kind == "set_edge_label":
            return [self.kind, self.u, self.v, self.label]
        if self.kind == "add_edge" and self.label is not None:
            return [self.kind, self.u, self.v, self.label]
        return [self.kind, self.u, self.v]

    @classmethod
    def from_wire(cls, data) -> "Edit":
        if not isinstance(data, (list, tuple)) or not data:
            raise EditError(f"malformed wire edit {data!r}")
        kind = data[0]
        if kind == "set_vertex_label":
            if len(data) != 3:
                raise EditError(f"malformed {kind} edit {data!r}")
            return cls(kind, data[1], label=data[2])
        if kind == "set_edge_label":
            if len(data) != 4:
                raise EditError(f"malformed {kind} edit {data!r}")
            return cls(kind, data[1], data[2], label=data[3])
        if kind == "add_edge" and len(data) == 4:
            return cls(kind, data[1], data[2], label=data[3])
        if len(data) != 3:
            raise EditError(f"malformed {kind!r} edit {data!r}")
        return cls(kind, data[1], data[2])


def add_edge(u, v, label=None) -> Edit:
    """Shorthand constructor: add edge ``{u, v}`` (optionally labeled)."""
    return Edit("add_edge", u, v, label=label)


def remove_edge(u, v) -> Edit:
    """Shorthand constructor: remove edge ``{u, v}``."""
    return Edit("remove_edge", u, v)


def set_vertex_label(v, label) -> Edit:
    """Shorthand constructor: assign ``label`` to vertex ``v``."""
    return Edit("set_vertex_label", v, label=label)


def set_edge_label(u, v, label) -> Edit:
    """Shorthand constructor: assign ``label`` to edge ``{u, v}``."""
    return Edit("set_edge_label", u, v, label=label)


@dataclass(frozen=True)
class EditBatch:
    """An ordered sequence of edits applied atomically.

    Order matters (an edge may be added and then labeled in the same
    batch); application is all-or-nothing — :func:`apply_edits` works
    on a copy and raises before the base graph is ever touched.
    """

    edits: Tuple[Edit, ...]

    def __init__(self, edits: Iterable[Edit]):
        object.__setattr__(self, "edits", tuple(edits))
        for edit in self.edits:
            if not isinstance(edit, Edit):
                raise EditError(f"not an Edit: {edit!r}")

    def __len__(self) -> int:
        return len(self.edits)

    def __iter__(self):
        return iter(self.edits)

    def __bool__(self) -> bool:
        return bool(self.edits)

    # -- classification ------------------------------------------------
    def structural(self) -> Tuple[Edit, ...]:
        """The edits that change the vertex/edge set."""
        return tuple(e for e in self.edits if e.structural)

    def relabels_edges(self) -> bool:
        """Whether any edit assigns an edge label (certificates change)."""
        return any(
            e.kind == "set_edge_label"
            or (e.kind == "add_edge" and e.label is not None)
            for e in self.edits
        )

    def vertex_labels_only(self) -> bool:
        """Whether the whole batch is vertex relabeling.

        Such a batch leaves the certification identity
        (``Graph.fingerprint("edges")``) — and hence every plan-DAG
        artifact and the encoded labeling — untouched.
        """
        return bool(self.edits) and all(
            e.kind == "set_vertex_label" for e in self.edits
        )

    def touched_vertices(self) -> set:
        """All vertices whose neighborhoods the batch dirties."""
        out: set = set()
        for edit in self.edits:
            out.update(edit.touched())
        return out

    # -- wire form -----------------------------------------------------
    def to_wire(self) -> list:
        return [edit.to_wire() for edit in self.edits]

    @classmethod
    def from_wire(cls, data) -> "EditBatch":
        if not isinstance(data, list):
            raise EditError(f"malformed wire batch {data!r}")
        return cls(Edit.from_wire(item) for item in data)


def apply_edits(
    graph: Graph, batch: EditBatch, inplace: bool = False
) -> Graph:
    """Replay ``batch`` onto ``graph`` (a copy unless ``inplace``).

    Strict semantics — every edit must be *meaningful* against the
    state it meets: endpoints of a new edge must exist, the edge must
    not (``add_edge``) or must (``remove_edge``, ``set_edge_label``)
    be present.  On any violation :class:`EditError` is raised and,
    in the default copying mode, the base graph is left untouched.
    """
    target = graph if inplace else graph.copy()
    for index, edit in enumerate(batch):
        try:
            _apply_one(target, edit)
        except EditError as exc:
            raise EditError(f"edit #{index} {edit.to_wire()!r}: {exc}") from None
    return target


def _apply_one(graph: Graph, edit: Edit) -> None:
    kind = edit.kind
    if kind == "add_edge":
        if edit.u not in graph or edit.v not in graph:
            raise EditError("endpoint not in graph")
        if graph.has_edge(edit.u, edit.v):
            raise EditError("edge already present")
        if edit.u == edit.v:
            raise EditError("self-loops are not allowed")
        graph.add_edge(edit.u, edit.v)
        if edit.label is not None:
            graph.set_edge_label(edit.u, edit.v, edit.label)
    elif kind == "remove_edge":
        if not graph.has_edge(edit.u, edit.v):
            raise EditError("edge not in graph")
        graph.remove_edge(edit.u, edit.v)
    elif kind == "set_vertex_label":
        if edit.u not in graph:
            raise EditError("vertex not in graph")
        graph.set_vertex_label(edit.u, edit.label)
    elif kind == "set_edge_label":
        if not graph.has_edge(edit.u, edit.v):
            raise EditError("edge not in graph")
        graph.set_edge_label(edit.u, edit.v, edit.label)
    else:  # pragma: no cover - guarded by Edit.__post_init__
        raise EditError(f"unknown edit kind {kind!r}")
