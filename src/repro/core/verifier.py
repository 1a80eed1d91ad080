"""The strictly-local Theorem 1 verifier (Lemmas 6.4/6.5 checks).

A vertex sees its identifier, its input state, and the labels of its
incident *real* edges.  From those it

1. reconstructs its virtual ports from the embedded records (the
   ID/rank/path-consistency checks of Section 6.2's "certifying the
   embedding");
2. walks the certificate stacks level by level: at every hierarchy node
   claimed to contain it, it re-derives leaf homomorphism classes from
   scratch (E/P records carry their full constant-size topology) and
   re-applies the composition functions ``f_B``/``f_P`` of
   Proposition 6.1 to check every internal class, verifies terminal
   gluings through identifiers, runs the Proposition 2.2 pointer check
   inside every T-node, and enforces the no-neighbor-outside conditions;
3. accepts iff the root class satisfies the property.

Everything here receives only a :class:`LocalView`; the simulator keeps
the locality boundary honest.

Performance note: the re-derivations of Lemmas 6.4/6.5 — leaf classes,
``f_B`` bridge recompositions, ``f_P`` member folds — are *pure
functions of label content*: every vertex holding edges of the same
hierarchy node replays exactly the same algebra computation on exactly
the same records.  They are therefore memoized per algebra, keyed by the
full record content (success and ``_Reject`` outcomes alike), which
keeps verdicts identical by construction — a vertex learns nothing it
did not already hold in its own view, the locality boundary is
untouched, and adversarial records that fail to hash simply bypass the
cache.  Below this memo, each algebra operation is itself a lookup in
the algebra's transition table (:mod:`repro.courcelle.algebra`); the
memo still pays for the boundary bookkeeping around those calls:
without it, serial rounds on ``pathwidth_workload(256, 3, s)`` hosts
took about 18% longer (2-core box).
Prover labels share their ``BasicInfo`` objects, so the content keys
of one hierarchy node usually compare by identity.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from repro.core.certificates import (
    BasicInfo,
    BLevelRecord,
    EdgeCertificate,
    ELevelRecord,
    PLevelRecord,
    Theorem1Label,
    TLevelRecord,
)
from repro.courcelle.boundary import REAL, VIRTUAL
from repro.pls.model import LocalView
from repro.pls.pointer import verify_pointer_ports


class _Reject(Exception):
    """Internal control flow: any failed check rejects."""


def _require(condition: bool, reason: str = "") -> None:
    if not condition:
        raise _Reject(reason)


# ----------------------------------------------------------------------
# Content-keyed memoization of the pure record re-derivations
# ----------------------------------------------------------------------
#: algebra -> {content key -> (True, value) | (False, reject reason)}.
#: Weakly keyed so dropping an algebra drops its cache; bounded so
#: long audit campaigns over thousands of configurations cannot grow it
#: without limit.
_RECOMPUTE_CACHES: WeakKeyDictionary = WeakKeyDictionary()
_CACHE_LIMIT = 1 << 16


def _cached_recompute(algebra, key, compute):
    """Memoize ``compute()`` under ``key`` in the algebra's cache.

    Both successful values and ``_Reject`` outcomes are cached (the
    functions are deterministic in their record inputs, rejections
    included).  Unhashable inputs — adversarial labels can smuggle
    arbitrary objects into record fields — and non-weakrefable algebras
    fall back to direct computation; any exception other than
    ``_Reject`` is never cached and propagates to the caller's
    malformed-label handling.
    """
    try:
        cache = _RECOMPUTE_CACHES.get(algebra)
        if cache is None:
            cache = {}
            _RECOMPUTE_CACHES[algebra] = cache
    except TypeError:
        return compute()
    try:
        hit = cache.get(key)
    except TypeError:
        return compute()
    if hit is not None:
        ok, value = hit
        if ok:
            return value
        raise _Reject(value)
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()
    try:
        value = compute()
    except _Reject as exc:
        cache[key] = (False, str(exc))
        raise
    cache[key] = (True, value)
    return value


# ----------------------------------------------------------------------
# Recomputation of homomorphism classes from label data (IDs as names)
# ----------------------------------------------------------------------
def _canonical_ids(lanes, in_map: dict, out_map: dict) -> tuple:
    ids = []
    for lane in sorted(lanes):
        for x in (in_map[lane], out_map[lane]):
            if x not in ids:
                ids.append(x)
    return tuple(ids)


def _leaf_state(algebra, record):
    if isinstance(record, ELevelRecord):
        state = algebra.new_vertices(2)
        return algebra.add_edge(state, 0, 1, record.tag)
    if isinstance(record, PLevelRecord):
        state = algebra.new_vertices(len(record.vertex_ids))
        for index, tag in enumerate(record.tags):
            state = algebra.add_edge(state, index, index + 1, tag)
        return state
    raise TypeError("not a leaf record")


def recompute_leaf_state(algebra, record):
    """Recompute an E- or P-leaf's class from its explicit topology."""
    if not isinstance(record, (ELevelRecord, PLevelRecord)):
        raise TypeError("not a leaf record")
    return _cached_recompute(
        algebra, ("leaf", record), lambda: _leaf_state(algebra, record)
    )


def _bridge(algebra, left: BasicInfo, right: BasicInfo, i: int, j: int, tag):
    b1, b2 = left.boundary_ids, right.boundary_ids
    _require(not set(b1) & set(b2), "bridge children share terminals")
    state = algebra.join(left.state, len(b1), right.state, len(b2), ())
    boundary = b1 + b2
    _require(left.out_id(i) is not None and right.out_id(j) is not None,
             "bridge lanes missing")
    a = boundary.index(left.out_id(i))
    b = boundary.index(right.out_id(j))
    state = algebra.add_edge(state, a, b, tag)
    lanes = sorted(set(left.lanes) | set(right.lanes))
    in_map = {l: (left.in_id(l) if left.in_id(l) is not None else right.in_id(l)) for l in lanes}
    out_map = {l: (left.out_id(l) if left.out_id(l) is not None else right.out_id(l)) for l in lanes}
    target = _canonical_ids(lanes, in_map, out_map)
    keep = tuple(boundary.index(x) for x in target)
    if keep != tuple(range(len(boundary))):
        state = algebra.forget(state, len(boundary), keep)
    return (
        state,
        target,
        tuple(sorted(in_map.items())),
        tuple(sorted(out_map.items())),
    )


def recompute_bridge(algebra, left: BasicInfo, right: BasicInfo, i: int, j: int, tag):
    """Re-apply f_B: join two children, add the bridge edge, reorder.

    Returns ``(state, boundary, in_ids, out_ids)`` with the terminal
    maps as lane-sorted tuples — directly comparable to
    ``BasicInfo.in_ids``/``out_ids``.
    """
    return _cached_recompute(
        algebra,
        ("bridge", left, right, i, j, tag),
        lambda: _bridge(algebra, left, right, i, j, tag),
    )


def _parent_fold(algebra, member: BasicInfo, child_subtrees: tuple):
    state = member.state
    boundary = member.boundary_ids
    in_map = {l: member.in_id(l) for l in member.lanes}
    out_map = {l: member.out_id(l) for l in member.lanes}
    for child in child_subtrees:
        _require(set(child.lanes) <= set(member.lanes), "child lanes exceed member")
        identify = []
        glued_ids = set()
        for lane in child.lanes:
            glue_id = child.in_id(lane)
            _require(glue_id == out_map[lane], f"gluing mismatch on lane {lane}")
            identify.append(
                (boundary.index(out_map[lane]), child.boundary_ids.index(glue_id))
            )
            glued_ids.add(glue_id)
        state = algebra.join(
            state, len(boundary), child.state, len(child.boundary_ids), tuple(identify)
        )
        boundary = boundary + tuple(
            x for x in child.boundary_ids if x not in glued_ids
        )
        for lane in child.lanes:
            out_map[lane] = child.out_id(lane)
        target = _canonical_ids(member.lanes, in_map, out_map)
        keep = tuple(boundary.index(x) for x in target)
        if keep != tuple(range(len(boundary))):
            state = algebra.forget(state, len(boundary), keep)
        boundary = target
    return (
        state,
        boundary,
        tuple(sorted(in_map.items())),
        tuple(sorted(out_map.items())),
    )


def recompute_parent_fold(algebra, member: BasicInfo, child_subtrees: tuple):
    """Re-apply the f_P fold: glue every child subtree onto the member.

    Returns ``(state, boundary, in_ids, out_ids)`` with the terminal
    maps as lane-sorted tuples — directly comparable to
    ``BasicInfo.in_ids``/``out_ids``.
    """
    return _cached_recompute(
        algebra,
        ("fold", member, child_subtrees),
        lambda: _parent_fold(algebra, member, child_subtrees),
    )


# ----------------------------------------------------------------------
# Virtual-port reconstruction (the embedding checks)
# ----------------------------------------------------------------------
def _reconstruct_ports(view: LocalView) -> list:
    """Return the G' ports of this vertex: (tag, EdgeCertificate)."""
    ports = []
    groups: dict = {}
    for port in view.ports:
        label = port.certificate
        _require(isinstance(label, Theorem1Label), "malformed physical label")
        _require(
            isinstance(label.certificate, EdgeCertificate), "missing certificate"
        )
        ports.append((REAL, label.certificate))
        for record in label.embedded:
            key = (record.u_id, record.v_id, record.payload)
            groups.setdefault(key, []).append((record.forward, record.backward))
    for (u_id, v_id, payload), hits in groups.items():
        totals = {f + b for f, b in hits}
        _require(len(totals) == 1, "inconsistent path length")
        total = totals.pop()
        _require(all(1 <= f <= total - 1 for f, _b in hits), "rank out of range")
        if view.identifier == u_id:
            _require(len(hits) == 1 and hits[0][0] == 1, "bad path start")
            ports.append((VIRTUAL, payload))
        elif view.identifier == v_id:
            _require(len(hits) == 1 and hits[0][1] == 1, "bad path end")
            ports.append((VIRTUAL, payload))
        else:
            _require(len(hits) == 2, "intermediate vertex needs two path edges")
            (f1, _), (f2, _) = hits
            _require(abs(f1 - f2) == 1, "path ranks not consecutive")
    return ports


# ----------------------------------------------------------------------
# The hierarchy walk
# ----------------------------------------------------------------------
def _check_level(view, algebra, ports, depth, t_in_context) -> None:
    """Verify one node's claims at this vertex; recurse into sub-levels.

    ``ports``: (tag, cert) pairs whose stacks agree above ``depth`` and
    whose records at ``depth`` name the same node.  ``t_in_context`` is
    the set of (lane, id) in-terminal claims of the enclosing T-node
    (used by the anchored-member rule), or ``None`` at the root.
    """
    records = [cert.stack[depth] for _tag, cert in ports]
    first = records[0]
    if isinstance(first, TLevelRecord):
        _require(
            all(
                isinstance(r, TLevelRecord)
                and r.info == first.info
                and r.root_member_id == first.root_member_id
                for r in records
            ),
            "inconsistent T-node records",
        )
        _require(
            verify_pointer_ports(view.identifier, [r.pointer for r in records]),
            "pointer check failed",
        )
        # Group by member.
        member_groups: dict = {}
        for port, record in zip(ports, records):
            member_groups.setdefault(record.member_info.node_id, []).append(
                (port, record)
            )
        subtree_by_member = {}
        for member_id, entries in member_groups.items():
            base = entries[0][1]
            _require(
                all(
                    r.member_info == base.member_info
                    and r.member_subtree == base.member_subtree
                    and r.child_subtrees == base.child_subtrees
                    for _p, r in entries
                ),
                "inconsistent member records",
            )
            subtree_by_member[member_id] = base
            # f_P fold recomputation (memoized: pure in the records).
            state, _boundary, in_ids, out_ids = recompute_parent_fold(
                algebra, base.member_info, base.child_subtrees
            )
            _require(state == base.member_subtree.state, "member fold class mismatch")
            _require(
                in_ids == base.member_subtree.in_ids,
                "member fold in-terminals mismatch",
            )
            _require(
                out_ids == base.member_subtree.out_ids,
                "member fold out-terminals mismatch",
            )
        # Out-terminal materialization (the paper's "each out-terminal of
        # G' can locally check if it is the right in-terminal of the right
        # graph Tree-merge(T_{G_i})"): if a member record claims a child
        # subtree glued at this vertex, edges of that subtree's root member
        # must actually be incident here.
        me = view.identifier
        for member_id, entries in member_groups.items():
            base = entries[0][1]
            for claimed in base.child_subtrees:
                if me not in {x for _l, x in claimed.in_ids}:
                    continue
                _require(
                    any(
                        other[0][1].member_subtree == claimed
                        for other_id, other in member_groups.items()
                        if other_id != member_id
                    ),
                    "claimed child subtree has no edges at its glue vertex",
                )
        # Anchored-member chain rule.
        non_anchored = 0
        for member_id, entries in member_groups.items():
            base = entries[0][1]
            anchored_lanes = [
                lane for lane, x in base.member_subtree.in_ids if x == me
            ]
            if not anchored_lanes:
                non_anchored += 1
                continue
            for lane in anchored_lanes:
                has_parent = any(
                    base.member_subtree in other[0][1].child_subtrees
                    for other_id, other in member_groups.items()
                    if other_id != member_id
                )
                is_t_in = (lane, me) in first.info.in_ids
                _require(has_parent or is_t_in, "dangling member gluing")
        _require(non_anchored <= 1, "vertex interior to two members")
        # The T-node's own basic info must match its root member's subtree
        # (checkable whenever this vertex holds root-member edges).
        for member_id, entries in member_groups.items():
            base = entries[0][1]
            if base.member_info.node_id == first.root_member_id:
                _require(
                    base.member_subtree.state == first.info.state
                    and base.member_subtree.in_ids == first.info.in_ids
                    and base.member_subtree.out_ids == first.info.out_ids
                    and base.member_subtree.lanes == first.info.lanes,
                    "T-node info does not match root member subtree",
                )
        # Recurse into each member.
        for member_id, entries in member_groups.items():
            base = entries[0][1]
            sub_ports = [p for p, _r in entries]
            for _tag, cert in sub_ports:
                _require(len(cert.stack) > depth + 1, "truncated stack in member")
                _require(
                    cert.stack[depth + 1].info == base.member_info,
                    "stack does not continue into its member",
                )
            _check_level(
                view, algebra, sub_ports, depth + 1, set(first.info.in_ids)
            )
        return

    if isinstance(first, BLevelRecord):
        _require(
            all(
                isinstance(r, BLevelRecord)
                and r.info == first.info
                and r.left == first.left
                and r.right == first.right
                and r.bridge == first.bridge
                and r.bridge_tag == first.bridge_tag
                for r in records
            ),
            "inconsistent B-node records",
        )
        i, j = first.bridge
        state, _boundary, in_ids, out_ids = recompute_bridge(
            algebra, first.left, first.right, i, j, first.bridge_tag
        )
        _require(state == first.info.state, "bridge class mismatch")
        _require(
            in_ids == first.info.in_ids and out_ids == first.info.out_ids,
            "bridge terminals mismatch",
        )
        for child in (first.left, first.right):
            if child.kind == "V":
                _require(
                    child.in_ids == child.out_ids and len(child.lanes) == 1,
                    "malformed V-node info",
                )
                _require(
                    child.state == algebra.new_vertices(1), "V-node class mismatch"
                )
        sides: dict = {}
        for port, record in zip(ports, records):
            _require(record.side in (-1, 0, 1), "invalid bridge side marker")
            sides.setdefault(record.side, []).append((port, record))
        _require(not (0 in sides and 1 in sides), "vertex on both bridge sides")
        me = view.identifier
        if me in (first.left.out_id(i), first.right.out_id(j)):
            # A bridge endpoint must actually hold the bridge edge
            # ("the unique edge between G1 and G2", Lemma 6.5).
            _require(-1 in sides, "bridge endpoint missing the bridge edge")
        if -1 in sides:
            _require(len(sides[-1]) == 1, "duplicated bridge edge")
            (tag, cert), record = sides[-1][0]
            _require(len(cert.stack) == depth + 1, "bridge edge stack too deep")
            _require(tag == first.bridge_tag, "bridge tag mismatch")
            endpoints = {first.left.out_id(i), first.right.out_id(j)}
            _require(me in endpoints, "bridge endpoint id mismatch")
        for side, child in ((0, first.left), (1, first.right)):
            if side not in sides:
                continue
            _require(child.kind == "T", "edges inside an edgeless child")
            sub_ports = [p for p, _r in sides[side]]
            for _tag, cert in sub_ports:
                _require(len(cert.stack) > depth + 1, "truncated stack in B child")
                _require(
                    isinstance(cert.stack[depth + 1], TLevelRecord)
                    and cert.stack[depth + 1].info == child,
                    "stack does not continue into bridge child",
                )
            _check_level(view, algebra, sub_ports, depth + 1, None)
        return

    if isinstance(first, ELevelRecord):
        _require(len(ports) == 1, "E-node with several incident edges")
        tag, cert = ports[0]
        _require(len(cert.stack) == depth + 1, "E-node is a leaf")
        _require(tag == first.tag, "E-node tag mismatch")
        me = view.identifier
        _require(me in (first.in_id, first.out_id), "E-node endpoint mismatch")
        _require(first.in_id != first.out_id, "degenerate E-node")
        lane = first.info.lanes[0]
        _require(len(first.info.lanes) == 1, "E-node with several lanes")
        _require(
            first.info.in_ids == ((lane, first.in_id),)
            and first.info.out_ids == ((lane, first.out_id),),
            "E-node terminal mismatch",
        )
        return

    if isinstance(first, PLevelRecord):
        base = first
        _require(
            all(
                isinstance(r, PLevelRecord)
                and r.info == base.info
                and r.vertex_ids == base.vertex_ids
                and r.tags == base.tags
                for r in records
            ),
            "inconsistent P-node records",
        )
        ids = base.vertex_ids
        _require(len(ids) == len(set(ids)), "P-node repeats a vertex")
        _require(len(base.tags) == len(ids) - 1, "P-node tag count")
        me = view.identifier
        _require(me in ids, "vertex not on the initial path")
        t = ids.index(me)
        expected = set()
        if t > 0:
            expected.add(t - 1)
        if t < len(ids) - 1:
            expected.add(t)
        positions = sorted(r.position for r in records)
        _require(positions == sorted(expected), "P-node incident positions wrong")
        for (tag, cert), record in zip(ports, records):
            _require(len(cert.stack) == depth + 1, "P-node is a leaf")
            _require(tag == base.tags[record.position], "P-node tag mismatch")
        lanes = base.info.lanes
        _require(len(lanes) == len(ids), "P-node lane count mismatch")
        _require(
            base.info.in_ids == tuple(zip(lanes, ids))
            and base.info.out_ids == tuple(zip(lanes, ids)),
            "P-node terminal mismatch",
        )
        return

    raise _Reject("unknown record type")


def verify_theorem1(view: LocalView, algebra, max_width: int) -> bool:
    """Run the full local verification for one vertex."""
    try:
        ports = _reconstruct_ports(view)
        _require(bool(ports), "isolated vertex cannot be certified")
        for _tag, cert in ports:
            _require(
                isinstance(cert, EdgeCertificate) and len(cert.stack) >= 1,
                "empty certificate",
            )
        roots = {cert.stack[0].info for _tag, cert in ports if isinstance(cert.stack[0], TLevelRecord)}
        _require(
            len(roots) == 1 and all(isinstance(c.stack[0], TLevelRecord) for _t, c in ports),
            "inconsistent root records",
        )
        root_info = roots.pop()
        width = len(root_info.lanes)
        _require(1 <= width <= max_width, "lane count out of range")
        _require(root_info.lanes == tuple(range(width)), "root lanes not canonical")
        _require(
            algebra.accepts(root_info.state, len(root_info.boundary_ids)),
            "property rejected at the root class",
        )
        # Leaf class recomputation for E/P records anywhere in the stacks.
        for _tag, cert in ports:
            leaf = cert.stack[-1]
            if isinstance(leaf, (ELevelRecord, PLevelRecord)):
                _require(
                    recompute_leaf_state(algebra, leaf) == leaf.info.state,
                    "leaf class mismatch",
                )
        _check_level(view, algebra, ports, 0, None)
        return True
    except _Reject:
        return False
    except Exception:
        return False  # malformed labels reject (soundness posture)
