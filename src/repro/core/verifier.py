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
without it, the walk over every view of ``pathwidth_workload(256, 3, s)``
hosts, s = 1–8, took about 38% longer (2-core box).
Prover labels share their label objects, and each label value object
keeps its field hash after the first ``hash()``
(:mod:`repro.core.certificates`), so the content keys of one hierarchy
node hash once per round and usually compare by identity.
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
def _check_level(view, algebra, ports, depth) -> None:
    """Verify one node's claims at this vertex; recurse into sub-levels.

    ``ports``: (tag, cert) pairs whose stacks agree above ``depth`` and
    whose records at ``depth`` name the same node.  Each kind's checks
    read every record of the level in one pass where they can; the order
    of the checks does not matter, since any failed one rejects.
    """
    records = [cert.stack[depth] for _tag, cert in ports]
    first = records[0]
    if isinstance(first, TLevelRecord):
        _check_t_level(view, algebra, ports, depth, records, first)
    elif isinstance(first, BLevelRecord):
        _check_b_level(view, algebra, ports, depth, records, first)
    elif isinstance(first, ELevelRecord):
        _check_e_level(view, ports, depth, first)
    elif isinstance(first, PLevelRecord):
        _check_p_level(view, ports, depth, records, first)
    else:
        raise _Reject("unknown record type")


def _check_t_level(view, algebra, ports, depth, records, first) -> None:
    info, root_member_id = first.info, first.root_member_id
    pointers = []
    # member node id -> [its first record, the ports of its records]
    members: dict = {}
    for port, record in zip(ports, records):
        if not (
            isinstance(record, TLevelRecord)
            and record.info == info
            and record.root_member_id == root_member_id
        ):
            raise _Reject("inconsistent T-node records")
        pointers.append(record.pointer)
        member_id = record.member_info.node_id
        member = members.get(member_id)
        if member is None:
            member = members[member_id] = [record, []]
        base = member[0]
        if not (
            record.member_info == base.member_info
            and record.member_subtree == base.member_subtree
            and record.child_subtrees == base.child_subtrees
        ):
            raise _Reject("inconsistent member records")
        member[1].append(port)
    if not verify_pointer_ports(view.identifier, pointers):
        raise _Reject("pointer check failed")
    groups = [(member_id, member[0]) for member_id, member in members.items()]
    for _member_id, base in groups:
        # f_P fold recomputation (memoized: pure in the records).
        state, _boundary, in_ids, out_ids = recompute_parent_fold(
            algebra, base.member_info, base.child_subtrees
        )
        subtree = base.member_subtree
        if not state == subtree.state:
            raise _Reject("member fold class mismatch")
        if not in_ids == subtree.in_ids:
            raise _Reject("member fold in-terminals mismatch")
        if not out_ids == subtree.out_ids:
            raise _Reject("member fold out-terminals mismatch")
    # Out-terminal materialization (the paper's "each out-terminal of
    # G' can locally check if it is the right in-terminal of the right
    # graph Tree-merge(T_{G_i})"): if a member record claims a child
    # subtree glued at this vertex, edges of that subtree's root member
    # must actually be incident here.
    me = view.identifier
    for member_id, base in groups:
        for claimed in base.child_subtrees:
            if me not in {x for _l, x in claimed.in_ids}:
                continue
            if not any(
                other.member_subtree == claimed
                for other_id, other in groups
                if other_id != member_id
            ):
                raise _Reject(
                    "claimed child subtree has no edges at its glue vertex"
                )
    # Anchored-member chain rule.
    non_anchored = 0
    for member_id, base in groups:
        subtree = base.member_subtree
        anchored_lanes = [lane for lane, x in subtree.in_ids if x == me]
        if not anchored_lanes:
            non_anchored += 1
            continue
        for lane in anchored_lanes:
            has_parent = any(
                subtree in other.child_subtrees
                for other_id, other in groups
                if other_id != member_id
            )
            is_t_in = (lane, me) in info.in_ids
            if not (has_parent or is_t_in):
                raise _Reject("dangling member gluing")
    if non_anchored > 1:
        raise _Reject("vertex interior to two members")
    # The T-node's own basic info must match its root member's subtree
    # (checkable whenever this vertex holds root-member edges).
    for _member_id, base in groups:
        if base.member_info.node_id == root_member_id:
            subtree = base.member_subtree
            if not (
                subtree.state == info.state
                and subtree.in_ids == info.in_ids
                and subtree.out_ids == info.out_ids
                and subtree.lanes == info.lanes
            ):
                raise _Reject("T-node info does not match root member subtree")
    # Recurse into each member.
    below = depth + 1
    for base, sub_ports in members.values():
        member_info = base.member_info
        for _tag, cert in sub_ports:
            stack = cert.stack
            if not len(stack) > below:
                raise _Reject("truncated stack in member")
            if not stack[below].info == member_info:
                raise _Reject("stack does not continue into its member")
        _check_level(view, algebra, sub_ports, below)


def _check_b_level(view, algebra, ports, depth, records, first) -> None:
    info, left, right = first.info, first.left, first.right
    bridge, bridge_tag = first.bridge, first.bridge_tag
    sides: dict = {}  # -1 (the bridge edge), 0 or 1 -> ports
    for port, record in zip(ports, records):
        if not (
            isinstance(record, BLevelRecord)
            and record.info == info
            and record.left == left
            and record.right == right
            and record.bridge == bridge
            and record.bridge_tag == bridge_tag
        ):
            raise _Reject("inconsistent B-node records")
        side = record.side
        if side not in (-1, 0, 1):
            raise _Reject("invalid bridge side marker")
        on_side = sides.get(side)
        if on_side is None:
            sides[side] = [port]
        else:
            on_side.append(port)
    i, j = bridge
    state, _boundary, in_ids, out_ids = recompute_bridge(
        algebra, left, right, i, j, bridge_tag
    )
    if not state == info.state:
        raise _Reject("bridge class mismatch")
    if not (in_ids == info.in_ids and out_ids == info.out_ids):
        raise _Reject("bridge terminals mismatch")
    for child in (left, right):
        if child.kind == "V":
            if not (child.in_ids == child.out_ids and len(child.lanes) == 1):
                raise _Reject("malformed V-node info")
            if not child.state == algebra.new_vertices(1):
                raise _Reject("V-node class mismatch")
    if 0 in sides and 1 in sides:
        raise _Reject("vertex on both bridge sides")
    me = view.identifier
    ends = (left.out_id(i), right.out_id(j))
    if me in ends and -1 not in sides:
        # A bridge endpoint must actually hold the bridge edge
        # ("the unique edge between G1 and G2", Lemma 6.5).
        raise _Reject("bridge endpoint missing the bridge edge")
    if -1 in sides:
        if len(sides[-1]) != 1:
            raise _Reject("duplicated bridge edge")
        tag, cert = sides[-1][0]
        if not len(cert.stack) == depth + 1:
            raise _Reject("bridge edge stack too deep")
        if not tag == bridge_tag:
            raise _Reject("bridge tag mismatch")
        if me not in set(ends):
            raise _Reject("bridge endpoint id mismatch")
    below = depth + 1
    for side, child in ((0, left), (1, right)):
        sub_ports = sides.get(side)
        if sub_ports is None:
            continue
        if not child.kind == "T":
            raise _Reject("edges inside an edgeless child")
        for _tag, cert in sub_ports:
            stack = cert.stack
            if not len(stack) > below:
                raise _Reject("truncated stack in B child")
            if not (
                isinstance(stack[below], TLevelRecord)
                and stack[below].info == child
            ):
                raise _Reject("stack does not continue into bridge child")
        _check_level(view, algebra, sub_ports, below)


def _check_e_level(view, ports, depth, first) -> None:
    if len(ports) != 1:
        raise _Reject("E-node with several incident edges")
    tag, cert = ports[0]
    if not len(cert.stack) == depth + 1:
        raise _Reject("E-node is a leaf")
    if not tag == first.tag:
        raise _Reject("E-node tag mismatch")
    if view.identifier not in (first.in_id, first.out_id):
        raise _Reject("E-node endpoint mismatch")
    if not first.in_id != first.out_id:
        raise _Reject("degenerate E-node")
    lane = first.info.lanes[0]
    if len(first.info.lanes) != 1:
        raise _Reject("E-node with several lanes")
    if not (
        first.info.in_ids == ((lane, first.in_id),)
        and first.info.out_ids == ((lane, first.out_id),)
    ):
        raise _Reject("E-node terminal mismatch")


def _check_p_level(view, ports, depth, records, first) -> None:
    info, ids, tags = first.info, first.vertex_ids, first.tags
    for record in records:
        if not (
            isinstance(record, PLevelRecord)
            and record.info == info
            and record.vertex_ids == ids
            and record.tags == tags
        ):
            raise _Reject("inconsistent P-node records")
    if len(ids) != len(set(ids)):
        raise _Reject("P-node repeats a vertex")
    if len(tags) != len(ids) - 1:
        raise _Reject("P-node tag count")
    me = view.identifier
    if me not in ids:
        raise _Reject("vertex not on the initial path")
    t = ids.index(me)
    expected = set()
    if t > 0:
        expected.add(t - 1)
    if t < len(ids) - 1:
        expected.add(t)
    positions = sorted(record.position for record in records)
    if not positions == sorted(expected):
        raise _Reject("P-node incident positions wrong")
    for (tag, cert), record in zip(ports, records):
        if not len(cert.stack) == depth + 1:
            raise _Reject("P-node is a leaf")
        if not tag == tags[record.position]:
            raise _Reject("P-node tag mismatch")
    lanes = info.lanes
    if len(lanes) != len(ids):
        raise _Reject("P-node lane count mismatch")
    if not (
        info.in_ids == tuple(zip(lanes, ids))
        and info.out_ids == tuple(zip(lanes, ids))
    ):
        raise _Reject("P-node terminal mismatch")


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
        _check_level(view, algebra, ports, 0)
        return True
    except _Reject:
        return False
    except Exception:
        return False  # malformed labels reject (soundness posture)
