"""Batched numpy verification kernels: the one fast verification path.

The reference verifier (:mod:`repro.core.verifier`) checks one
:class:`~repro.pls.model.LocalView` at a time in pure python.  This
module evaluates a *whole round* as flat array kernels instead:

1. **Compile** — the labels' :class:`~repro.codec.table.RecordTable`
   already interns records, infos, stacks and tags as dense integer
   ids.  The per-record columns come from its columns by array
   operations, and identifiers stay the table's codes.  The pure
   re-derivations (root classes, leaf classes, ``f_B`` bridge
   recompositions, ``f_P`` member folds) run once per *shape* of their
   key, the key with its identifiers renamed by first appearance,
   through the reference's own memoized functions (see
   :class:`RoundCompiler` for why that is sound).  Each stack gets a
   *path id* chain mirroring the reference's recursive grouping
   (T-levels split by member node, B-levels by side).  A fresh
   certify's mapping hands over the prover's table; any other mapping
   gets one from a walk over the round's edge-label column.
2. **Kernel** — the round's (vertex, depth) incidences are expanded
   into rows, one ``np.lexsort`` over ``(vertex, path, next-path)``
   makes every reference "group" a contiguous segment, and all
   group-level checks (record equality, pointer rounds, bridge sides,
   path positions, the T-node member rules) become segment reductions
   and sorted-key joins.
3. **Fallback** — the kernels are *accept-only*: a vertex is
   kernel-accepted only when every reference check provably passes on
   the interned representation.  Anything the table marks (a field of
   the wrong type or range, an unhashable adversarial value, an exotic
   record shape) or anything failing *flags* the vertex, and flagged
   vertices are re-checked
   by the reference ``LocalView`` path — so rejections keep full
   per-vertex diagnostics and the round verdict is identical to the
   reference executors' by construction.  The hypothesis differential
   suite in ``tests/test_vectorized.py`` pins this equivalence.

Every round has one life cycle: :meth:`RoundCompiler.compile` turns
the labels into a versioned ``compiled-round`` envelope state,
:meth:`KernelRound.from_state` validates and attaches a state, and
:meth:`KernelRound.run` evaluates the kernels.  A fresh compile runs
from its own state; a state found under the labeling's content key (in
the artifact cache, so also in a restarted process) skips the compile.
"""

from __future__ import annotations

import hashlib
import os
from itertools import chain
from time import perf_counter
from typing import Optional

try:  # pragma: no cover - numpy is present in CI
    import numpy as np
except Exception:  # pragma: no cover
    np = None

from repro.api.runtime import (
    VerificationExecutor,
    _Outcome,
    _run_views,
    register_executor,
)
from repro.api.store import StoredLabels
from repro.core.scheme import CertifyingScheme
from repro.core.verifier import (
    recompute_bridge,
    recompute_leaf_state,
    recompute_parent_fold,
)
from repro.codec.table import B as _B, E as _E, P as _P, T as _T
from repro.codec.table import RecordTable
from repro.codec.wire import _KIND_CODES, WIRE_VERSION
from repro.courcelle.boundary import REAL, VIRTUAL
from repro.pls.arrays import NONE_ID, NotVectorizable, RoundArrays
from repro.pls.model import ViewFactory

HAVE_NUMPY = np is not None

#: Record-type codes (column ``r_type``) are the record table's kinds
#: (``T, B, E, P = 0, 1, 2, 3``); -1 marks a record the table marked,
#: which flags every stack containing it.

#: "no value" sentinel of a distance column (no pointer distance at
#: this vertex).  Outside the table's ``(-2**60, 2**60)`` field range,
#: so it never equals a real distance.
_MISS = NONE_ID

#: "no value" sentinel of an identifier-code column (no bridge endpoint
#: on a missing lane, or a column the record's kind does not fill).  A
#: vertex whose identifier is not in the table has ``me_code`` -1, so
#: this must differ from -1: were the two equal, such a vertex would
#: match a missing bridge endpoint.
_NO_CODE = -2

_SEG_SHIFT = 1 << 31

#: Most lanes per info, and most infos per key, that a re-derivation
#: key is shaped for (:class:`RoundCompiler`).  It bounds a shape row at
#: ``16 * (3 + 2 * 16)`` int32 cells whatever the labels hold; honest
#: labels stay below it unless the host's lanes number more than 14.  A
#: table with a wider info re-derives once per distinct key, and so does
#: a check whose keys name more infos.
_SHAPE_WIDTH = 16

#: Tag ids of the REAL and VIRTUAL port tags: the compiler interns them
#: first, in this order, and the kernels read them as constants.
_REAL_TAG, _VIRTUAL_TAG = 0, 1

#: Version of the persisted compiled-round envelope
#: (:meth:`RoundCompiler.compile`).  Bumped whenever the kernel table
#: layout or semantics change: a mismatched envelope is a cache *miss*
#: (the round recompiles), never an error.  Version 2 stores each
#: integer column at its narrowest dtype; version 3 holds identifiers as
#: the table's codes (:data:`_CODE_COLS`), not as identifier values.
COMPILED_ROUND_VERSION = 3

#: ``_Tables`` columns by dtype — the envelope stores exactly these (the
#: integer ones at :func:`_narrowest`), and :meth:`KernelRound.from_state`
#: kind-checks, widens and bounds-checks each one.
_STATE_BOOL_COLS = (
    "r_root", "r_fold", "r_rmc", "r_ptok", "r_bok", "r_eok",
    "r_ptagok", "r_pok", "st_flag",
)
_STATE_I64_COLS = (
    "r_type", "r_info", "r_rmid", "r_minfo", "r_msub", "r_cs",
    "r_ptgt", "r_pida", "r_pda", "r_pidb", "r_pdb",
    "r_bleft", "r_bright", "r_bbr", "r_btag", "r_side",
    "r_ep1", "r_ep2", "r_etag", "r_ein", "r_eout",
    "r_pvids", "r_ptags", "r_ppos", "r_ptagc", "r_plen",
    "ch_counts", "ch_indptr", "ch_cid",
    "ch_ids_counts", "ch_ids_indptr", "ch_ids_flat",
    "min_counts", "min_indptr", "min_lane", "min_id",
    "tin", "pid_keys", "pid_t",
    "st_len", "st_indptr", "st_rec", "st_path", "st_next",
    "me_code",
)

#: Columns holding identifier codes (``RecordTable.id_code``, or
#: :data:`_NO_CODE`); the kernels compare them with ``me_code``.
_CODE_COLS = (
    "r_ptgt", "r_pida", "r_pidb", "r_ep1", "r_ep2", "r_ein", "r_eout",
    "ch_ids_flat", "min_id",
)

#: Columns with one entry per interned record.
_STATE_RECORD_COLS = tuple(
    c for c in _STATE_I64_COLS + _STATE_BOOL_COLS if c.startswith("r_")
) + ("ch_counts", "min_counts")


#: Dtypes an envelope may store an integer column in, narrowest first.
#: Unsigned ones stop at 32 bits, so widening to int64 is lossless.
_NARROW_DTYPES = ("int8", "uint8", "int16", "uint16", "int32", "uint32")


def _narrowest(col):
    """``col`` (int64) at the narrowest dtype that holds its range."""
    low, high = (int(col.min()), int(col.max())) if col.size else (0, 0)
    for dtype in _NARROW_DTYPES:
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return col.astype(dtype)
    return col


def _dtype_signature():
    """Numpy dtype signature baked into every envelope: a restore on a
    platform whose int64/bool wire forms differ must miss, not load."""
    return (np.dtype(np.int64).str, np.dtype(bool).str)


class Unvectorizable(Exception):
    """The whole round cannot run under the kernels (full fallback)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def _grouped_arange(counts):
    """[0..c0-1, 0..c1-1, ...] for an int64 counts array."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def _heads(*cols):
    """Mask of the rows that start a maximal run where every column is
    constant (row 0 always does)."""
    head = np.zeros(cols[0].shape[0], dtype=bool)
    head[:1] = True
    for col in cols:
        head[1:] |= col[1:] != col[:-1]
    return head


class _Segments:
    """One run's segment layout: rows cut into contiguous segments.

    ``head`` marks each segment's first row, row 0 included.  Each row's
    segment id and the mask of rows that do not start a segment are
    built once; every reduction is then one ``np.bincount`` over the
    ids.  Built per run and never kept on a round.
    """

    def __init__(self, head):
        self.starts = np.flatnonzero(head)
        self.count = int(self.starts.shape[0])
        self.ids = np.cumsum(head) - 1
        self.inner = ~head

    def tally(self, pred):
        """Per segment, the number of rows where ``pred`` holds."""
        return np.bincount(self.ids[pred], minlength=self.count)

    def all(self, pred):
        return self.tally(~pred) == 0

    def any(self, pred):
        return self.tally(pred) > 0

    def eq(self, col):
        """Per segment, whether ``col`` is the same on all its rows:
        no row but the first differs from the row before it."""
        changed = col[1:] != col[:-1]
        changed &= self.inner[1:]
        return np.bincount(self.ids[1:][changed], minlength=self.count) == 0


def _indptr(counts):
    """CSR-style offsets of a ragged column with ``counts`` per row."""
    return np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])


def _gather(starts, counts):
    """Flat positions of the segments at ``starts``, ``counts`` long."""
    return np.repeat(starts, counts) + _grouped_arange(counts)


def _first(flat, starts, counts):
    """First entry of each segment; -1 for an empty one."""
    out = np.full(starts.shape, -1, np.int64)
    has = counts > 0
    out[has] = flat[starts[has]]
    return out


def _flat(rows, total):
    """The ``total`` ints of a ragged column's rows, concatenated."""
    return np.fromiter(chain.from_iterable(rows), np.int64, total)


def _kind_rows(table, kind, width):
    """One record kind's field rows as an ``(n, width)`` array, and ids."""
    rows = table.rows[kind]
    return (
        np.array(rows, np.int64).reshape(len(rows), width),
        np.array(table.rids[kind], np.int64),
    )


def _unique_rows(matrix):
    """``(first, inverse)`` over the rows of a 2-D int array.

    ``first`` holds the index of each distinct row's first occurrence,
    ``inverse`` each row's position in ``first``.  The rows are compared
    as raw bytes, one sort of one void column, not field by field as
    ``np.unique(..., axis=0)`` does.
    """
    matrix = np.ascontiguousarray(matrix)
    rows = matrix.view(
        np.dtype((np.void, matrix.dtype.itemsize * matrix.shape[1]))
    ).reshape(-1)
    _rows, first, inverse = np.unique(
        rows, return_index=True, return_inverse=True
    )
    return first, inverse.reshape(-1)


def _first_appearance(codes):
    """Each row of a 2-D int array renamed 0, 1, 2, ... by first
    appearance; -1 entries (padding) stay -1 and take no name.

    Two rows come out equal exactly when one maps onto the other by an
    injective renaming of their non-padding values.
    """
    rows, cols = codes.shape
    if codes.size == 0:
        return codes.copy()
    flat = codes.reshape(-1)
    # Flat positions, each row's sorted by value.
    order = (
        np.argsort(codes, axis=1) + np.arange(0, flat.size, cols)[:, None]
    ).reshape(-1)
    ranked = flat[order]
    head = np.empty(flat.size, bool)
    head[1:] = ranked[1:] != ranked[:-1]
    head[::cols] = True
    # A run of one value in a sorted row first appears at the run's
    # smallest position.
    first = np.empty(flat.size, np.int64)
    first[order] = np.minimum.reduceat(order, np.flatnonzero(head))[
        np.cumsum(head) - 1
    ]
    pad = flat == -1
    named = (first == np.arange(flat.size)) & ~pad
    names = np.cumsum(named.reshape(rows, cols), axis=1).reshape(-1) - 1
    out = names[first].astype(codes.dtype)
    out[pad] = -1
    return out.reshape(rows, cols)


def _padded(flat, starts, counts):
    """Ragged segments as rows of a 2-D array, -1 padded."""
    rows = counts.shape[0]
    out = np.full((rows, int(counts.max(initial=0))), -1, flat.dtype)
    out[np.repeat(np.arange(rows), counts), _grouped_arange(counts)] = flat[
        _gather(starts, counts)
    ]
    return out


def _out_codes(info, lane, i_len, i_ptr, i_lane, i_out):
    """Per row, the out-terminal code of ``info[row]`` on lane
    ``lane[row]`` (``BasicInfo.out_id``), or :data:`_NO_CODE`."""
    counts = i_len[info]
    where = _gather(i_ptr[info], counts)
    owner = np.repeat(np.arange(info.shape[0]), counts)
    hit = i_lane[where] == lane[owner]
    out = np.full(info.shape[0], _NO_CODE, np.int64)
    # Reversed, so that the first matching lane is the one that stays.
    out[owner[hit][::-1]] = i_out[where[hit]][::-1]
    return out


class _Tables:
    """Finalized numpy columns (plain attribute bag)."""


class RoundCompiler:
    """Compiles one round's record table into a compiled-round envelope state.

    Parameters
    ----------
    arrays:
        :class:`~repro.pls.arrays.RoundArrays` — CSR + identifiers.
    table:
        The labels' :class:`~repro.codec.table.RecordTable`.
    edge_rows:
        Per CSR edge index, the edge's label row in ``table`` (-1 when
        the edge has no label).
    algebra, max_width:
        The Theorem 1 verifier profile of the scheme.

    :meth:`compile` derives the per-record kernel columns from the
    table's integer columns with array operations, runs each algebra
    re-derivation (the root class, the ``f_P`` member fold, the root
    member match, the ``f_B`` bridge, the leaf class) once per *shape*
    through the reference's own memoized functions, assigns stack path
    ids level by level (T levels split by member node, B levels by side,
    as the reference groups them), pre-evaluates every virtual-port
    grouping, and returns the state that :meth:`KernelRound.from_state`
    attaches.

    A key's shape lists, for each info the key names in key order, the
    info's kind, lane tuple and state id; then all of the key's terminal
    identifier codes renamed 0, 1, 2, ... by first appearance across the
    whole key; then the key's own lane, tag and length fields.  Each
    shape is derived once, on its first key, and the result holds for
    every key of that shape.  That is sound because these checks read an
    identifier only through equality (glue positions,
    ``boundary.index``, terminal-map comparisons, ``len`` of a boundary):
    renaming every identifier of a key by one injective map leaves each
    check's outcome as it was, and two keys of one shape differ by
    exactly such a renaming.  The type of a boundaried graph does not
    depend on its vertex names.  The bridge endpoints, which the kernels
    compare with a vertex's own code, are read per record.  A table
    with an info of more than ``_SHAPE_WIDTH`` lanes, or a check whose
    keys name more infos than that, re-derives once per distinct key
    instead.  The reference verifier (:mod:`repro.core.verifier`)
    derives per record, so the audit-mode differential still checks
    the compile against an independent path.

    :attr:`derivations` counts the re-derivations the compile ran.
    """

    def __init__(self, arrays: RoundArrays, table, edge_rows, algebra, max_width):
        self._n = arrays.n
        self._m = arrays.m
        self._indptr = arrays.indptr
        self._incident = arrays.incident
        self._ids_py = arrays.identifiers.tolist()
        self._table = table
        self._edge_rows = edge_rows
        self._algebra = algebra
        self._max_width = max_width
        #: Re-derivations run so far (one per shape of each check).
        self.derivations = 0
        # Per info (and one padding row last): kind, lane-tuple id and
        # state id, and the in- then out-terminal codes, -1 padded.
        # ``None`` when the table is too wide for shapes.
        self._info_desc = self._info_codes = None

    # -- re-derivations, once per shape -----------------------------------

    def _root_ok(self, info) -> bool:
        info = self._table.infos[info]
        width = len(info.lanes)
        try:
            return (
                1 <= width <= self._max_width
                and info.lanes == tuple(range(width))
                and bool(
                    self._algebra.accepts(info.state, len(info.boundary_ids))
                )
            )
        except Exception:
            return False

    def _fold_ok(self, member, subtree, kids) -> bool:
        infos = self._table.infos
        subtree = infos[subtree]
        kids = tuple([infos[kid] for kid in self._table.children[kids]])
        try:
            state, _b, in_ids, out_ids = recompute_parent_fold(
                self._algebra, infos[member], kids
            )
            return bool(
                state == subtree.state
                and in_ids == subtree.in_ids
                and out_ids == subtree.out_ids
            )
        except Exception:
            return False

    def _root_member_ok(self, subtree, info) -> bool:
        subtree, info = self._table.infos[subtree], self._table.infos[info]
        try:
            return bool(
                subtree.state == info.state
                and subtree.in_ids == info.in_ids
                and subtree.out_ids == info.out_ids
                and subtree.lanes == info.lanes
            )
        except Exception:
            return False

    def _bridge_ok(self, left, right, info, i, j, tag) -> bool:
        """Whether ``f_B`` recomputes ``info`` and both V children check."""
        infos = self._table.infos
        left, right, info = infos[left], infos[right], infos[info]
        try:
            state, _b, in_ids, out_ids = recompute_bridge(
                self._algebra, left, right, i, j, self._table.tags[tag]
            )
            ok = bool(
                state == info.state
                and in_ids == info.in_ids
                and out_ids == info.out_ids
            )
            for child in (left, right):
                if child.kind == "V":
                    ok = ok and bool(
                        child.in_ids == child.out_ids
                        and len(child.lanes) == 1
                        and child.state == self._algebra.new_vertices(1)
                    )
            return ok
        except Exception:
            return False

    def _leaf_ok(self, rid) -> bool:
        table = self._table
        try:
            return bool(
                recompute_leaf_state(self._algebra, table.records[rid])
                == table.infos[table.r_info[rid]].state
            )
        except Exception:
            return False

    def _describe_infos(self, i_len, i_in, i_out, i_kind) -> None:
        """Fill the per-info shape columns, unless an info is too wide."""
        tab = self._table
        width = int(i_len.max(initial=0))
        if width > _SHAPE_WIDTH:
            return
        count = len(tab.infos)
        lane_ids: dict = {}
        desc = np.full((count + 1, 3), -1, np.int32)
        desc[:-1, 0] = i_kind
        desc[:-1, 1] = [
            lane_ids.setdefault(lanes, len(lane_ids)) for lanes in tab.i_lanes
        ]
        desc[:-1, 2] = tab.i_state
        codes = np.full((count + 1, 2 * width), -1, np.int32)
        owner = np.repeat(np.arange(count), i_len)
        slot = _grouped_arange(i_len)
        codes[owner, slot] = i_in
        codes[owner, slot + width] = i_out
        self._info_desc, self._info_codes = desc, codes

    def _shapes(self, infos, fields=None):
        """Shape rows of keys naming ``infos`` (one row per key, -1 for
        no info) with their own ``fields``; ``None`` for no shapes."""
        if self._info_codes is None or infos.shape[1] > _SHAPE_WIDTH:
            return None
        rows = infos.shape[0]
        at = np.where(infos >= 0, infos, self._info_codes.shape[0] - 1)
        parts = [
            self._info_desc[at].reshape(rows, -1),
            _first_appearance(self._info_codes[at].reshape(rows, -1)),
        ]
        if fields is not None:
            wide = fields.size and (
                int(fields.min()) < -(1 << 31) or int(fields.max()) >= 1 << 31
            )
            parts.append(fields if wide else fields.astype(np.int32))
        return np.concatenate(parts, axis=1)

    def _derive(self, check, keys, describe):
        """``check(*key)`` for every row of the int matrix ``keys``, run
        once per shape.

        ``describe(distinct)`` maps the distinct keys to the infos they
        name and their own fields, the arguments of :meth:`_shapes`.
        """
        first, inverse = _unique_rows(keys)
        distinct = keys[first]
        shapes = self._shapes(*describe(distinct))
        if shapes is None:
            reps = np.arange(first.shape[0])
            group = reps
        else:
            reps, group = _unique_rows(shapes)
        self.derivations += int(reps.shape[0])
        values = np.array(
            [check(*key) for key in distinct[reps].tolist()], bool
        )
        return values[group][inverse]

    # -- per-record columns -------------------------------------------------

    def _record_columns(self, t):
        """Fill the ``r_*``, child, member and P-node columns of ``t``.

        Returns the per-record columns only the stack pass reads: the
        member node, whether each bridge child is a T node, and the
        leaf class check.
        """
        tab = self._table
        i64 = np.int64
        nrec = len(tab.records)
        for name in _STATE_RECORD_COLS:
            dtype = bool if name in _STATE_BOOL_COLS else i64
            setattr(t, name, np.zeros(nrec, dtype))
        t.r_type[:] = tab.r_kind
        t.r_info[:] = tab.r_info
        for name in _CODE_COLS:
            if name.startswith("r_"):
                getattr(t, name)[:] = _NO_CODE
        tagc = np.arange(len(tab.tags), dtype=i64) + 2
        for tag, code in ((REAL, _REAL_TAG), (VIRTUAL, _VIRTUAL_TAG)):
            found = tab.tag_id.get((repr(tag), tag))
            if found is not None:
                tagc[found] = code
        i_len = np.array([len(lanes) for lanes in tab.i_lanes], i64)
        i_ptr = _indptr(i_len)
        total = int(i_ptr[-1])
        i_lane = _flat(tab.i_lanes, total)
        i_in = _flat(tab.i_in, total)
        i_out = _flat(tab.i_out, total)
        i_node = np.array(tab.i_node, i64)
        i_kind = np.array(tab.i_kind, i64)
        self._describe_infos(i_len, i_in, i_out, i_kind)
        member_node = np.zeros(nrec, i64)
        kid_t = (np.zeros(nrec, bool), np.zeros(nrec, bool))
        leaf = np.zeros(nrec, bool)

        rows, rid = _kind_rows(tab, _T, 10)
        t.ch_cid = t.ch_ids_counts = t.ch_ids_flat = np.zeros(0, i64)
        t.min_lane = t.min_id = t.tin = np.zeros(0, i64)
        if rid.size:
            info, member, subtree, kids, root = (
                rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 9]
            )
            t.r_minfo[rid] = member
            t.r_msub[rid] = subtree
            t.r_cs[rid] = kids
            t.r_rmid[rid] = root
            t.r_ptgt[rid] = rows[:, 4]
            t.r_pida[rid] = rows[:, 5]
            t.r_pda[rid] = rows[:, 6]
            t.r_pidb[rid] = rows[:, 7]
            t.r_pdb[rid] = rows[:, 8]
            t.r_ptok[rid] = True
            t.r_root[rid] = self._derive(
                self._root_ok, rows[:, :1], lambda keys: (keys,)
            )
            kid_len = np.array([len(c) for c in tab.children], i64)
            kid_ptr = _indptr(kid_len)
            kid_flat = _flat(tab.children, int(kid_ptr[-1]))

            def fold_infos(keys):
                lists = keys[:, 2]
                named = _padded(kid_flat, kid_ptr[lists], kid_len[lists])
                return (
                    np.concatenate([keys[:, :2], named], axis=1),
                    kid_len[lists][:, None],
                )

            t.r_fold[rid] = self._derive(
                self._fold_ok, rows[:, 1:4], fold_infos
            )
            member_node[rid] = i_node[member]
            rmc = np.ones(rid.size, bool)
            named = i_node[member] == root
            if named.any():
                rmc[named] = self._derive(
                    self._root_member_ok,
                    np.stack([subtree[named], info[named]], axis=1),
                    lambda keys: (keys,),
                )
            t.r_rmc[rid] = rmc
            t.ch_counts[rid] = kid_len[kids]
            t.ch_cid = kid_flat[_gather(kid_ptr[kids], kid_len[kids])]
            t.ch_ids_counts = i_len[t.ch_cid]
            t.ch_ids_flat = i_in[_gather(i_ptr[t.ch_cid], t.ch_ids_counts)]
            t.min_counts[rid] = i_len[subtree]
            where = _gather(i_ptr[subtree], i_len[subtree])
            t.min_lane = i_lane[where]
            t.min_id = i_in[where]
            # (T info, lane, identifier) keys of every T node's in-terminals.
            owners = np.unique(info)
            where = _gather(i_ptr[owners], i_len[owners])
            owner = np.repeat(owners, i_len[owners])
            lane = i_lane[where]
            keys = (((owner << 8) | lane) << 31) | i_in[where]
            t.tin = np.unique(keys[lane < 256])
        t.ch_indptr = _indptr(t.ch_counts)
        t.ch_ids_indptr = _indptr(t.ch_ids_counts)
        t.min_indptr = _indptr(t.min_counts)

        rows, rid = _kind_rows(tab, _B, 7)
        if rid.size:
            info, left, right, i, j, tag, side = rows.T
            t.r_bleft[rid] = left
            t.r_bright[rid] = right
            t.r_bbr[rid] = _unique_rows(rows[:, 3:5])[1]
            t.r_btag[rid] = tagc[tag]
            t.r_side[rid] = side
            # Key: (left, right, info, i, j, tag).
            t.r_bok[rid] = self._derive(
                self._bridge_ok,
                rows[:, [1, 2, 0, 3, 4, 5]],
                lambda keys: (keys[:, :3], keys[:, 3:]),
            )
            ends = ((t.r_ep1, left, i), (t.r_ep2, right, j))
            for column, child, lane in ends:
                column[rid] = _out_codes(
                    child, lane, i_len, i_ptr, i_lane, i_out
                )
            kid_t[0][rid] = i_kind[left] == _KIND_CODES["T"]
            kid_t[1][rid] = i_kind[right] == _KIND_CODES["T"]

        rows, rid = _kind_rows(tab, _E, 4)
        leaf_keys = []
        if rid.size:
            info, a, b, tag = rows.T
            t.r_etag[rid] = tagc[tag]
            t.r_ein[rid] = a
            t.r_eout[rid] = b
            starts, counts = i_ptr[info], i_len[info]
            t.r_eok[rid] = (
                (counts == 1)
                & (_first(i_in, starts, counts) == a)
                & (_first(i_out, starts, counts) == b)
                & (a != b)
            )
            # Key: (record, info, kind, tag, path length).
            kind = np.full(rid.size, _E)
            length = np.zeros(rid.size, i64)
            leaf_keys.append(np.stack([rid, info, kind, tag, length], axis=1))

        pid_keys, pid_t, p_keys = [], [], []
        for rid, (info, ids, tags, position) in zip(tab.rids[_P], tab.rows[_P]):
            codes = tab.id_lists[ids]
            tag_ids = tab.tag_lists[tags]
            t.r_pvids[rid] = ids
            t.r_ptags[rid] = tags
            t.r_ppos[rid] = position
            t.r_plen[rid] = len(codes)
            if position < len(tag_ids):
                t.r_ptagc[rid] = tagc[tag_ids[position]]
                t.r_ptagok[rid] = True
            t.r_pok[rid] = (
                len(set(codes)) == len(codes)
                and len(tag_ids) == len(codes) - 1
                and tab.i_in[info] == codes
                and tab.i_out[info] == codes
            )
            for index, code in enumerate(codes):
                pid_keys.append(rid * _SEG_SHIFT + code)
                pid_t.append(index)
            p_keys.append((rid, info, _P, tags, len(codes)))
        keys = np.array(pid_keys, i64)
        ordering = np.argsort(keys, kind="stable")
        t.pid_keys = keys[ordering]
        t.pid_t = np.array(pid_t, i64)[ordering]
        if p_keys:
            leaf_keys.append(np.array(p_keys, i64))
        if leaf_keys:
            keys = np.concatenate(leaf_keys)
            leaf[keys[:, 0]] = self._derive(
                lambda rid, *_fields: self._leaf_ok(rid),
                keys,
                lambda keys: (keys[:, 1:2], keys[:, 2:]),
            )
        return member_node, kid_t, leaf

    # -- stacks, edges and virtual ports ----------------------------------

    def _stack_columns(self, t, member_node, kid_t, leaf) -> None:
        """Fill the ``st_*`` columns: records, path ids and flags."""
        tab = self._table
        i64 = np.int64
        lens = np.array([len(stack) for stack in tab.stacks], i64)
        t.st_len = lens
        t.st_indptr = _indptr(lens)
        total = int(t.st_indptr[-1])
        rec = t.st_rec = _flat(tab.stacks, total)
        kind = t.r_type
        # The reference groups a T level by member node, a B level by
        # side, and every leaf alike; one token per distinct grouping.
        # Member nodes are in [-1, 2**60) and sides in [-1, 1], so the
        # (group, value + 1) pair packs into one int64 in pair order.
        group = np.where(kind < 0, 3, np.minimum(kind, 2))
        value = np.where(
            kind == _T, member_node, np.where(kind == _B, t.r_side, 0)
        )
        token = np.unique((group << 61) | (value + 1), return_inverse=True)[
            1
        ].reshape(-1)[rec]
        path = np.zeros(total, i64)
        nxt = np.zeros(total, i64)
        starts = t.st_indptr[:-1]
        count = 1  # 0 is the root path
        for level in range(int(lens.max(initial=0))):
            rows = starts[lens > level] + level
            parent = nxt[rows - 1] if level else np.zeros(rows.size, i64)
            keys, inverse = np.unique(
                parent * _SEG_SHIFT + token[rows], return_inverse=True
            )
            path[rows] = parent
            nxt[rows] = count + inverse.reshape(-1)
            count += keys.size
            if count >= _SEG_SHIFT:
                raise Unvectorizable("intern tables exceed packed-key range")
        t.st_path = path
        t.st_next = nxt
        if not total:
            t.st_flag = np.zeros(lens.size, bool)
            return
        # A stack is well shaped when each level names the level below
        # it (T: its member; B: the T child on its side, or the bridge
        # edge last) and only a leaf whose class checks out ends it.
        below = rec[np.minimum(np.arange(1, total + 1), total - 1)]
        stack_of = np.repeat(np.arange(lens.size), lens)
        last = _grouped_arange(lens) == lens[stack_of] - 1
        rt = kind[rec]
        side = t.r_side[rec]
        child = np.where(side == 0, t.r_bleft[rec], t.r_bright[rec])
        child_t = np.where(side == 0, kid_t[0][rec], kid_t[1][rec])
        bad = np.where(
            rt == _T,
            last | (t.r_info[below] != t.r_minfo[rec]),
            np.where(
                rt == _B,
                np.where(
                    side == -1,
                    ~last,
                    last
                    | ~child_t
                    | (kind[below] != _T)
                    | (t.r_info[below] != child),
                ),
                np.where(rt >= _E, ~last | ~leaf[rec], True),
            ),
        )
        t.st_flag = (
            np.bincount(stack_of, weights=bad, minlength=lens.size) > 0
        ) | (kind[rec[starts]] != _T)

    def _emb_vertices(self, edges):
        """Dense vertices incident to one of ``edges``."""
        edge_has = np.zeros(self._m, dtype=bool)
        edge_has[np.array(list(edges), dtype=np.int64)] = True
        counts = np.diff(self._indptr)
        vertex_of_pos = np.repeat(
            np.arange(self._n, dtype=np.int64), counts
        )
        return np.unique(vertex_of_pos[edge_has[self._incident]])

    def _virtual_ports(self, dense, emb_of_edge, me):
        """Mirror ``_reconstruct_ports``' embedded grouping for one vertex.

        Returns the payload stack ids of its virtual ports, or ``None``
        to flag the vertex.
        """
        embedded = self._table.embedded
        groups: dict = {}
        start = int(self._indptr[dense])
        stop = int(self._indptr[dense + 1])
        for edge in self._incident[start:stop].tolist():
            if edge not in emb_of_edge:
                continue
            emb = emb_of_edge[edge]
            if emb is None:
                return None
            for row in emb:
                u, v, forward, backward, payload = embedded[row]
                groups.setdefault((u, v, payload), []).append(
                    (forward, backward)
                )
        out = []
        for (u, v, payload), hits in groups.items():
            total = hits[0][0] + hits[0][1]
            if any(f + b != total or not 1 <= f <= total - 1 for f, b in hits):
                return None
            if me == u:
                if not (len(hits) == 1 and hits[0][0] == 1):
                    return None
                out.append(payload)
            elif me == v:
                if not (len(hits) == 1 and hits[0][1] == 1):
                    return None
                out.append(payload)
            elif len(hits) != 2 or abs(hits[0][0] - hits[1][0]) != 1:
                return None
        return out

    # -- the envelope state ---------------------------------------------

    def compile(self) -> dict:
        """Compile the whole round into its envelope state.

        Every edge is compiled and every virtual-port grouping is
        pre-evaluated, so :meth:`KernelRound.from_state` runs the
        kernels with no compile work.  The state carries the
        compiled-round and wire format versions plus the numpy dtype
        signature; ``from_state`` raises on a mismatch, which callers
        treat as a cache miss.
        """
        tab = self._table
        if (
            len(tab.infos) >= (1 << 24)
            or len(tab.records) >= _SEG_SHIFT
            or len(tab.id_values) >= _SEG_SHIFT
        ):
            raise Unvectorizable("intern tables exceed packed-key range")
        t = _Tables()
        self._stack_columns(t, *self._record_columns(t))
        me_code = [tab.id_code.get(x, -1) for x in self._ids_py]
        t.me_code = np.array(me_code, np.int64)
        rows = self._edge_rows
        edge_sid = np.array(tab.l_stack + [-1], np.int64)[rows]
        # Edges with embedded records; ``None`` marks a malformed list.
        emb_of_edge = {}
        for edge, row in enumerate(rows.tolist()):
            if row >= 0 and tab.l_emb[row] != ():
                emb_of_edge[edge] = tab.l_emb[row]
        vp_map = {}
        vp_bad = []
        if emb_of_edge:
            for dense in self._emb_vertices(emb_of_edge).tolist():
                sids = self._virtual_ports(dense, emb_of_edge, me_code[dense])
                if sids is None:
                    vp_bad.append(dense)
                elif sids:
                    vp_map[dense] = tuple(sids)
        tables = {
            name: _narrowest(getattr(t, name)) for name in _STATE_I64_COLS
        }
        tables.update((name, getattr(t, name)) for name in _STATE_BOOL_COLS)
        return {
            "compiled_round_version": COMPILED_ROUND_VERSION,
            "wire_version": WIRE_VERSION,
            "dtypes": _dtype_signature(),
            "n": self._n,
            "m": self._m,
            "edge_sid": _narrowest(edge_sid),
            "tables": tables,
            "vp_map": vp_map,
            "vp_bad": vp_bad,
        }


class KernelRound:
    """One compiled round attached for the kernels.

    Built only by :meth:`from_state`, from the
    :class:`~repro.pls.arrays.RoundArrays` of the round and an envelope
    state.  The kernels never read an identifier: each vertex has its
    table code in ``me_code``.  ``run(order)`` returns
    ``(accept, stats)``: ``accept[i]`` is True iff the kernels *prove*
    the reference verifier accepts dense vertex ``order[i]``; every
    other vertex must go through the reference fallback.
    """

    def __init__(self, arrays: RoundArrays):
        self._n = arrays.n
        self._m = arrays.m
        self._indptr = arrays.indptr
        self._incident = arrays.incident
        self._t: Optional[_Tables] = None
        self._edge_sid = None
        self._vp_map: dict = {}
        self._vp_bad: set = set()

    @classmethod
    def from_state(cls, arrays, state):
        """Attach to a compiled round's envelope state.

        Raises on *any* version, dtype, shape, or structural mismatch —
        the caller maps every failure to a recompile, so a stale or
        corrupt envelope can only cost time, never correctness.
        """
        round_ = cls(arrays)
        round_._attach(state)
        return round_

    def _attach(self, state) -> None:
        def check(ok, what):
            if not ok:
                raise ValueError(what)

        check(isinstance(state, dict), "state is not a dict")
        check(
            state.get("compiled_round_version") == COMPILED_ROUND_VERSION,
            "compiled-round version mismatch",
        )
        check(
            state.get("wire_version") == WIRE_VERSION,
            "wire format version mismatch",
        )
        check(
            tuple(state.get("dtypes", ())) == _dtype_signature(),
            "numpy dtype signature mismatch",
        )
        check(
            state.get("n") == self._n and state.get("m") == self._m,
            "graph shape mismatch",
        )

        def column(value, name, integer=True):
            col = np.asarray(value)
            kind, size = col.dtype.kind, col.dtype.itemsize
            if integer:
                # Widening is lossless only from these; a float, bool
                # or wider unsigned column would be truncated or cast.
                check(
                    kind == "i" or (kind == "u" and size <= 4),
                    f"column {name} is not an integer column",
                )
            else:
                check(kind == "b", f"column {name} is not a flag column")
            check(col.ndim == 1, f"column {name} is not flat")
            return col.astype(np.int64 if integer else bool, copy=False)

        tables = state.get("tables")
        check(isinstance(tables, dict), "missing kernel tables")
        t = _Tables()
        for name in _STATE_I64_COLS:
            setattr(t, name, column(tables[name], name))
        for name in _STATE_BOOL_COLS:
            setattr(t, name, column(tables[name], name, integer=False))
        nrecords = int(t.r_type.shape[0])
        for name in _STATE_RECORD_COLS:
            check(
                getattr(t, name).shape[0] == nrecords,
                f"record column {name} length mismatch",
            )
        for counts, indptr, flats in (
            (t.ch_counts, t.ch_indptr, (t.ch_cid,)),
            (t.ch_ids_counts, t.ch_ids_indptr, (t.ch_ids_flat,)),
            (t.min_counts, t.min_indptr, (t.min_lane, t.min_id)),
            (t.st_len, t.st_indptr, (t.st_rec, t.st_path, t.st_next)),
        ):
            check(
                counts.size == 0 or int(counts.min()) >= 0,
                "negative segment count",
            )
            check(
                np.array_equal(
                    indptr,
                    np.concatenate(
                        [np.zeros(1, np.int64), np.cumsum(counts)]
                    ),
                ),
                "segment index pointers are inconsistent",
            )
            total = int(indptr[-1]) if indptr.size else 0
            for flat in flats:
                check(flat.shape[0] == total, "segment payload truncated")
        check(
            t.ch_ids_counts.shape[0] == t.ch_cid.shape[0],
            "child-id counts misaligned",
        )
        nstacks = int(t.st_len.shape[0])
        check(t.st_flag.shape[0] == nstacks, "stack flags misaligned")
        check(
            t.st_rec.size == 0
            or (
                int(t.st_rec.min()) >= 0
                and int(t.st_rec.max()) < nrecords
            ),
            "stack record ids out of range",
        )
        check(
            t.pid_t.shape == t.pid_keys.shape,
            "P-node key table misaligned",
        )
        for sorted_col in (t.tin, t.pid_keys):
            check(
                sorted_col.size < 2
                or bool((np.diff(sorted_col) >= 0).all()),
                "searchsorted table is unsorted",
            )
        check(t.me_code.shape[0] == self._n, "me_code length mismatch")
        edge_sid = column(state.get("edge_sid"), "edge_sid")
        check(
            edge_sid.shape == (self._m,), "edge stack column misaligned"
        )
        check(
            edge_sid.size == 0
            or (
                int(edge_sid.min()) >= -3
                and int(edge_sid.max()) < nstacks
            ),
            "edge stack ids out of range",
        )
        vp_map = state.get("vp_map")
        vp_bad = state.get("vp_bad")
        check(isinstance(vp_map, dict), "vp_map is not a dict")
        clean_map = {}
        for dense, sids in vp_map.items():
            check(
                type(dense) is int and 0 <= dense < self._n,
                "virtual-port vertex out of range",
            )
            sids = tuple(sids)
            for sid in sids:
                check(
                    type(sid) is int and 0 <= sid < nstacks,
                    "virtual-port stack id out of range",
                )
            clean_map[dense] = sids
        clean_bad = set()
        for dense in vp_bad:
            check(
                type(dense) is int and 0 <= dense < self._n,
                "flagged vertex out of range",
            )
            clean_bad.add(dense)
        self._t = t
        self._edge_sid = edge_sid
        self._vp_map = clean_map
        self._vp_bad = clean_bad

    # -- the kernels ----------------------------------------------------

    def run(self, order):
        """Kernel-verify dense vertices ``order``; returns (accept, stats)."""
        began = perf_counter()
        req = np.asarray(list(order), dtype=np.int64)
        vports = {}
        flagged_py = set()
        if self._vp_map or self._vp_bad:
            req_set = set(req.tolist())
            for dense, sids in self._vp_map.items():
                if dense in req_set:
                    vports[dense] = list(sids)
            flagged_py = self._vp_bad & req_set
        accept = self._kernels(req, vports, flagged_py)
        kernel_accepted = int(accept.sum())
        stats = {
            "compiled_vertices": int(req.size),
            "kernel_accepted": kernel_accepted,
            "fallback_vertices": int(req.size) - kernel_accepted,
            "kernel_seconds": perf_counter() - began,
            "records": int(self._t.r_type.shape[0]),
            "stacks": int(self._t.st_flag.shape[0]),
        }
        return accept, stats

    def _kernels(self, req, vports, flagged_py):
        t = self._t
        flag = np.zeros(self._n, dtype=bool)
        for dense in flagged_py:
            flag[dense] = True
        indptr = self._indptr
        deg = indptr[req + 1] - indptr[req]
        flag[req[deg == 0]] = True  # no ports at all: reference rejects
        port_vertex = np.repeat(req, deg)
        pos = np.repeat(indptr[req], deg) + _grouped_arange(deg)
        port_sid = self._edge_sid[self._incident[pos]]
        port_tag = np.full(port_vertex.shape[0], _REAL_TAG, np.int64)
        if vports:
            vv = []
            vs = []
            for dense, sids in vports.items():
                for sid in sids:
                    vv.append(dense)
                    vs.append(sid)
            port_vertex = np.concatenate(
                [port_vertex, np.array(vv, np.int64)]
            )
            port_sid = np.concatenate([port_sid, np.array(vs, np.int64)])
            port_tag = np.concatenate(
                [port_tag, np.full(len(vs), _VIRTUAL_TAG, np.int64)]
            )
        bad_port = port_sid < 0
        flag[port_vertex[bad_port]] = True
        sid_safe = np.where(bad_port, 0, port_sid)
        bad_stack = t.st_flag[sid_safe] & ~bad_port
        flag[port_vertex[bad_stack]] = True
        keep = ~bad_port & ~bad_stack
        port_vertex = port_vertex[keep]
        port_sid = port_sid[keep]
        port_tag = port_tag[keep]

        lens = t.st_len[port_sid]
        if int(lens.sum()) == 0:
            return ~flag[req]
        seg, seg_depth, row_vertex, row_tag, row_rec, row_next = self._rows(
            port_vertex, port_sid, port_tag, lens
        )
        row_code = t.me_code[row_vertex]
        starts = seg.starts
        sizes = np.diff(np.append(starts, row_vertex.shape[0]))
        seg_v = row_vertex[starts]
        seg_code = row_code[starts]
        first_rec = row_rec[starts]

        # A segment of one record type has its first row's type.
        seg_type = t.r_type[first_rec]
        pure = seg.eq(t.r_type[row_rec])
        flag[seg_v[~pure]] = True
        is_t = pure & (seg_type == _T)
        is_b = pure & (seg_type == _B)
        is_e = pure & (seg_type == _E)
        is_p = pure & (seg_type == _P)

        # Root checks: the depth-0 segment must be all-T (single root
        # info via the equality check below) with an accepting class.
        d0 = seg_depth == 0
        root_all = seg.all(t.r_root[row_rec])
        flag[seg_v[d0 & ~(is_t & root_all)]] = True

        info_eq = seg.eq(t.r_info[row_rec])

        if is_t.any():
            self._t_kernels(
                t, flag, seg, row_vertex, row_code, row_rec, row_next,
                seg_v, seg_code, first_rec, info_eq, is_t,
            )
        if is_b.any():
            rmask = t.r_btag[row_rec]
            side = t.r_side[row_rec]
            ism1 = side == -1
            ok = (
                info_eq
                & seg.eq(t.r_bleft[row_rec])
                & seg.eq(t.r_bright[row_rec])
                & seg.eq(t.r_bbr[row_rec])
                & seg.eq(rmask)
                & seg.all(t.r_bok[row_rec])
                & ~(seg.any(side == 0) & seg.any(side == 1))
                & seg.all(~ism1 | (row_tag == rmask))
            )
            cnt_m1 = seg.tally(ism1)
            has_m1 = cnt_m1 > 0
            at_ep = (seg_code == t.r_ep1[first_rec]) | (
                seg_code == t.r_ep2[first_rec]
            )
            ok &= (~at_ep | has_m1) & (cnt_m1 <= 1) & (~has_m1 | at_ep)
            flag[seg_v[is_b & ~ok]] = True
        if is_e.any():
            ok = (
                (sizes == 1)
                & t.r_eok[first_rec]
                & (row_tag[starts] == t.r_etag[first_rec])
                & (
                    (seg_code == t.r_ein[first_rec])
                    | (seg_code == t.r_eout[first_rec])
                )
            )
            flag[seg_v[is_e & ~ok]] = True
        if is_p.any():
            ok = (
                info_eq
                & seg.eq(t.r_pvids[row_rec])
                & seg.eq(t.r_ptags[row_rec])
                & seg.all(t.r_pok[row_rec])
                & seg.all(t.r_ptagok[row_rec])
                & seg.all(row_tag == t.r_ptagc[row_rec])
            )
            query = first_rec * _SEG_SHIFT + np.where(
                seg_code >= 0, seg_code, 0
            )
            found = np.zeros(seg.count, dtype=bool)
            tpos = np.zeros(seg.count, dtype=np.int64)
            if t.pid_keys.size:
                lookup = np.searchsorted(t.pid_keys, query)
                lookup_c = np.minimum(lookup, t.pid_keys.size - 1)
                found = (seg_code >= 0) & (t.pid_keys[lookup_c] == query)
                tpos = t.pid_t[lookup_c]
            plen = t.r_plen[first_rec]
            e_low = tpos > 0
            e_high = tpos < plen - 1
            e_cnt = e_low.astype(np.int64) + e_high.astype(np.int64)
            # Only segments of one or two rows can pass (``sizes ==
            # e_cnt``), and over those the first and last row's
            # positions give the minimum and maximum.
            ppos = t.r_ppos[row_rec]
            first_pos, last_pos = ppos[starts], ppos[starts + sizes - 1]
            pmin = np.minimum(first_pos, last_pos)
            pmax = np.maximum(first_pos, last_pos)
            single = np.where(e_low, tpos - 1, tpos)
            pos_ok = (sizes == e_cnt) & np.where(
                e_cnt == 2,
                (pmin == tpos - 1) & (pmax == tpos),
                (e_cnt == 1) & (pmin == pmax) & (pmin == single),
            )
            flag[seg_v[is_p & ~(ok & found & pos_ok)]] = True
        return ~flag[req]

    def _rows(self, port_vertex, port_sid, port_tag, lens):
        """Expand the ports into one row per stack level (``lens`` per
        port), sorted by ``(vertex, path, next path)``, and cut them into
        the reference's groups: the rows of one vertex and one path.

        Returns ``(seg, seg_depth, vertex, tag, rec, next)``: the
        segment layout, each segment's stack depth, and the row columns
        the checks read.  The expansion's other columns die here.
        """
        t = self._t
        row_port = np.repeat(
            np.arange(port_sid.shape[0], dtype=np.int64), lens
        )
        row_depth = _grouped_arange(lens)
        flat = np.repeat(t.st_indptr[port_sid], lens) + row_depth
        row_vertex = port_vertex[row_port]
        row_path = t.st_path[flat]
        row_next = t.st_next[flat]
        ordering = np.lexsort((row_next, row_path, row_vertex))
        row_vertex = row_vertex[ordering]
        seg = _Segments(_heads(row_vertex, row_path[ordering]))
        return (
            seg,
            row_depth[ordering[seg.starts]],
            row_vertex,
            port_tag[row_port[ordering]],
            t.st_rec[flat[ordering]],
            row_next[ordering],
        )

    def _t_level_ok(self, t, seg, row_code, row_rec, seg_code):
        """Per segment, the checks on a T level's own records: the
        pointer round (Prop. 2.2), the root member and the fold."""
        starts = seg.starts
        ida = t.r_pida[row_rec]
        idb = t.r_pidb[row_rec]
        own = np.where(
            row_code == ida,
            t.r_pda[row_rec],
            np.where(row_code == idb, t.r_pdb[row_rec], _MISS),
        )
        other = np.where(
            row_code == ida,
            t.r_pdb[row_rec],
            np.where(row_code == idb, t.r_pda[row_rec], _MISS),
        )
        tgt = t.r_ptgt[row_rec]
        own_first = own[starts]
        is_target = seg_code == tgt[starts]
        ptr_ok = (
            seg.all(t.r_ptok[row_rec])
            & seg.eq(tgt)
            & seg.all(own != _MISS)
            & seg.eq(own)
            & np.where(
                is_target,
                own_first == 0,
                (own_first != 0) & seg.any(other == own - 1),
            )
        )
        return (
            seg.eq(t.r_rmid[row_rec])
            & seg.all(t.r_fold[row_rec])
            & seg.all(t.r_rmc[row_rec])
            & ptr_ok
        )

    def _t_kernels(
        self, t, flag, seg, row_vertex, row_code, row_rec, row_next,
        seg_v, seg_code, first_rec, info_eq, is_t,
    ):
        """All T-segment checks: pointers, folds, member rules."""
        ok = info_eq & self._t_level_ok(t, seg, row_code, row_rec, seg_code)
        flag[seg_v[is_t & ~ok]] = True

        # Member sub-segments (the reference's member_groups): each
        # segment cut again where the next path id changes.
        head = ~seg.inner
        head[1:] |= row_next[1:] != row_next[:-1]
        sub = _Segments(head)
        subs = sub.starts
        seg_of_sub = seg.ids[subs]
        member_mask = is_t[seg_of_sub]
        m_first = subs[member_mask]
        if m_first.size == 0:
            return
        m_seg = seg_of_sub[member_mask]
        sub_ok = (
            sub.eq(t.r_minfo[row_rec])
            & sub.eq(t.r_msub[row_rec])
            & sub.eq(t.r_cs[row_rec])
        )[member_mask]
        m_v = row_vertex[m_first]
        flag[m_v[~sub_ok]] = True
        m_rec = row_rec[m_first]
        m_code = row_code[m_first]
        m_msub = t.r_msub[m_rec]
        nmembers = m_rec.shape[0]
        member_keys = np.sort(m_seg * _SEG_SHIFT + m_msub)

        ch_counts = t.ch_counts[m_rec]
        total_children = int(ch_counts.sum())
        has_parent = np.zeros(nmembers, dtype=bool)
        if total_children:
            ch_parent = np.repeat(
                np.arange(nmembers, dtype=np.int64), ch_counts
            )
            ch_slot = np.repeat(
                t.ch_indptr[m_rec], ch_counts
            ) + _grouped_arange(ch_counts)
            ch_cid = t.ch_cid[ch_slot]
            ch_seg = m_seg[ch_parent]
            child_keys = np.sort(ch_seg * _SEG_SHIFT + ch_cid)
            query = m_seg * _SEG_SHIFT + m_msub
            total = np.searchsorted(
                child_keys, query, side="right"
            ) - np.searchsorted(child_keys, query, side="left")
            self_cnt = np.bincount(
                ch_parent,
                weights=(ch_cid == m_msub[ch_parent]),
                minlength=nmembers,
            )
            has_parent = (total - self_cnt.astype(np.int64)) > 0

            # Out-terminal materialization: a claimed child glued at
            # this vertex must have another member's edges here.
            id_counts = t.ch_ids_counts[ch_slot]
            anchored_claim = np.zeros(total_children, dtype=bool)
            if int(id_counts.sum()):
                id_claim = np.repeat(
                    np.arange(total_children, dtype=np.int64), id_counts
                )
                id_val = t.ch_ids_flat[
                    np.repeat(t.ch_ids_indptr[ch_slot], id_counts)
                    + _grouped_arange(id_counts)
                ]
                claim_code = m_code[ch_parent]
                anchored_claim = (
                    np.bincount(
                        id_claim,
                        weights=(id_val == claim_code[id_claim]),
                        minlength=total_children,
                    )
                    > 0
                )
            claim_query = ch_seg * _SEG_SHIFT + ch_cid
            claim_total = np.searchsorted(
                member_keys, claim_query, side="right"
            ) - np.searchsorted(member_keys, claim_query, side="left")
            claim_self = (m_msub[ch_parent] == ch_cid).astype(np.int64)
            claim_ok = ~anchored_claim | ((claim_total - claim_self) > 0)
            flag[m_v[ch_parent[~claim_ok]]] = True

        # Anchored-member chain rule.
        a_counts = t.min_counts[m_rec]
        anchored_any = np.zeros(nmembers, dtype=bool)
        if int(a_counts.sum()):
            a_parent = np.repeat(
                np.arange(nmembers, dtype=np.int64), a_counts
            )
            a_slot = np.repeat(
                t.min_indptr[m_rec], a_counts
            ) + _grouped_arange(a_counts)
            a_lane = t.min_lane[a_slot]
            a_code = m_code[a_parent]
            anchored = t.min_id[a_slot] == a_code
            seg_info = t.r_info[first_rec]
            a_info = seg_info[m_seg[a_parent]]
            lane_ok = (a_lane >= 0) & (a_lane < 256) & (a_code >= 0)
            query = (
                ((a_info << 8) | np.where(lane_ok, a_lane, 0)) << 31
            ) | np.where(a_code >= 0, a_code, 0)
            hit = np.zeros(a_parent.shape[0], dtype=bool)
            if t.tin.size:
                lookup = np.minimum(
                    np.searchsorted(t.tin, query), t.tin.size - 1
                )
                hit = lane_ok & (t.tin[lookup] == query)
            ok_anchor = ~anchored | has_parent[a_parent] | hit
            flag[m_v[a_parent[~ok_anchor]]] = True
            anchored_any = (
                np.bincount(a_parent, weights=anchored, minlength=nmembers)
                > 0
            )
        non_anchored = np.bincount(
            m_seg, weights=~anchored_any, minlength=seg.count
        )
        flag[seg_v[is_t & (non_anchored > 1)]] = True


# ----------------------------------------------------------------------
# Scheme profile detection + round caching
# ----------------------------------------------------------------------


def _theorem1_profile(scheme):
    """Return ``(algebra, max_width)`` when ``scheme.verify`` is exactly
    the Theorem 1 edge-labeled verifier; None for anything else."""
    if not isinstance(scheme, CertifyingScheme):
        return None
    if type(scheme).verify is not CertifyingScheme.verify:
        return None
    if getattr(scheme, "label_location", None) != "edges":
        return None
    return scheme.algebra, scheme.max_width


def _compiled_round_cache_key(config, scheme, digest):
    """Content key of a compiled round, or ``None``.

    The compiled tables depend on the graph (``config_fingerprint``),
    the exact labeling (the digest of the wire form its labels carry),
    the verifier profile, and the envelope/wire format versions — any
    of these changing must produce a different key, so stale envelopes
    are simply never looked up.  Returns ``None`` when the algebra has
    no stable key: such a round always compiles.
    """
    algebra_key = getattr(getattr(scheme, "algebra", None), "key", None)
    if algebra_key is None:
        return None
    from repro.api.plan import config_fingerprint

    raw = repr(
        (
            config_fingerprint(config),
            digest,
            algebra_key,
            scheme.max_width,
            COMPILED_ROUND_VERSION,
            WIRE_VERSION,
        )
    )
    token = hashlib.blake2b(raw.encode(), digest_size=16).hexdigest()
    return f"compiled-round:{token}"


def _round_table(mapping, factory):
    """The round's record table, and each CSR edge's label row in it.

    A :class:`~repro.api.store.StoredLabels` mapping hands over its
    table: the prover's, or the one its wire form decodes to.  Any other
    mapping (a plain dict, such as a tampered copy) gets one from a walk
    over the round's edge-label column.
    """
    edges = factory.csr.edges
    if not isinstance(mapping, StoredLabels):
        table = RecordTable(edges, factory.edge_certificates)
        return table, np.arange(len(edges), dtype=np.int64)
    table = mapping.record_table()
    rows = {key: row for row, key in enumerate(table.keys)}
    return table, np.array([rows.get(e, -1) for e in edges], np.int64)


def _attach_compiled_round(state, arrays):
    """Attach an envelope state; ``None`` when absent or on any mismatch."""
    if not isinstance(state, dict):
        return None
    try:
        return KernelRound.from_state(arrays, state)
    except Exception:
        return None


class VectorizedExecutor(VerificationExecutor):
    """Whole-round numpy kernels with reference fallback.

    Verdict-identical to :class:`~repro.api.runtime.SerialExecutor` on
    every configuration and labeling: kernel-accepted vertices are
    exactly reference-accepts (the kernels only accept when every
    reference check provably passes), and all flagged vertices are
    re-checked through the reference ``LocalView`` path.  Schemes whose
    verifier is not the Theorem 1 profile run entirely on the
    reference path (``kernel_stats["mode"] == "reference"``).

    Compiled rounds are keyed on the wire form the labels carry: a
    :class:`~repro.api.store.StoredLabels` mapping holds its encoded
    labeling's digest, and that mapping is read-only, so the key
    changes whenever the labels do.  A plain ``dict`` mapping has no
    wire identity and always compiles.  Rounds are found and kept only
    in an artifact cache (configured, or lent by a session or store),
    across processes too; an executor without one compiles every round.

    ``audit=True`` cross-checks every kernel-accepted vertex against
    the reference verifier and raises on divergence — the differential
    test harness runs under it to localize any kernel bug.

    ``kernel_stats["derivations"]`` counts the re-derivations a compile
    ran (:class:`RoundCompiler`); an attached round reports 0.
    """

    name = "vectorized"

    def __init__(self, audit: bool = False, artifacts=None):
        self.audit = audit or bool(os.environ.get("REPRO_VECTORIZED_AUDIT"))
        #: Optional :class:`~repro.api.artifacts.ArtifactCache` holding
        #: compiled rounds across rounds *and processes*.
        self.artifacts = artifacts

    def adopt_artifacts(self, cache) -> None:
        """Accept a session's artifact cache unless one was configured.

        :class:`~repro.api.session.CertificationSession` offers its own
        cache before every round, so a store-backed session makes the
        compiled rounds persistent without any executor configuration.
        """
        if self.artifacts is None:
            self.artifacts = cache

    def _stored_state(self, key):
        """The envelope state the cache keeps under ``key``, or ``None``."""
        if key is None:
            return None
        entry = self.artifacts.get(key)
        return None if entry is None else entry.outputs.get("state")

    def _keep_state(self, key, state, seconds: float) -> None:
        if key is None:
            return
        try:
            self.artifacts.put(
                key, "compiled-round", {"state": state}, seconds
            )
        except Exception:
            # A state the cache cannot store only loses the entry,
            # never the round.
            return

    def _round_for(self, config, scheme, mapping, factory):
        """``(round, compile_seconds, cached, derivations)`` for one
        round (``derivations``: the compile's re-derivations).

        Raises :class:`Unvectorizable` when the round must run on the
        reference path.
        """
        profile = _theorem1_profile(scheme)
        if profile is None:
            raise Unvectorizable(
                "scheme is not the Theorem 1 edge-labeled profile"
            )
        if np is None:
            raise Unvectorizable("numpy unavailable")
        try:
            arrays = factory.round_arrays()
        except NotVectorizable as exc:
            raise Unvectorizable(str(exc)) from None
        key = None  # no cache, or labels without a wire form: compile
        if self.artifacts is not None and isinstance(mapping, StoredLabels):
            key = _compiled_round_cache_key(config, scheme, mapping.digest)
        round_ = _attach_compiled_round(self._stored_state(key), arrays)
        if round_ is not None:
            return round_, 0.0, True, 0
        algebra, max_width = profile
        # Decoding is decode time, so it happens before the compile
        # clock starts: a stored labeling decodes into its record table
        # (the prover's needs none), and a plain mapping's labels are
        # read.
        if isinstance(mapping, StoredLabels):
            mapping.record_table()
        else:
            factory.edge_certificates
        began = perf_counter()
        table, edge_rows = _round_table(mapping, factory)
        compiler = RoundCompiler(arrays, table, edge_rows, algebra, max_width)
        state = compiler.compile()
        compile_seconds = perf_counter() - began
        round_ = KernelRound.from_state(arrays, state)
        self._keep_state(key, state, compile_seconds)
        return round_, compile_seconds, False, compiler.derivations

    def execute(self, config, scheme, mapping, location, vertices, fail_fast):
        if not vertices:
            return _Outcome({}, (), 0)
        factory = ViewFactory(config, mapping, location)
        order = [factory.index_of(v) for v in vertices]
        try:
            round_, compile_seconds, cached, derivations = self._round_for(
                config, scheme, mapping, factory
            )
        except Unvectorizable as exc:
            base_stats = {
                "engine": self.name,
                "mode": "reference",
                "reason": exc.reason,
            }
            return _run_views(factory, scheme, order, fail_fast, base_stats)
        accept, stats = round_.run(order)
        base_stats = {
            "engine": self.name,
            **stats,
            "compile_seconds": compile_seconds,
            "derivations": derivations,
            "mode": "kernel",
            "compiled_round_cached": cached,
        }
        names = factory.vertices
        verdicts = {}
        flagged = []
        accept_list = accept.tolist()
        for position, dense in enumerate(order):
            if accept_list[position]:
                verdicts[names[dense]] = True
            else:
                flagged.append(dense)
        if self.audit:
            for position, dense in enumerate(order):
                if not accept_list[position]:
                    continue
                # Built outside the try: a stored labeling that fails to
                # decode is a StoreError, not a verifier rejection.
                view = factory.view_at(dense)
                try:
                    ok = bool(scheme.verify(view))
                except Exception:
                    ok = False
                if not ok:
                    raise AssertionError(
                        "vectorized kernel accepted vertex "
                        f"{names[dense]!r} that the reference rejects"
                    )
        fallback = _run_views(factory, scheme, flagged, fail_fast)
        verdicts.update(fallback.verdicts)
        return _Outcome(
            verdicts=verdicts,
            exception_vertices=fallback.exception_vertices,
            views_built=fallback.views_built,
            kernel_stats=base_stats,
        )


register_executor("vectorized", VectorizedExecutor)
