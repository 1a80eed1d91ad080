"""JSON-lines wire protocol for the certification service.

One request or response per ``\\n``-terminated UTF-8 JSON object — the
framing every language can speak from a socket without a schema
compiler.  The payloads inside reuse the JSON forms the API layer
already round-trips (``CertificationReport.to_dict`` /
``VerificationReport.to_dict`` / ``AuditReport.to_dict``), so the wire
format is the PR 2/3 serialization surface, not a new one.

Requests
--------
Every request is ``{"id": <any JSON scalar>, "op": <str>, ...params}``:

``ping``
    Liveness probe; responds ``{"pong": true}``.
``certify``
    ``graph`` (see :func:`graph_to_wire`), ``properties`` (key or list
    of keys), optional ``k`` (defaults to the daemon's), ``fresh``
    (``true`` forces re-proving past the store), ``verify`` (``false``
    skips the verification round — completeness guarantees honest
    acceptance, and the round can be replayed via ``reverify``).
``reverify``
    ``fingerprint`` + ``property``: run the verification round on the
    stored certificate, zero prover stages.
``audit``
    ``graph``, ``property``, optional ``k``/``trials``/``seed``/
    ``attacks`` (names from :data:`AUDIT_ATTACKS`) — a soundness
    campaign against a freshly proven honest labeling.
``update``
    Edit-stream recertification (:mod:`repro.incremental`).  Bootstrap
    with ``graph`` (+ ``properties``, optional ``k`` /
    ``full_round_every``); evolve with ``fingerprint`` (the previous
    response's ``result["fingerprint"]``) + non-empty ``edits`` (wire
    form of :meth:`~repro.graphs.edits.EditBatch.to_wire`), optional
    ``force_full`` to escalate the round.  Each batch certifies the
    evolved graph through the daemon's decomposer policy, as a cold
    ``certify`` would.  The response carries ``baseline`` (only on the
    request that first certified the stream, else ``null``), ``update``
    (``mode`` ``region`` or ``full``) and the stream's counters; its new
    ``fingerprint`` addresses the evolved state for the next update.
``metrics``
    Service + store counters as one JSON snapshot (including the
    incremental ``updates`` / ``artifacts_reused`` counters).
``shutdown``
    Ask the daemon to drain and exit (responds before exiting).

Responses
---------
``{"id": ..., "ok": true, "result": {...}, "meta": {...}}`` or
``{"id": ..., "ok": false, "error": "...", "meta": {...}}``.  ``meta``
carries per-request observability: ``latency_s`` and ``coalesced``
(this response was served by a computation another concurrent request
started — see :mod:`repro.service.coalesce`).
"""

from __future__ import annotations

import json

from repro.graphs import Graph

#: Protocol version, echoed by ``ping``; bump on breaking wire changes.
PROTOCOL_VERSION = 3

#: Upper bound on one framed line.  Generous (a graph with millions of
#: edges fits), but bounded — a stream that claims more is a broken or
#: hostile peer, and the daemon must not buffer it to death.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Request operations the service understands.
OPS = (
    "ping",
    "certify",
    "reverify",
    "audit",
    "update",
    "metrics",
    "shutdown",
)


class ProtocolError(ValueError):
    """Raised on malformed frames or requests."""


# ----------------------------------------------------------------------
# Graph wire form.
# ----------------------------------------------------------------------
def graph_to_wire(graph: Graph) -> dict:
    """JSON-safe form of a :class:`~repro.graphs.Graph`.

    Vertices must be JSON scalars (ints everywhere in this code base);
    optional finite input labels ride along as pair/triple lists —
    JSON objects can't key on non-strings, so lists it is.
    """
    payload = {
        "vertices": list(graph.vertices()),
        "edges": [[u, v] for (u, v) in graph.edges()],
    }
    if graph.vertex_labels():
        payload["vertex_labels"] = [
            [v, label] for v, label in sorted(graph.vertex_labels().items())
        ]
    if graph.edge_labels():
        payload["edge_labels"] = [
            [u, v, label]
            for (u, v), label in sorted(graph.edge_labels().items())
        ]
    return payload


def graph_from_wire(payload) -> Graph:
    """Rebuild a :class:`~repro.graphs.Graph` from :func:`graph_to_wire`."""
    if not isinstance(payload, dict):
        raise ProtocolError("graph payload must be an object")
    try:
        vertices = payload.get("vertices", [])
        edges = payload.get("edges", [])
        graph = Graph(vertices, ((u, v) for u, v in edges))
        for v, label in payload.get("vertex_labels", []):
            graph.set_vertex_label(v, label)
        for u, v, label in payload.get("edge_labels", []):
            graph.set_edge_label(u, v, label)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed graph payload: {exc}") from exc
    return graph


# ----------------------------------------------------------------------
# Framing.
# ----------------------------------------------------------------------
def encode_line(message: dict) -> bytes:
    """Frame one message as a ``\\n``-terminated UTF-8 JSON line."""
    return json.dumps(
        message, separators=(",", ":"), sort_keys=True
    ).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one framed line; raise :class:`ProtocolError` if malformed."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds MAX_LINE_BYTES"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integer
        # literals; RecursionError, nesting deeper than the parser goes.
        raise ProtocolError(f"malformed JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame must be a JSON object")
    return message


def validate_request(request: dict) -> str:
    """Check the request envelope; return its ``op``."""
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(OPS)})"
        )
    return op


def ok_response(request_id, result, **meta) -> dict:
    return {"id": request_id, "ok": True, "result": result, "meta": meta}


def error_response(request_id, error: str, **meta) -> dict:
    return {"id": request_id, "ok": False, "error": error, "meta": meta}
