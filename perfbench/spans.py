"""In-memory spans around the library's public entry points.

A traced op runs with a few public callables temporarily wrapped (see
``ENTRY_POINTS``), so every call into them records a span: name, start,
end, parent span and op id.  After the op, the durations the library
already reports (``report.stage_timings``, ``encode_seconds``,
``verification.kernel_stats``) are added as child spans with a duration
only.  Nothing inside ``src/`` is edited; the wrappers live only for the
duration of one traced op.

A layer's self time is its span's duration minus its children's, and the
op's root span keeps whatever no other span explains.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import repro.api.store as store_module
from repro.api import ArtifactCache, CertificateStore, VerificationEngine

#: (owner, attribute, span name) wrapped for the duration of a traced op.
#: ``store_module.decode_labeling_columnar`` is the name ``CertificateStore``
#: calls when it rehydrates an entry.
ENTRY_POINTS = (
    (VerificationEngine, "verify", "runtime.verify"),
    (CertificateStore, "save", "store.save"),
    (CertificateStore, "load", "store.load"),
    (store_module, "decode_labeling_columnar", "codec.decode"),
    (ArtifactCache, "get", "artifacts.get"),
    (ArtifactCache, "put", "artifacts.put"),
    (ArtifactCache, "annotate", "artifacts.annotate"),
)

#: Pipeline stage name -> span name of the layer that runs it.
STAGE_SPANS = {
    "decompose": "pathwidth.decompose",
    "lanes": "core.lanes",
    "completion": "core.completion",
    "match": "core.hierarchy",
    "hierarchy": "core.hierarchy",
    "evaluate": "courcelle.evaluate",
    "label": "core.label",
}

#: Per-layer time metric -> the spans whose self times it sums.
LAYER_TIMES = {
    "pathwidth.decompose_s": ("pathwidth.decompose",),
    "core.lanes_s": ("core.lanes",),
    "core.completion_s": ("core.completion",),
    "core.hierarchy_s": ("core.hierarchy",),
    "courcelle.evaluate_s": ("courcelle.evaluate",),
    "core.label_s": ("core.label",),
    "codec.encode_s": ("codec.encode",),
    "codec.decode_s": ("codec.decode",),
    "vectorized.compile_s": ("vectorized.compile",),
    "vectorized.kernel_s": ("vectorized.kernel",),
    "runtime.verify_s": ("runtime.verify",),
    "store.save_s": ("store.save",),
    "store.load_s": ("store.load",),
    "artifacts.put_s": ("artifacts.put", "artifacts.annotate"),
    "artifacts.get_s": ("artifacts.get",),
}

#: Per-layer counters and their units.  They repeat exactly at one seed.
LAYER_COUNTS = {
    "pathwidth.miss_share": "ratio",
    "core.lane_count": "count",
    "core.hierarchy_depth": "count",
    "courcelle.class_count": "count",
    "core.labels": "count",
    "vectorized.records": "count",
    "vectorized.stacks": "count",
    "vectorized.kernel_accept_share": "ratio",
    "vectorized.attach_share": "ratio",
    "runtime.views_built": "count",
    "store.entry_kb": "KiB",
    "artifacts.puts": "count",
    "artifacts.hits": "count",
    "artifacts.misses": "count",
    "artifacts.kb": "KiB",
}


class Tracer:
    """Collects spans in memory; :meth:`write` dumps them once, at the end."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []  # ids of the spans enclosing the current call
        self._op = None
        self._touched: list = []  # (cache, key) pairs the current op used

    def _start(self, name: str) -> dict:
        span = {
            "op": self._op,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": perf_counter(),
            "end": None,
            "seconds": 0.0,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span: dict) -> None:
        span["end"] = perf_counter()
        span["seconds"] = span["end"] - span["start"]
        self._open.pop()

    def _wrap(self, name: str, function):
        def traced(*args, **kwargs):
            span = self._start(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._end(span)
            if name == "artifacts.get":
                span["hit"] = result is not None
                if result is not None:
                    self._touched.append((args[0], args[1]))
            elif name.startswith("artifacts."):  # put, annotate
                self._touched.append((args[0], args[1]))
            return result

        return traced

    def _add(self, parent: int, name: str, seconds: float) -> None:
        """Record a duration the library reported as a child of ``parent``."""
        self.spans.append(
            {
                "op": self._op,
                "id": len(self.spans),
                "parent": parent,
                "name": name,
                "start": None,
                "end": None,
                "seconds": seconds,
            }
        )

    @contextmanager
    def op(self, op_id: int, root: str):
        """Trace one op: wrap the entry points, open its root span."""
        self._op = op_id
        self._touched = []
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in ENTRY_POINTS]
        for (owner, attr, function), (_, _, name) in zip(saved, ENTRY_POINTS):
            setattr(owner, attr, self._wrap(name, function))
        try:
            span = self._start(root)
            try:
                yield span
            finally:
                self._end(span)
        finally:
            for owner, attr, function in saved:
                setattr(owner, attr, function)

    def _of_op(self, op_id: int, name: str = None) -> list:
        return [
            span
            for span in self.spans
            if span["op"] == op_id and (name is None or span["name"] == name)
        ]

    def layers(self, root: dict, workload, host, report) -> dict:
        """Per-layer times and counters of the op ``root`` belongs to.

        Stage timings and the encode time are only added for a ``live``
        workload: a report loaded from a store carries the figures
        recorded when it was certified, not work this op did.
        """
        stats = (report.verification and report.verification.kernel_stats) or {}
        kernel = stats.get("mode") == "kernel"
        live = workload.live
        if live:
            for timing in report.stage_timings:
                if not timing.cached:
                    self._add(root["id"], STAGE_SPANS[timing.name], timing.seconds)
            self._add(root["id"], "codec.encode", report.encode_seconds)
        verify = self._of_op(root["op"], "runtime.verify")
        if kernel and verify:
            self._add(verify[-1]["id"], "vectorized.compile", stats["compile_seconds"])
            self._add(verify[-1]["id"], "vectorized.kernel", stats["kernel_seconds"])

        spans = self._of_op(root["op"])
        own = self_times(spans)
        record = {
            name: sum(own.get(span, 0.0) for span in names)
            for name, names in LAYER_TIMES.items()
        }
        record["session.unattributed_s"] = own[root["name"]]
        record["session.unattributed_share"] = own[root["name"]] / root["seconds"]

        gets = [span for span in spans if span["name"] == "artifacts.get"]
        width = (report.decomposition_stats or {}).get("width", 0)
        touched = {cache.path_for(key) for cache, key in self._touched}
        record.update(
            {
                "pathwidth.miss_share": float(width > workload.planted_width),
                "core.lane_count": report.lane_count if live else 0,
                "core.hierarchy_depth": report.hierarchy_depth if live else 0,
                "courcelle.class_count": report.class_count if live else 0,
                "core.labels": len(report.encoded.labels) if live else 0,
                "vectorized.records": stats["records"] if kernel else 0,
                "vectorized.stacks": stats["stacks"] if kernel else 0,
                "vectorized.kernel_accept_share": (
                    stats["kernel_accepted"] / stats["compiled_vertices"]
                    if kernel
                    else 0.0
                ),
                "vectorized.attach_share": float(
                    bool(stats.get("compiled_round_cached"))
                ),
                "runtime.views_built": report.verification.views_built,
                "store.entry_kb": workload.entry_bytes(host) / 1024,
                "artifacts.puts": sum(s["name"] == "artifacts.put" for s in spans),
                "artifacts.hits": sum(span["hit"] for span in gets),
                "artifacts.misses": sum(not span["hit"] for span in gets),
                "artifacts.kb": sum(
                    path.stat().st_size for path in touched if path and path.exists()
                )
                / 1024,
            }
        )
        return record

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


def self_times(spans: list) -> dict:
    """Span name -> summed self time (duration minus children) over ``spans``."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) + span["seconds"]
    totals: dict = {}
    for span in spans:
        own = span["seconds"] - children.get(span["id"], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
