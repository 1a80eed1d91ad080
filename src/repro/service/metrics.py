"""Service-side observability: counters, gauges, latency histograms.

:class:`ServiceMetrics` is the one object the daemon mutates on every
request and serializes on demand (the ``metrics`` op, the shutdown
flush, the E11 benchmark's assertions).  Everything is guarded by one
lock — requests touch it from the event loop *and* from executor
threads — and :meth:`snapshot` returns plain JSON-safe dicts, so the
wire layer never sees the live object.

The store's own lifetime counters
(:class:`~repro.api.store.StoreMetrics`) are a separate object owned by
the store; the service embeds their snapshot next to its own (see
:meth:`CertificationService.snapshot
<repro.service.service.CertificationService.snapshot>`), keeping the
layers independently testable.
"""

from __future__ import annotations

import threading


class LatencyHistogram:
    """Fixed-bucket latency histogram (seconds), JSON-snapshot friendly.

    The buckets span sub-millisecond cache hits to multi-second cold
    proofs on a roughly-log scale; ``observe`` is O(#buckets) with tiny
    constants, fine for a per-request hot path.
    """

    BOUNDS = (
        0.001,
        0.0025,
        0.005,
        0.01,
        0.025,
        0.05,
        0.1,
        0.25,
        0.5,
        1.0,
        2.5,
        5.0,
        10.0,
    )

    __slots__ = ("counts", "overflow", "count", "total_s", "max_s")

    def __init__(self):
        self.counts = [0] * len(self.BOUNDS)
        self.overflow = 0  # observations beyond the last bound
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        for index, bound in enumerate(self.BOUNDS):
            if seconds <= bound:
                self.counts[index] += 1
                return
        self.overflow += 1

    def snapshot(self) -> dict:
        buckets = {
            f"<={bound:g}s": count
            for bound, count in zip(self.BOUNDS, self.counts)
        }
        buckets[f">{self.BOUNDS[-1]:g}s"] = self.overflow
        mean = self.total_s / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total_s": round(self.total_s, 6),
            "mean_s": round(mean, 6),
            "max_s": round(self.max_s, 6),
            "buckets": buckets,
        }


class ServiceMetrics:
    """Cumulative request counters for one service's lifetime.

    * per-op ``received`` / ``completed`` / ``failed`` counts;
    * ``in_flight`` gauge (currently executing requests) and its
      high-water mark;
    * ``coalesced_requests`` — requests served by another identical
      in-flight request's computation (M identical concurrent certify
      calls run the prover once and count M-1 here);
    * ``prover_runs`` — blocking certification jobs that actually ran a
      prover (the number the coalescing/warm-store assertions watch);
    * ``store_hits`` / ``store_misses`` — certify requests served from
      the certificate store vs proven fresh (the serving-layer view;
      the store object keeps its own lower-level counters);
    * kernel counters (PR 8): ``kernel_rounds`` — verification rounds
      whose report carried :attr:`VerificationReport.kernel_stats`,
      with summed ``kernel_accepted`` / ``fallback_vertices`` /
      ``compiled_vertices`` across them — the observable proof that the
      ``vectorized`` engine actually decided vertices in the batched
      kernels rather than the reference path;
    * incremental counters (the ``update`` op): ``updates`` applied and
      ``artifacts_reused`` — plan-DAG nodes their certifies resolved
      from the cache instead of re-running;
    * decomposition counters (PR 9): per-engine run counts
      (``bnb``/``heuristic``/``witness``), branch-and-bound
      ``nodes expanded`` / ``memo hits`` totals, ``budget_exhausted``
      (searches that spent their node budget and kept the incumbent),
      and ``width_improvements`` — runs whose exact width beat the
      heuristic portfolio's;
    * ``refusals`` — refused reports of the ``certify`` and ``update``
      ops counted by their ``refusal_reason`` code;
    * per-op latency histograms.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.received: dict = {}
        self.completed: dict = {}
        self.failed: dict = {}
        self.in_flight = 0
        self.in_flight_peak = 0
        self.coalesced_requests = 0
        self.prover_runs = 0
        self.store_hits = 0
        self.store_misses = 0
        self.updates = 0
        self.artifacts_reused = 0
        self.kernel_rounds = 0
        self.kernel_accepted = 0
        self.kernel_fallback = 0
        self.kernel_compiled = 0
        self.kernel_compile_seconds = 0.0
        self.compiled_round_hits = 0
        self.encode_runs = 0
        self.encode_seconds = 0.0
        self.decomposition_engines: dict = {}  # engine name -> runs
        self.decomposition_nodes = 0
        self.decomposition_memo_hits = 0
        self.decomposition_budget_exhausted = 0
        self.decomposition_width_improvements = 0
        self.refusals: dict = {}  # refusal_reason -> reports
        self._latency: dict = {}  # op -> LatencyHistogram

    # ------------------------------------------------------------------
    def request_started(self, op: str) -> None:
        with self._lock:
            self.received[op] = self.received.get(op, 0) + 1
            self.in_flight += 1
            if self.in_flight > self.in_flight_peak:
                self.in_flight_peak = self.in_flight

    def request_completed(self, op: str, seconds: float) -> None:
        with self._lock:
            self.completed[op] = self.completed.get(op, 0) + 1
            self.in_flight -= 1
            histogram = self._latency.get(op)
            if histogram is None:
                histogram = self._latency[op] = LatencyHistogram()
            histogram.observe(seconds)

    def request_failed(self, op: str, seconds: float) -> None:
        with self._lock:
            self.failed[op] = self.failed.get(op, 0) + 1
            self.in_flight -= 1
            histogram = self._latency.get(op)
            if histogram is None:
                histogram = self._latency[op] = LatencyHistogram()
            histogram.observe(seconds)

    def coalesced(self, count: int = 1) -> None:
        with self._lock:
            self.coalesced_requests += count

    def prover_run(self) -> None:
        with self._lock:
            self.prover_runs += 1

    def store_served(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.store_hits += 1
            else:
                self.store_misses += 1

    def kernel_round(self, stats) -> None:
        """Record one verification round's ``kernel_stats`` (if any)."""
        if not stats:
            return
        with self._lock:
            self.kernel_rounds += 1
            self.kernel_accepted += int(stats.get("kernel_accepted", 0))
            self.kernel_fallback += int(stats.get("fallback_vertices", 0))
            self.kernel_compiled += int(stats.get("compiled_vertices", 0))
            self.kernel_compile_seconds += float(
                stats.get("compile_seconds", 0.0)
            )
            if stats.get("compiled_round_cached"):
                self.compiled_round_hits += 1

    def encode_run(self, seconds: float) -> None:
        """Record one bulk wire-encode of a labeling (the cold path)."""
        with self._lock:
            self.encode_runs += 1
            self.encode_seconds += float(seconds)

    def decomposition_run(self, stats) -> None:
        """Record one report's ``decomposition_stats`` (if any)."""
        if not stats:
            return
        engine = str(stats.get("engine", "unknown"))
        with self._lock:
            self.decomposition_engines[engine] = (
                self.decomposition_engines.get(engine, 0) + 1
            )
            self.decomposition_nodes += int(stats.get("nodes_expanded", 0))
            self.decomposition_memo_hits += int(stats.get("memo_hits", 0))
            if stats.get("exhausted"):
                self.decomposition_budget_exhausted += 1
            width = stats.get("width")
            heuristic = stats.get("heuristic_width")
            if width is not None and heuristic is not None and width < heuristic:
                self.decomposition_width_improvements += 1

    def refusal(self, reason) -> None:
        """Record one refused report under its ``refusal_reason``."""
        key = str(reason)
        with self._lock:
            self.refusals[key] = self.refusals.get(key, 0) + 1

    def incremental_update(self, artifacts_reused: int) -> None:
        """Record one applied edit batch (the ``update`` op)."""
        with self._lock:
            self.updates += 1
            self.artifacts_reused += artifacts_reused

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-safe dict of everything above."""
        with self._lock:
            return {
                "received": dict(self.received),
                "completed": dict(self.completed),
                "failed": dict(self.failed),
                "in_flight": self.in_flight,
                "in_flight_peak": self.in_flight_peak,
                "coalesced_requests": self.coalesced_requests,
                "prover_runs": self.prover_runs,
                "store_hits": self.store_hits,
                "store_misses": self.store_misses,
                "kernels": {
                    "rounds": self.kernel_rounds,
                    "kernel_accepted": self.kernel_accepted,
                    "fallback_vertices": self.kernel_fallback,
                    "compiled_vertices": self.kernel_compiled,
                    "compile_seconds": round(
                        self.kernel_compile_seconds, 6
                    ),
                    "compiled_round_hits": self.compiled_round_hits,
                },
                "encode": {
                    "runs": self.encode_runs,
                    "seconds": round(self.encode_seconds, 6),
                },
                "incremental": {
                    "updates": self.updates,
                    "artifacts_reused": self.artifacts_reused,
                },
                "decomposition": {
                    "engines": dict(self.decomposition_engines),
                    "nodes_expanded": self.decomposition_nodes,
                    "memo_hits": self.decomposition_memo_hits,
                    "budget_exhausted": self.decomposition_budget_exhausted,
                    "width_improvements": (
                        self.decomposition_width_improvements
                    ),
                },
                "refusals": dict(self.refusals),
                "latency": {
                    op: histogram.snapshot()
                    for op, histogram in sorted(self._latency.items())
                },
            }
