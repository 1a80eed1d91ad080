"""E14 — cold-path annihilation: persisted rounds + columnar encode.

PR 10 attacks the two costs that dominate a *cold* certification — the
first run in a fresh process, nothing resident:

* **kernel compile** — the vectorized round used to recompile its
  tables on every restart.  Now the compiled round is exported into a
  versioned envelope and persisted through the artifact cache, keyed by
  the labeling's wire digest; a restarted process attaches it with
  zero recompilation (``compiled_round_cached=True``,
  ``compile_seconds == 0``).
* **wire encode** — the per-label bit loop is replaced by the bulk
  encoder: one walk interns the labeling into a record table
  (``repro.codec.table``), then each distinct info, record and stack is
  packed once from the table's integer columns and every label is
  written with ``int.to_bytes`` — byte-identical by construction and
  asserted here.

Two legs per n:

* ``cold_s`` vs ``restart_s`` — full verification wall-clock with a
  fresh executor over an empty cache directory (compile + verify +
  envelope store) vs a fresh executor + fresh cache object over the
  *warmed* directory (attach + verify) — the restarted-process story.
* ``round_kb`` — the size of the compiled-round envelope file the
  cold leg wrote (KiB), the bytes a restart reads back.
* ``derivations`` — the algebra re-derivations the cold leg's compile
  ran (``kernel_stats["derivations"]``, one per shape of each check).
  The bench asserts it is below the round's record count: a compile
  that re-derives per key or per record would not be.
* ``encode_perlabel_s`` vs ``encode_bulk_s`` — the per-label
  ``encode_label`` loop (one header, no shared interning — what a
  caller without the bulk entry point pays) vs the bulk encoder
  (``encode_labeling_columnar``: table walk + pack) over the same
  labeling, byte-identity asserted against the
  reference ``encode_labeling``.  The legs run interleaved (same loop
  iteration, per-round ratios, median reported) because sequential
  timing on a noisy box skews either way by 30-50%.

The committed baseline lives at ``benchmarks/BENCH_E14.json`` (refresh
deliberately via ``E14_OUT``; the bench refuses to overwrite it
otherwise).  Knobs: ``E14_SIZES`` (comma-separated n values; CI smoke
uses a tiny workload), ``E14_ENCODE_ROUNDS``, and
``E14_REQUIRE_SPEEDUP`` — when set, assert at the largest n that the
restart leg is >= 2x cold and the bulk encode >= 3x the per-label
loop (the gates the committed baseline was generated under).
"""

import gc
import json
import os
import statistics
import tempfile
import time
from pathlib import Path

from repro.api import (
    ArtifactCache,
    CertificationSession,
    VerificationEngine,
    make_executor,
)
from repro.codec import (
    WireHeader,
    encode_label,
    encode_labeling,
    encode_labeling_columnar,
)
from repro.experiments import Table, lanewidth_workload, seed_stream

SIZES = tuple(
    int(size) for size in os.environ.get("E14_SIZES", "64,256,1024").split(",")
)
ENCODE_ROUNDS = int(os.environ.get("E14_ENCODE_ROUNDS", "15"))
OUT_PATH = os.environ.get("E14_OUT", "BENCH_E14.json")
ROOT_SEED = 8
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_E14.json")


def _prove(n: int, seed: int):
    """Labels only; the session stamps the labeling's wire digest."""
    sequence, _graph = lanewidth_workload(3, n, seed)
    session = CertificationSession(rng=seed_stream(ROOT_SEED, "ids").rng(seed))
    report = session.certify(sequence, "connected", verify=False)
    assert not report.refused, report.refusal
    return report


def _timed_verify(engine, config, scheme, labeling):
    t0 = time.perf_counter()
    report = engine.verify(config, scheme, labeling)
    return report, time.perf_counter() - t0


def _byte_identical(bulk, ref):
    assert bulk.header == ref.header
    assert set(bulk.labels) == set(ref.labels)
    for key in ref.labels:
        assert bulk.labels[key].data == ref.labels[key].data, key
        assert bulk.labels[key].bit_length == ref.labels[key].bit_length, key


def test_e14_cold_path(benchmark):
    table = Table(
        "E14: cold-path annihilation",
        [
            "n",
            "cold_s",
            "restart_s",
            "cold_x",
            "round_kb",
            "derivations",
            "enc_perlabel_s",
            "enc_bulk_s",
            "enc_x",
        ],
    )
    payload = {"bench": "e14_cold_path", "property": "connected", "series": []}
    with tempfile.TemporaryDirectory() as root:
        for n in SIZES:
            report = _prove(n, seed=n)
            config, scheme, labeling = (
                report.config,
                report.scheme,
                report.labeling,
            )
            cache_root = os.path.join(root, f"cold-{n}")
            # Cold leg: fresh executor over an *empty* cache directory —
            # pays arrays pack + kernel compile + envelope store.
            cold_engine = VerificationEngine(
                make_executor(
                    "vectorized", artifacts=ArtifactCache(root=cache_root)
                )
            )
            cold_report, cold_s = _timed_verify(
                cold_engine, config, scheme, labeling
            )
            round_kb = sum(
                path.stat().st_size
                for path in Path(cache_root).glob("compiled-round*")
            ) / 1024
            # Restart leg: fresh executor + fresh cache object over the
            # warmed directory — a restarted process attaching the
            # persisted compiled round.
            restart_engine = VerificationEngine(
                make_executor(
                    "vectorized", artifacts=ArtifactCache(root=cache_root)
                )
            )
            restart_report, restart_s = _timed_verify(
                restart_engine, config, scheme, labeling
            )
            assert cold_report.accepted
            assert restart_report.verdicts == cold_report.verdicts
            assert restart_report.accepted == cold_report.accepted
            kernel = (cold_report.kernel_stats or {}).get("mode") == "kernel"
            stats = cold_report.kernel_stats or {}
            derivations = stats.get("derivations", 0)
            if kernel:
                assert derivations < cold_report.kernel_stats["records"], (
                    f"cold compile ran {derivations} re-derivations for "
                    f"{cold_report.kernel_stats['records']} records"
                )
                assert restart_report.kernel_stats.get("derivations") == 0
                assert (
                    cold_report.kernel_stats.get("compiled_round_cached")
                    is False
                ), "cold leg unexpectedly found a persisted round"
                assert (
                    restart_report.kernel_stats.get("compiled_round_cached")
                    is True
                ), "restart leg recompiled despite the persisted envelope"
                assert (
                    restart_report.kernel_stats.get("compile_seconds") == 0
                ), "attached round reported nonzero compile time"
            # Encode legs, interleaved: the per-label encode_label loop
            # vs the bulk encoder, per-round ratios, median.
            # Collector paused over the timed region (standard bench
            # hygiene — cyclic-GC pauses land on whichever leg is
            # running and at these sizes swamp the signal).
            perlabel_times, bulk_times, ratios = [], [], []
            gc.collect()
            gc.disable()
            try:
                for _ in range(ENCODE_ROUNDS):
                    t0 = time.perf_counter()
                    header = WireHeader.for_labeling(labeling)
                    for label in labeling.mapping.values():
                        encode_label(label, header)
                    t1 = time.perf_counter()
                    bulk = encode_labeling_columnar(labeling)
                    t2 = time.perf_counter()
                    perlabel_times.append(t1 - t0)
                    bulk_times.append(t2 - t1)
                    ratios.append((t1 - t0) / max(t2 - t1, 1e-9))
            finally:
                gc.enable()
            _byte_identical(bulk, encode_labeling(labeling))
            # Headline ratio from each leg's best-of (timing noise is
            # one-sided additive — the same estimator pytest-benchmark
            # leads with); the per-round median rides in the payload.
            encode_perlabel_s = min(perlabel_times)
            encode_bulk_s = min(bulk_times)
            encode_x = encode_perlabel_s / max(encode_bulk_s, 1e-9)
            encode_x_median = statistics.median(ratios)
            cold_x = cold_s / max(restart_s, 1e-9)
            point = {
                "n": n,
                "cold_s": round(cold_s, 6),
                "restart_s": round(restart_s, 6),
                "cold_speedup": round(cold_x, 2),
                "round_kb": round(round_kb, 2),
                "derivations": derivations,
                "encode_perlabel_s": round(encode_perlabel_s, 6),
                "encode_bulk_s": round(encode_bulk_s, 6),
                "encode_speedup": round(encode_x, 2),
                "encode_speedup_median": round(encode_x_median, 2),
                "encode_rounds": ENCODE_ROUNDS,
                "cold_kernel_stats": cold_report.kernel_stats,
                "restart_kernel_stats": restart_report.kernel_stats,
            }
            payload["series"].append(point)
            table.add(
                n,
                f"{cold_s:.3f}",
                f"{restart_s:.3f}",
                f"{cold_x:.1f}x",
                f"{round_kb:.1f}",
                derivations,
                f"{encode_perlabel_s:.4f}",
                f"{encode_bulk_s:.4f}",
                f"{encode_x:.1f}x",
            )
        table.show()

    if os.environ.get("E14_REQUIRE_SPEEDUP"):
        # The PR 10 gates, checked at the largest n (the committed
        # baseline is generated under this knob; CI smoke runs tiny
        # workloads where fixed overheads drown the ratios).
        top = payload["series"][-1]
        assert top["cold_speedup"] >= 2.0, (
            f"restart leg only {top['cold_speedup']}x over cold at "
            f"n={top['n']} (need >= 2x)"
        )
        assert top["encode_speedup"] >= 3.0, (
            f"bulk encode only {top['encode_speedup']}x over the "
            f"per-label loop at n={top['n']} (need >= 3x)"
        )

    if (
        "E14_OUT" not in os.environ
        and os.path.abspath(OUT_PATH) == os.path.abspath(BASELINE_PATH)
    ):
        raise RuntimeError(
            "refusing to overwrite the committed baseline "
            f"{BASELINE_PATH}; set E14_OUT to refresh it deliberately"
        )
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("BENCH_JSON " + json.dumps(payload, sort_keys=True))

    # Time the steady-state attach-and-verify round for the plugin's
    # trend tracking; keep it tiny so CI smoke stays fast.
    small = min(SIZES)
    report = _prove(small, seed=small)
    engine = VerificationEngine(make_executor("vectorized"))
    engine.verify(report.config, report.scheme, report.labeling)
    benchmark(
        engine.verify, report.config, report.scheme, report.labeling
    )
