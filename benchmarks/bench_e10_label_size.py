"""E10b — measured wire-encoded label size: the O(log n) claim on bytes.

(E10 proper is the minor-freeness experiment in
``bench_e10_minor_free.py``; this companion took the "label size" half
of the slot when the wire codec landed — the ``e10_label_size`` id below
is what tooling should key on.)

E1 established the Θ(log n) shape on the *accounted* sizes; since the
wire codec landed, reports quote the *measured* encoding (exact bit
length of each label's byte string, ``docs/FORMAT.md``).  This benchmark
regenerates the headline curve on the measured figure — max encoded
bits vs n over lanewidth families — asserts it stays sub-linear with a
``≈ c*log n`` fit, checks measured ≤ accounted pointwise, and emits the
whole series as one machine-readable ``BENCH_JSON`` line:

    BENCH_JSON {"bench": "e10_label_size", "series": [...], ...}

E10c holds Theorem-1 mode — the paper's scheme on a plain graph, with
the planted witness decomposition — to the same bounds at fixed k, and
emits its own ``e10c_theorem1_label_size`` line.  Its labels carry the
lane partition the prover kept (Observation 4.3's greedy lanes, or
Proposition 4.6's as the fallback); each row names the builder.
"""

import json
import math
import random

from repro.api import CertificationSession, certify
from repro.experiments import (
    Table,
    fit_log_slope,
    lanewidth_workload,
    pathwidth_workload,
)

SIZES = (32, 128, 512, 2048)
WIDTHS = (2, 3)
PATHWIDTHS = (2, 3)
PROPERTY = "connected"


def _measure(width: int, n: int, seed: int):
    """Certify one host and return its report (labels only, no round)."""
    sequence, _graph = lanewidth_workload(width, n, seed)
    session = CertificationSession(rng=random.Random(seed + 1))
    # verify=False: E10 measures certificate bytes, not the round.
    report = session.certify(sequence, PROPERTY, verify=False)
    assert not report.refused, report.refusal
    return report


def _measure_theorem1(k: int, n: int, seed: int):
    """Certify one plain graph on its planted witness (no round)."""
    graph, decomposition = pathwidth_workload(n, k, seed)
    report = certify(
        graph,
        PROPERTY,
        k=k,
        rng=random.Random(seed + 1),
        decomposer=lambda _g: decomposition,
        verify=False,
    )
    assert not report.refused, report.refusal
    return report


def _log_shaped(key, points) -> dict:
    """Assert the c.log n shape on ``(n, max bits)`` points; summarize."""
    slope = fit_log_slope(points)
    lo, hi = points[0], points[-1]
    n_ratio = hi[0] / lo[0]
    bits_ratio = hi[1] / lo[1]
    log_ratio = math.log2(hi[0]) / math.log2(lo[0])
    # Sub-linear: 64x the vertices must come nowhere near 64x the
    # bits; c.log n shape: growth tracks log2 n up to a constant.
    assert bits_ratio < 0.25 * n_ratio, (key, points)
    assert bits_ratio <= 1.6 * log_ratio, (key, points)
    return {
        "points": [{"n": n, "max_encoded_bits": b} for n, b in points],
        "log2_slope": round(slope, 2),
        "bits_ratio": round(bits_ratio, 3),
        "n_ratio": n_ratio,
    }


def test_e10_label_size(benchmark):
    table = Table(
        "E10b: measured wire-encoded label size vs n",
        ["w", "n", "max_encoded_bits", "accounted_bits", "bits/log2(n)", "stored_KiB"],
    )
    payload = {"bench": "e10_label_size", "property": PROPERTY, "series": []}

    for width in WIDTHS:
        points = []
        for n in SIZES:
            report = _measure(width, n, seed=width * 9000 + n)
            bits = report.max_label_bits
            accounted = report.accounted_max_label_bits
            # The wire encoding is the ground truth and must never
            # exceed what the arithmetic accounting promised.
            assert bits <= accounted, (width, n, bits, accounted)
            points.append((n, bits))
            table.add(
                width,
                n,
                bits,
                accounted,
                f"{bits / math.log2(n):.1f}",
                f"{report.encoded.total_bytes / 1024:.1f}",
            )
        payload["series"].append(
            {"width": width, **_log_shaped(width, points)}
        )

    table.show()
    print("BENCH_JSON " + json.dumps(payload, sort_keys=True))

    benchmark(_measure, 3, 256, 77)


def test_e10c_theorem1_label_size():
    table = Table(
        "E10c: Theorem-1 measured label size vs n (planted witness)",
        ["k", "n", "max_encoded_bits", "accounted_bits", "bits/log2(n)",
         "lanes", "builder", "depth"],
    )
    payload = {
        "bench": "e10c_theorem1_label_size", "property": PROPERTY, "series": []
    }
    for k in PATHWIDTHS:
        points = []
        for n in SIZES:
            report = _measure_theorem1(k, n, seed=k * 9000 + n)
            bits = report.max_label_bits
            accounted = report.accounted_max_label_bits
            assert bits <= accounted, (k, n, bits, accounted)
            points.append((n, bits))
            table.add(
                k,
                n,
                bits,
                accounted,
                f"{bits / math.log2(n):.1f}",
                report.lane_count,
                report.lane_stats["builder"],
                report.hierarchy_depth,
            )
        payload["series"].append({"k": k, **_log_shaped(k, points)})

    table.show()
    print("BENCH_JSON " + json.dumps(payload, sort_keys=True))
