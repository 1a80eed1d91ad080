"""Profile the cold certification path, stage by stage.

The cold path is one ``certify`` call in a fresh process: decompose the
host, prove the hierarchy, assemble + wire-encode the labels, compile
the vectorized verification round, and run it.  This harness drives
exactly that under :mod:`cProfile` and reports two views:

* a **stage table** — wall-clock seconds per pipeline stage (from the
  report's own ``stage_timings``) plus the PR 10 cold-path counters
  (``encode_seconds``, ``compile_seconds``, verifier round time), each
  with its share of the end-to-end total;
* the **top-N profile rows** by cumulative time, for drilling into
  whatever stage dominates.

Output is human-readable on stdout plus one machine-readable JSON file
(``--json``, default ``profile_cold.json``) and a ``PROFILE_JSON`` line
— the same trajectory convention the E-series benchmarks use.  CI runs
this as a smoke step on a small workload; locally, crank ``--n`` up.

Usage::

    PYTHONPATH=src python tools/profile_cold.py [--n 256] [--seed 8]
        [--engine vectorized] [--json profile_cold.json] [--top 15]
"""

import argparse
import cProfile
import io
import json
import pstats
import sys
import time

from repro.api import CertificationSession, VerificationEngine, make_executor
from repro.experiments import lanewidth_workload, seed_stream

#: Pipeline stages folded into the "prove" row of the summary table —
#: everything between the decomposition and the wire encode.
PROVE_STAGES = ("lanes", "completion", "match", "hierarchy", "evaluate", "label")


def run_cold(n: int, seed: int, engine_kind: str):
    """One fresh-process certify (prove + encode + compile + verify)."""
    sequence, _graph = lanewidth_workload(3, n, seed)
    engine = VerificationEngine(make_executor(engine_kind))
    session = CertificationSession(
        rng=seed_stream(8, "ids").rng(seed), engine=engine
    )
    started = time.perf_counter()
    report = session.certify(sequence, "connected")
    total_s = time.perf_counter() - started
    return report, total_s


def stage_rows(report, total_s: float):
    """(name, seconds) rows for the summary table, coarsest first."""
    decompose_s = report.stage_seconds("decompose")
    prove_s = sum(report.stage_seconds(name) for name in PROVE_STAGES)
    verify_s = (
        report.verification.elapsed_seconds
        if report.verification is not None
        else 0.0
    )
    # Kernel compile happens *inside* the verification round; report it
    # as its own row and leave only the kernel evaluation under verify.
    rows = [
        ("decompose", decompose_s),
        ("prove", prove_s),
        ("encode", report.encode_seconds),
        ("compile", report.compile_seconds),
        ("verify", max(0.0, verify_s - report.compile_seconds)),
    ]
    accounted = sum(seconds for _name, seconds in rows)
    rows.append(("other", max(0.0, total_s - accounted)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=256, help="host size")
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument(
        "--engine",
        default="vectorized",
        help="executor kind (serial/vectorized)",
    )
    parser.add_argument("--json", default="profile_cold.json")
    parser.add_argument(
        "--top", type=int, default=15, help="profile rows to print"
    )
    args = parser.parse_args(argv)

    profiler = cProfile.Profile()
    profiler.enable()
    report, total_s = run_cold(args.n, args.seed, args.engine)
    profiler.disable()
    if report.refused:
        print(f"prover refused: {report.refusal}", file=sys.stderr)
        return 1

    rows = stage_rows(report, total_s)
    print(f"cold path, n={args.n}, engine={args.engine}")
    print(f"{'stage':<12}{'seconds':>10}{'share':>8}")
    for name, seconds in rows:
        share = seconds / total_s if total_s else 0.0
        print(f"{name:<12}{seconds:>10.4f}{share:>7.1%}")
    print(f"{'total':<12}{total_s:>10.4f}")

    stats = pstats.Stats(profiler, stream=io.StringIO())
    stream = io.StringIO()
    stats.stream = stream
    stats.sort_stats("cumulative").print_stats(args.top)
    print()
    print(stream.getvalue().rstrip())

    kernel_stats = (
        report.verification.kernel_stats
        if report.verification is not None
        else None
    ) or {}
    payload = {
        "tool": "profile_cold",
        "n": args.n,
        "seed": args.seed,
        "engine": args.engine,
        "accepted": report.accepted,
        "total_s": round(total_s, 6),
        "stages": {name: round(seconds, 6) for name, seconds in rows},
        "compiled_round_cached": bool(
            kernel_stats.get("compiled_round_cached", False)
        ),
        "kernel_mode": kernel_stats.get("mode"),
    }
    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("PROFILE_JSON " + json.dumps(payload, sort_keys=True))
    return 0 if report.accepted else 1


if __name__ == "__main__":
    raise SystemExit(main())
