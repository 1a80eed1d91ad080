"""Profile the cold certification path, stage by stage, in both input modes.

The cold path is one ``certify`` call in a fresh session: decompose the
host, prove the hierarchy, assemble + wire-encode the labels, compile
the vectorized verification round, and run it.  This harness drives
exactly that under :mod:`cProfile`, once per input mode — a lanewidth
host (a construction sequence, so no decompose) and then a Theorem-1
host (a plain graph from ``pathwidth_workload(n, 3, seed)`` certified at
``k=8``, the perfbench ``theorem1-cold`` setting, because the heuristic
decomposer sometimes returns width 4–6) — and reports two views per
mode:

* a **stage table** — wall-clock seconds per pipeline stage (from the
  report's own ``stage_timings``) plus the PR 10 cold-path counters
  (``encode_seconds``, ``compile_seconds``, verifier round time), each
  with its share of the end-to-end total;
* the **top-N profile rows** by cumulative time, for drilling into
  whatever stage dominates.

Output is human-readable on stdout plus one machine-readable JSON file
(``--json``, default ``profile_cold.json``) and a ``PROFILE_JSON`` line,
each with one block per mode — the same trajectory convention the
E-series benchmarks use.  The exit status is 1 when either mode refuses
or its verification round rejects.  CI runs this as a smoke step on a
small workload; locally, crank ``--n`` up.

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
from repro.experiments import lanewidth_workload, pathwidth_workload, seed_stream

#: Pipeline stages folded into the "prove" row of the summary table —
#: everything between the decomposition and the wire encode.
PROVE_STAGES = ("lanes", "completion", "match", "hierarchy", "evaluate", "label")

#: Pathwidth bound certified in Theorem-1 mode (the hosts have witness
#: width 3; the heuristic decomposer does not always find it).
THEOREM1_K = 8

MODES = ("lanewidth", "theorem1")


def run_cold(mode: str, n: int, seed: int, engine_kind: str):
    """One fresh-session certify (prove + encode + compile + verify)."""
    engine = VerificationEngine(make_executor(engine_kind))
    rng = seed_stream(8, "ids").rng(seed)
    if mode == "lanewidth":
        target, _graph = lanewidth_workload(3, n, seed)
        session = CertificationSession(rng=rng, engine=engine)
    else:
        target, _decomposition = pathwidth_workload(n, 3, seed)
        session = CertificationSession(k=THEOREM1_K, rng=rng, engine=engine)
    started = time.perf_counter()
    report = session.certify(target, "connected")
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


def profile_mode(mode: str, args) -> dict:
    """Profile one mode, print its tables, and return its JSON block."""
    profiler = cProfile.Profile()
    profiler.enable()
    report, total_s = run_cold(mode, args.n, args.seed, args.engine)
    profiler.disable()
    print(f"cold path, mode={mode}, n={args.n}, engine={args.engine}")
    if report.refused:
        print(f"prover refused: {report.refusal}", file=sys.stderr)
        return {"refused": True, "refusal": report.refusal, "accepted": False}

    rows = stage_rows(report, total_s)
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
    print()

    kernel_stats = (
        report.verification.kernel_stats
        if report.verification is not None
        else None
    ) or {}
    return {
        "refused": False,
        "accepted": report.accepted,
        "total_s": round(total_s, 6),
        "stages": {name: round(seconds, 6) for name, seconds in rows},
        "compiled_round_cached": bool(
            kernel_stats.get("compiled_round_cached", False)
        ),
        "kernel_mode": kernel_stats.get("mode"),
    }


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

    modes = {mode: profile_mode(mode, args) for mode in MODES}
    payload = {
        "tool": "profile_cold",
        "n": args.n,
        "seed": args.seed,
        "engine": args.engine,
        "modes": modes,
    }
    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("PROFILE_JSON " + json.dumps(payload, sort_keys=True))
    return 0 if all(block["accepted"] for block in modes.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
