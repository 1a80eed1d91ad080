"""Profile the cold certification path, stage by stage, in both input modes.

The cold path is one ``certify`` call in a fresh session: decompose the
host, prove the hierarchy, assemble + wire-encode the labels, compile
the vectorized verification round, and run it.  This harness drives
exactly that twice per input mode — a lanewidth host (a construction sequence, so no decompose) and then a Theorem-1
host (a plain graph from ``pathwidth_workload(n, 3, seed)`` certified at
``k=8``, the perfbench ``theorem1-cold`` setting, because the heuristic
decomposer sometimes returns width 4–6) — and reports two views per
mode, each from its own fresh-session certify:

* a **stage table**, timed on plain passes (no profiler, so the
  Python-heavy stages are not inflated) — wall-clock seconds per
  pipeline stage (from the report's own ``stage_timings``) plus the
  cold-path counters (``encode_seconds``, ``compile_seconds``, verifier
  round time), each with its share of the end-to-end total.  Three
  plain passes run, each in a fresh interpreter, so each is the first
  certify of its process; the table is the one whose ``other`` share is
  the median of the three, and that median is what the gate reads, so
  one noisy pass neither trips nor hides it;
* the **top-N profile rows** by cumulative time, from one more pass
  under :mod:`cProfile`, for drilling into whatever stage dominates.

Each plain pass also times the interpreter's cyclic garbage collector
(through :data:`gc.callbacks`): the seconds spent inside collections and
the number of full (generation-2) collections, printed under the stage
table and kept as ``gc_s`` / ``gc_full`` in the mode's JSON block (from
the median pass).  They are informational: collections run inside the
stage rows, so no row is net of them, and nothing gates on them.  The
line after them gives the round compile's re-derivations
(``kernel_stats["derivations"]``, 0 on the serial engine), kept as
``derivations`` in the same block.

After the cold runs, the lanewidth certificate is saved into a
temporary store and re-verified twice with a vectorized executor, each
time from a fresh ``CertificateStore``: the first ``store.reverify``
compiles the round and persists it, the second attaches it.  These run
without cProfile; each leg prints rows for load, decode (the record
table decode, timed through the store's ``decode_labeling_columnar``),
hash (graph fingerprint, configuration key and labeling digest),
artifact get, compile/attach, kernel and fallback views (self times),
plus the number of table decodes (calls of that decoder),
whether a label object was built (``materialized``),
``compiled_round_cached`` and the round's ``compile_seconds``.

Output is human-readable on stdout plus one machine-readable JSON file
(``--json``, default ``profile_cold.json``) and a ``PROFILE_JSON`` line,
with one block per mode and one for the reverify legs — the same
trajectory convention the E-series benchmarks use.  The exit status is
1 when either mode refuses or its verification round rejects, when a
reverify round rejects, when the attach leg did not attach (it must
report ``compiled_round_cached=True``, zero compile seconds and no
decode, so a leg that silently recompiles fails), when the compiling
leg decoded more than once, when either leg built a label object, or
when a cold
mode's median ``other`` share — time no stage row explains — exceeds 5%
of that mode's total.  The reverify legs print their ``other`` share
too, but it is not gated: those rows are wrapped callables, not the
library's own timers.  CI runs this as a smoke step on a small
workload; locally, crank ``--n`` up.

Usage::

    PYTHONPATH=src python tools/profile_cold.py [--n 256] [--seed 8]
        [--engine vectorized] [--json profile_cold.json] [--top 15]
"""

import argparse
import cProfile
import gc
import io
import json
import multiprocessing
import pstats
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import repro.api.plan as plan_module
import repro.api.store as store_module
import repro.api.vectorized as vectorized_module
from repro.api import (
    ArtifactCache,
    CertificateStore,
    CertificationSession,
    VerificationEngine,
    make_executor,
)
from repro.experiments import lanewidth_workload, pathwidth_workload, seed_stream
from repro.graphs import Graph

#: Pipeline stages folded into the "prove" row of the summary table —
#: everything between the decomposition and the wire encode.
PROVE_STAGES = ("lanes", "completion", "match", "hierarchy", "evaluate", "label")

#: Pathwidth bound certified in Theorem-1 mode (the hosts have witness
#: width 3; the heuristic decomposer does not always find it).
THEOREM1_K = 8

MODES = ("lanewidth", "theorem1")

#: Gate on a cold mode's ``other`` row (time no stage row explains), as
#: a share of that mode's total: the median over ``PLAIN_PASSES`` plain
#: passes.
MAX_OTHER_SHARE = 0.05
PLAIN_PASSES = 3

#: Reverify layers timed by wrapping the callable that runs them:
#: (row, owner, attribute).  Compile and kernel time come from the
#: round's own ``kernel_stats``.  The ``hash`` row is every identity
#: hash a reverify computes: the graph fingerprint the load checks, the
#: configuration key and the labeling digest the compiled round is
#: keyed on.
REVERIFY_LAYERS = (
    ("load", CertificateStore, "load"),
    ("decode", store_module, "decode_labeling_columnar"),
    ("hash", Graph, "fingerprint"),
    ("hash", plan_module, "config_fingerprint"),
    ("hash", store_module, "labeling_digest"),
    ("artifact get", ArtifactCache, "get"),
    ("attach", vectorized_module, "_attach_compiled_round"),
    ("fallback views", vectorized_module, "_run_views"),
)


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


@contextmanager
def gc_timer():
    """Time cyclic collections while the block runs.

    Yields a dict whose ``gc_s`` (seconds inside collections) and
    ``gc_full`` (generation-2 collections) fill in as the block runs.
    """
    totals = {"gc_s": 0.0, "gc_full": 0}
    began = []

    def callback(phase, info):
        if phase == "start":
            began.append(time.perf_counter())
        elif began:
            totals["gc_s"] += time.perf_counter() - began.pop()
            totals["gc_full"] += info["generation"] == 2

    gc.callbacks.append(callback)
    try:
        yield totals
    finally:
        gc.callbacks.remove(callback)


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


def cold_pass(mode: str, n: int, seed: int, engine_kind: str) -> dict:
    """One plain certify in this interpreter, timed and reduced to data."""
    with gc_timer() as collected:
        report, total_s = run_cold(mode, n, seed, engine_kind)
    if report.refused:
        return {"refused": True, "refusal": report.refusal}
    kernel_stats = (
        report.verification.kernel_stats
        if report.verification is not None
        else None
    ) or {}
    return {
        "refused": False,
        "accepted": report.accepted,
        "total_s": total_s,
        "rows": stage_rows(report, total_s),
        "gc_s": collected["gc_s"],
        "gc_full": collected["gc_full"],
        "compiled_round_cached": bool(
            kernel_stats.get("compiled_round_cached", False)
        ),
        "kernel_mode": kernel_stats.get("mode"),
        "derivations": kernel_stats.get("derivations", 0),
    }


def plain_pass(mode: str, args) -> dict:
    """:func:`cold_pass` in a fresh interpreter.

    Each pass is then the first certify of its process, as the single
    pass this tool used to time was.  Passes repeated in one process are
    not alike: the first pays one-time costs (numpy's first calls in the
    compile row, say) that the later ones do not.
    """
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(
            cold_pass, mode, args.n, args.seed, args.engine
        ).result()


def profile_mode(mode: str, args):
    """Time one mode in plain passes, then profile one more; print both.

    Returns its JSON block and the profiled run's report (``None`` when
    a plain pass refused).
    """
    passes = [plain_pass(mode, args) for _ in range(PLAIN_PASSES)]
    print(f"cold path, mode={mode}, n={args.n}, engine={args.engine}")
    refused = next((p for p in passes if p["refused"]), None)
    if refused is not None:
        print(f"prover refused: {refused['refusal']}", file=sys.stderr)
        block = {"refused": True, "refusal": refused["refusal"], "accepted": False}
        return block, None

    shares = [dict(p["rows"])["other"] / p["total_s"] for p in passes]
    median = sorted(range(len(passes)), key=shares.__getitem__)[len(passes) // 2]
    chosen = passes[median]
    total_s = chosen["total_s"]
    print(f"{'stage':<12}{'seconds':>10}{'share':>8}")
    for name, seconds in chosen["rows"]:
        print(f"{name:<12}{seconds:>10.4f}{seconds / total_s:>7.1%}")
    print(f"{'total':<12}{total_s:>10.4f}")
    print(
        f"unattributed: {shares[median]:.1%} of the total, the median of "
        f"{', '.join(f'{share:.1%}' for share in shares)} "
        f"(gate {MAX_OTHER_SHARE:.0%})"
    )
    gc_s = chosen["gc_s"]
    print(
        f"cyclic gc: {gc_s:.4f} s ({gc_s / total_s:.1%}), "
        f"{chosen['gc_full']} full collections "
        "(inside the rows above; not gated)"
    )
    print(
        f"compile re-derivations: {chosen['derivations']} "
        "(one per shape of each check)"
    )

    profiler = cProfile.Profile()
    profiler.enable()
    report, _total_s = run_cold(mode, args.n, args.seed, args.engine)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=io.StringIO())
    stream = io.StringIO()
    stats.stream = stream
    stats.sort_stats("cumulative").print_stats(args.top)
    print()
    print(stream.getvalue().rstrip())
    print()

    block = {
        "refused": False,
        "accepted": all(p["accepted"] for p in passes) and report.accepted,
        "total_s": round(total_s, 6),
        "stages": {name: round(seconds, 6) for name, seconds in chosen["rows"]},
        "other_share": round(shares[median], 6),
        "other_shares": [round(share, 6) for share in shares],
        "gc_s": round(gc_s, 6),
        "gc_full": chosen["gc_full"],
        "compiled_round_cached": chosen["compiled_round_cached"],
        "kernel_mode": chosen["kernel_mode"],
        "derivations": chosen["derivations"],
    }
    return block, report


@contextmanager
def self_seconds(layers):
    """Sum each layer's self time (nested layers charged to themselves)
    and count its calls; yields ``(seconds, calls)`` by row."""
    seconds = {row: 0.0 for row, _owner, _attribute in layers}
    calls = dict.fromkeys(seconds, 0)
    children = []  # time spent in timed layers below the current one
    originals = []
    for row, owner, attribute in layers:
        function = getattr(owner, attribute)

        def timed(*args, _row=row, _function=function, **kwargs):
            calls[_row] += 1
            children.append(0.0)
            began = time.perf_counter()
            try:
                return _function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - began
                seconds[_row] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        originals.append((owner, attribute, function))
        setattr(owner, attribute, timed)
    try:
        yield seconds, calls
    finally:
        for owner, attribute, function in originals:
            setattr(owner, attribute, function)


def reverify_leg(root, fingerprint: str) -> dict:
    """One fresh-store ``store.reverify`` with a vectorized executor."""
    store = CertificateStore(root)
    engine = VerificationEngine(make_executor("vectorized"))
    with self_seconds(REVERIFY_LAYERS) as (seconds, calls):
        started = time.perf_counter()
        report = store.reverify(fingerprint, "connected", engine=engine)
        total_s = time.perf_counter() - started
    stats = report.verification.kernel_stats or {}
    rows = [
        ("load", seconds["load"]),
        ("decode", seconds["decode"]),
        ("hash", seconds["hash"]),
        ("artifact get", seconds["artifact get"]),
        ("compile/attach", stats.get("compile_seconds", 0.0) + seconds["attach"]),
        ("kernel", stats.get("kernel_seconds", 0.0)),
        ("fallback views", seconds["fallback views"]),
    ]
    other = max(0.0, total_s - sum(s for _r, s in rows))
    rows.append(("other", other))
    return {
        "accepted": report.accepted,
        "total_s": round(total_s, 6),
        "stages": {row: round(s, 6) for row, s in rows},
        "other_share": round(other / total_s if total_s else 0.0, 6),
        "decodes": calls["decode"],
        "materialized": report.labeling.mapping.decoded is not None,
        "compiled_round_cached": bool(stats.get("compiled_round_cached", False)),
        "compile_seconds": stats.get("compile_seconds", 0.0),
    }


def profile_reverify(report) -> dict:
    """Store ``report`` and time a compiling, then an attaching, reverify."""
    fingerprint = report.config.graph.fingerprint()
    legs = {}
    with tempfile.TemporaryDirectory() as root:
        CertificateStore(root).save(report)
        for leg in ("compile", "attach"):
            block = legs[leg] = reverify_leg(root, fingerprint)
            print(f"stored reverify, leg={leg}, engine=vectorized")
            print(f"{'stage':<16}{'seconds':>10}")
            for row, seconds in block["stages"].items():
                print(f"{row:<16}{seconds:>10.4f}")
            print(f"{'total':<16}{block['total_s']:>10.4f}")
            print(f"unattributed: {block['other_share']:.1%} (not gated)")
            print(
                f"accepted={block['accepted']} decodes={block['decodes']} "
                f"materialized={block['materialized']} "
                f"compiled_round_cached={block['compiled_round_cached']} "
                f"compile_seconds={block['compile_seconds']:.4f}"
            )
            print()
    return legs


def reverify_ok(legs: dict) -> bool:
    """Every leg accepts and builds no label object, the compiling leg
    decodes at most once, and the attach leg really attached.

    The attach leg must report the round cached, no compile time and no
    decode: a leg that silently recompiles fails.  The compiling leg
    compiles from the record table the wire form decodes to, once.
    """
    attach = legs["attach"]
    return (
        all(leg["accepted"] for leg in legs.values())
        and not any(leg["materialized"] for leg in legs.values())
        and legs["compile"]["decodes"] <= 1
        and attach["compiled_round_cached"]
        and attach["compile_seconds"] == 0
        and attach["decodes"] == 0
    )


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

    modes = {}
    reverify = {}
    for mode in MODES:
        modes[mode], report = profile_mode(mode, args)
        if mode == "lanewidth" and report is not None:
            reverify = profile_reverify(report)
    payload = {
        "tool": "profile_cold",
        "n": args.n,
        "seed": args.seed,
        "engine": args.engine,
        "modes": modes,
        "reverify": reverify,
    }
    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("PROFILE_JSON " + json.dumps(payload, sort_keys=True))
    accepted = all(block["accepted"] for block in modes.values())
    attributed = all(
        block.get("other_share", 0.0) <= MAX_OTHER_SHARE
        for block in modes.values()
    )
    if accepted and not attributed:
        print(
            f"unattributed time above {MAX_OTHER_SHARE:.0%} of a cold mode",
            file=sys.stderr,
        )
    ok = accepted and attributed and reverify and reverify_ok(reverify)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
