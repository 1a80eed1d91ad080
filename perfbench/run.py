"""Benchmark: cold certify in both input modes, and stored reverify.

Run from the repository root::

    python3 perfbench/run.py --workload theorem1-cold --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 perfbench/run.py --self-test

One run is one process with one closed-loop client: it times one op
after another through the public ``repro.api`` surface for ``--seconds``
(and for at least the workload's ``min_ops`` ops), checks every verdict
against ground truth computed apart from the verifier, and prints the
metrics by name with their units, then one JSON object as the last line
of standard output.

Op times are reported in reference loops (unit ``ref``): an op's wall
time over the median wall time of a fixed pure-Python loop run right
before and right after it (:func:`reference_loop`).  On a shared host a
busy neighbour can slow every op by up to 2x for seconds at a time;
that slows the loop about as much, so the ratio keeps the program's cost
and drops most of the machine's.  The wall-clock median is printed too,
as a note.

``--trace 0`` reports the end-to-end metrics;
``--trace 1`` is a separate traced run that reports the per-layer
metrics and writes its spans to ``.perfbench_out/``.  Workloads, metrics
and units are declared in ``BENCHMARK.json`` at the repository root; the
ops are defined in ``workloads.py``.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from the benchmark's first line

import argparse
import ctypes
import functools
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Failure kinds that mean the program's output was wrong.  A refusal is
#: a failed op but not a wrong output.
INCORRECT = ("wrong_verdict", "mismatch", "exception")
FAIL_KINDS = ("refused",) + INCORRECT

END_TO_END_UNITS = {
    "op_ref_p50": "ref",
    "op_ref_tail": "ref",
    "ok_share": "ratio",
    "max_label_bits": "bits",
    "mean_label_bits": "bits",
    "disk_kb_per_cert": "KiB",
    "op_rss_rise_mb": "MiB",
    "setup_s": "s",
}

#: Metrics that must repeat exactly between two runs at one seed.
EXACT_END_TO_END = ("max_label_bits", "mean_label_bits", "disk_kb_per_cert")

#: Per-layer metrics not derived from spans (the rest live in ``spans.py``).
RUN_LAYER_UNITS = {
    "session.unattributed_s": "s",
    "session.unattributed_share": "ratio",
    "setup.import_s": "s",
    "setup.generate_s": "s",
    "setup.populate_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    **{f"fail.{kind}": "count" for kind in FAIL_KINDS},
}

#: Set-up runs this many times per timed run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Size and repeats of the reference loop (see :func:`reference_reading`).
REFERENCE_ROWS = 15000
REFERENCE_REPEATS = 3


def import_library():
    """Put the checkout's ``src/`` first on the path and load the modules."""
    if not (SOURCE / "repro").is_dir():
        raise SystemExit(f"perfbench: no library sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    # One thread, like the rest of the run.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import spans
    import workloads

    return spans, workloads


def per_layer_units(spans) -> dict:
    return {
        **{name: "s" for name in spans.LAYER_TIMES},
        **spans.LAYER_COUNTS,
        **RUN_LAYER_UNITS,
    }


@functools.cache
def _libc():
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    return libc


def release_memory() -> None:
    """Collect garbage and hand freed heap back to the kernel.

    Every op then starts from the same heap and resident size, whatever
    the previous host needed.
    """
    gc.collect()
    libc = _libc()
    if libc is not None:
        libc.malloc_trim(0)


def reset_peak_rss() -> None:
    """Restart the kernel's resident-size high-water mark at the current size."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # the peak then also covers what ran before


def status_mb(field: str) -> float:
    """``VmRSS`` (resident size) or ``VmHWM`` (its peak) of this process, MiB."""
    status = Path("/proc/self/status").read_text()
    return int(status.split(f"{field}:")[1].split()[0]) / 1024


def reference_loop() -> int:
    """Fixed pure-Python work that shares no code with the library.

    It allocates tuples, strings and a dict, as the ops do, so a busy
    neighbour on a shared host slows it about as much as it slows an op;
    a change to the library leaves it alone.
    """
    rows = [(i, i * 7 % 1000, str(i)) for i in range(REFERENCE_ROWS)]
    index = {row[2]: row for row in rows}
    return sum(index[str(i)][1] for i in range(0, REFERENCE_ROWS, 3))


def reference_reading() -> list:
    """Wall times of a few reference loops, with the collector off.

    With the collector off the loop's time does not depend on how many
    objects the library left alive.
    """
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            start = perf_counter()
            reference_loop()
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    return times


# ----------------------------------------------------------------------
# One op.
# ----------------------------------------------------------------------
def judge(workload, host, report, error):
    """Failure kind of one op, or ``None`` when it ended correctly."""
    if error is not None:
        return "exception"
    if report.refused:
        return "refused"
    if report.accepted != host.truth:
        return "wrong_verdict"
    if workload.live and report.structure_cached:
        return "mismatch"  # a cold op was served from a cache
    recorded = host.recorded
    if recorded is not None:
        if report.accepted != recorded["accepted"]:
            return "wrong_verdict"
        measured = (report.encoded.max_bits, report.encoded.total_bits)
        if measured != (recorded["max_bits"], recorded["total_bits"]):
            return "mismatch"
    return None


def run_op(workload, index, tracer=None, host=None):
    """Build the input, time the op, judge it; return its record."""
    began = perf_counter()
    host = host or workload.host(index)
    generate_s = perf_counter() - began
    release_memory()
    reset_peak_rss()
    start_mb = status_mb("VmRSS")
    report = error = None
    start = perf_counter()
    try:
        if tracer is None:
            report = workload.op(host)
        else:
            with tracer.op(index, workload.root_span) as root:
                report = workload.op(host)
    except Exception:
        error = traceback.format_exc()
    seconds = perf_counter() - start
    record = {
        "index": index,
        "seconds": seconds,
        "rise_mb": status_mb("VmHWM") - start_mb,
        "generate_s": generate_s,
        "fingerprint": host.fingerprint,
        "fail": judge(workload, host, report, error),
    }
    if error is not None:
        print(error, file=sys.stderr)
    if report is not None and not report.refused:
        encoded = report.encoded
        record.update(
            accepted=report.accepted,
            max_bits=encoded.max_bits,
            total_bits=encoded.total_bits,
            labels=len(encoded.labels),
        )
        if index < workload.exact_ops:
            record["disk"] = workload.disk_bytes(host, report)
        if tracer is not None:
            record.update(tracer.layers(root, workload, host, report))
    workload.release(host)
    return record


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def latency(records, q, key="seconds"):
    """Nearest-rank ``q`` percentile of ``key``, failed ops ranked slowest.

    A percentile that lands on a failed op reads as the run's slowest op
    time, so a failure can only raise the figure.
    """
    ranked = sorted(
        record[key] if record["fail"] is None else math.inf for record in records
    )
    value = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    if value == math.inf:
        return max(record[key] for record in records)
    return value


def exact_prefix(workload, records):
    """Records of the leading ops whose sizes are reported."""
    return [
        record
        for record in records
        if record["index"] < workload.exact_ops and "max_bits" in record
    ]


def size_metrics(workload, records) -> dict:
    prefix = exact_prefix(workload, records)
    if not prefix:
        return {name: 0.0 for name in EXACT_END_TO_END}
    return {
        "max_label_bits": statistics.fmean(r["max_bits"] for r in prefix),
        "mean_label_bits": (
            sum(r["total_bits"] for r in prefix)
            / sum(r["labels"] for r in prefix)
        ),
        "disk_kb_per_cert": statistics.fmean(r["disk"] for r in prefix) / 1024,
    }


def fail_counts(records) -> dict:
    return {
        kind: sum(record["fail"] == kind for record in records)
        for kind in FAIL_KINDS
    }


def is_correct(records, fresh_hosts: bool) -> bool:
    counts = fail_counts(records)
    if any(counts[kind] for kind in INCORRECT):
        return False
    if fresh_hosts:  # a cold run never repeats a host
        fingerprints = [record["fingerprint"] for record in records]
        return len(set(fingerprints)) == len(fingerprints)
    return True


# ----------------------------------------------------------------------
# Runs.
# ----------------------------------------------------------------------
def setup_probe(workload_name: str, seed: int, tiny: bool) -> float:
    """Set up once more in a fresh interpreter; return its set-up time."""
    command = [
        sys.executable, str(Path(__file__)), "--setup-probe",
        "--workload", workload_name, "--seed", str(seed),
    ] + (["--tiny"] if tiny else [])
    child = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120
    )
    return json.loads(child.stdout.decode().splitlines()[-1])["setup_s"]


def run_referenced(workload, index, before, tracer=None):
    """:func:`run_op` followed by a reference reading.

    ``before`` is the reading taken just before the op.  The record gets
    the op's time in reference loops, ``ref``: its wall time over the
    median of the readings on either side.  Returns the record and the
    reading after, which is the next op's ``before``.
    """
    record = run_op(workload, index, tracer)
    after = reference_reading()
    record["ref"] = record["seconds"] / statistics.median(before + after)
    return record, after


def timed_run(workload, seconds, base_setup_s, tiny) -> dict:
    setups = [base_setup_s] + [
        setup_probe(workload.name, workload.seed, tiny)
        for _ in range(SETUP_REPEATS - 1)
    ]
    records = []
    reading = reference_reading()
    readings = list(reading)
    began = perf_counter()
    while len(records) < workload.min_ops or perf_counter() - began < seconds:
        record, reading = run_referenced(workload, len(records), reading)
        readings += reading
        records.append(record)
    ok = sum(record["fail"] is None for record in records)
    metrics = {
        "op_ref_p50": latency(records, 0.5, "ref"),
        "op_ref_tail": latency(records, workload.tail_q, "ref"),
        "ok_share": ok / len(records),
        **size_metrics(workload, records),
        # The rise, not the peak itself: what the heap keeps after a large
        # host lifts every later op's starting size, by an amount that
        # depends on the order the hosts came in.
        "op_rss_rise_mb": statistics.fmean(r["rise_mb"] for r in records),
        "setup_s": statistics.median(setups) + workload.populate_s,
    }
    return {
        "records": records,
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "correct": is_correct(records, workload.live),
        "notes": {
            "wall op_s p50": latency(records, 0.5),
            "reference loop s p50": statistics.median(readings),
        },
    }


def traced_run(workload, seconds, spans) -> dict:
    """Trace each host once and run it once untraced, alternating order.

    The untraced twin gives the tracing overhead and a second verdict to
    compare; both runs of a host are cold to the library (fresh inputs,
    session, executor and store).
    """
    tracer = spans.Tracer()
    traced, plain = [], []
    reading = reference_reading()
    began = perf_counter()
    index = 0
    while index < workload.exact_ops or perf_counter() - began < seconds:
        for with_trace in (True, False) if index % 2 == 0 else (False, True):
            record, reading = run_referenced(
                workload, index, reading, tracer if with_trace else None
            )
            (traced if with_trace else plain).append(record)
        index += 1
    compared = ("fail", "accepted", "max_bits", "total_bits")
    agree = all(
        [a.get(key) for key in compared] == [b.get(key) for key in compared]
        for a, b in zip(traced, plain)
    )
    measured = [r for r in traced if "session.unattributed_s" in r]
    prefix = exact_prefix(workload, measured)
    metrics = {
        name: statistics.median(r[name] for r in measured) if measured else 0.0
        for name in list(spans.LAYER_TIMES)
        + ["session.unattributed_s", "session.unattributed_share"]
    }
    for name in spans.LAYER_COUNTS:
        values = [r[name] for r in prefix]
        if not values:
            metrics[name] = 0.0
        elif name.endswith("_share"):
            metrics[name] = statistics.fmean(values)
        else:
            metrics[name] = statistics.median(values)
    # In reference loops, like the end-to-end op times, then in seconds
    # at the untraced ops' median wall time.
    overhead_share = (
        statistics.median(r["ref"] for r in traced)
        / statistics.median(r["ref"] for r in plain)
        - 1
    )
    untraced_p50 = statistics.median(r["seconds"] for r in plain)
    metrics.update(
        {
            "setup.generate_s": statistics.median(
                r["generate_s"] for r in traced + plain
            ),
            "setup.populate_s": workload.populate_s,
            "trace.overhead_s": overhead_share * untraced_p50,
            "trace.overhead_share": overhead_share,
        }
    )
    counts = fail_counts(traced + plain)
    metrics.update({f"fail.{kind}": count for kind, count in counts.items()})
    out = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{workload.seed}.json"
    tracer.write(out)
    return {
        "records": traced + plain,
        "metrics": metrics,
        "units": per_layer_units(spans),
        "correct": agree and is_correct(traced + plain, False),
    }


@contextmanager
def scratch_dir():
    """A private directory under ``.perfbench_tmp/``, removed on exit."""
    parent = ROOT / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another directory is still in use


def run_workload(name, seed, seconds, trace, tiny=False) -> dict:
    """One run of one workload; returns the result the CLI prints."""
    spans, workloads = import_library()
    import_s = perf_counter() - STARTED
    with scratch_dir() as scratch:
        workload = workloads.WORKLOADS[name](seed, scratch, tiny)
        try:
            workload.warm_up()
            base_setup_s = perf_counter() - STARTED
            workload.populate()
            if trace:
                result = traced_run(workload, seconds, spans)
                result["metrics"]["setup.import_s"] = import_s
            else:
                result = timed_run(workload, seconds, base_setup_s, tiny)
        finally:
            workload.close()
    records = result.pop("records")
    units = result.pop("units")
    return {
        "correct": result["correct"],
        "attempted": len(records),
        "failed": sum(record["fail"] is not None for record in records),
        "metrics": {
            metric: {"value": result["metrics"][metric], "unit": unit}
            for metric, unit in units.items()
        },
        "failures": fail_counts(records),
        "notes": result.get("notes", {}),
    }


def print_result(name, result) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name}  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    for note, value in result["notes"].items():
        print(f"{name}  ({note}: {value:.6g}; machine-dependent, not a metric)")
    kinds = ", ".join(f"{k}={v}" for k, v in result["failures"].items())
    print(
        f"{name}  {result['attempted']} ops, {result['failed']} failed ({kinds}),"
        f" correct={result['correct']}"
    )


# ----------------------------------------------------------------------
# Self-test.
# ----------------------------------------------------------------------
def self_test(seed: int) -> int:
    """Every workload at tiny sizes, twice per mode; returns an exit code."""
    spans, workloads = import_library()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)

    for trace, section, exact in (
        (0, "end_to_end", EXACT_END_TO_END),
        (1, "per_layer", tuple(spans.LAYER_COUNTS)),
    ):
        units = {m["name"]: m["unit"] for m in declared[section]}
        for name in workloads.WORKLOADS:
            first, second = (
                run_workload(name, seed, 0, trace, tiny=True) for _ in range(2)
            )
            printed = {m: e["unit"] for m, e in first["metrics"].items()}
            check(printed == units, f"{name} trace={trace}: metrics/units differ")
            check(first["correct"], f"{name} trace={trace}: not correct")
            for metric in exact:
                a = first["metrics"][metric]["value"]
                b = second["metrics"][metric]["value"]
                check(a == b, f"{name} trace={trace}: {metric} {a} != {b}")

    # A disconnected host is refused: it counts as a failure and ranks
    # slowest in both percentiles although it is the fastest op.
    with scratch_dir() as scratch:
        workload = workloads.Theorem1Cold(seed, scratch, tiny=True)
        records = [
            run_op(workload, 0, host=workload.disconnected_host(0)),
            run_op(workload, 1),
            run_op(workload, 2, host=workload.disconnected_host(2)),
        ]
    check(
        [r["fail"] for r in records] == ["refused", None, "refused"],
        "disconnected hosts are not counted as refused",
    )
    slowest = max(r["seconds"] for r in records)
    check(
        latency(records, 0.5) == slowest
        and latency(records, workload.tail_q) == slowest,
        "a failed op does not rank slowest",
    )
    for problem in problems:
        print(f"self-test: {problem}")
    print(f"self-test: {'FAILED' if problems else 'passed'}")
    return 1 if problems else 0


# ----------------------------------------------------------------------
def run_all(args) -> int:
    """Each workload in its own fresh interpreter; a table and one JSON."""
    _spans, workloads = import_library()
    results = {}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ] + (["--tiny"] if args.tiny else []),
            cwd=ROOT, stdout=subprocess.PIPE, timeout=600,
        )
        lines = child.stdout.decode().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else {"correct": False}
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", help="theorem1-cold, lanewidth-cold, stored-reverify or all"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--populate", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.populate:  # child of a stored-reverify run
        _spans, workloads = import_library()
        workload = workloads.StoredReverify(args.seed, None, args.tiny)
        workload.directory = Path(args.populate)
        print(json.dumps(workload.populate_here()))
        return 0
    if args.setup_probe:  # child of a timed run: set up once more
        _spans, workloads = import_library()
        with scratch_dir() as scratch:
            workloads.WORKLOADS[args.workload](args.seed, scratch, args.tiny).warm_up()
            print(json.dumps({"setup_s": perf_counter() - STARTED}))
        return 0
    if args.self_test:
        return self_test(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print_result(args.workload, result)
    del result["failures"], result["notes"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
