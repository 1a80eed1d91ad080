"""E13 — exact decomposition engines: branch-and-bound vs DP vs heuristic.

Four series, one per claim the decomposition engines make:

* **small** (n ≤ 14, the old ``_EXACT_LIMIT`` regime): the
  branch-and-bound width must equal the subset-DP optimum on *every*
  case — asserted, not just recorded — with wall-clock for both engines
  and the heuristic portfolio's width alongside;
* **scale** (planted ``random_pathwidth_graph`` instances far past the
  DP's 2^n wall): the search must *prove* optimality within its node
  budget (default: n=50, pathwidth ≤ 6, 200,000 nodes) — the regime
  where the subset DP is simply infeasible (2^50 states);
* **e2e** (end-to-end certification buckets): ``certify`` runs twice on
  graphs where the heuristic portfolio is measurably suboptimal — once
  with the default witness search (at ``k`` = the heuristic width it
  keeps the heuristic witness) and once with a ``decomposer=`` that runs
  the branch-and-bound seeded with the heuristic ordering under a node
  budget — and the series records achieved width, hierarchy depth, and
  measured label bits for both.  The E1/E4 benches are lanewidth
  workloads with no decompose stage, so this is where the decomposition
  engine's downstream effect on depth/bits lives.  Gates: the
  branch-and-bound width is never worse than the heuristic's, and the
  first bucket's search, run twice, expands the same nodes to the same
  width (node budgets, not wall-clock ones, so every field but the
  ``*_s`` timings, ``elapsed_ms`` and the heuristic series' growth
  ratios regenerates identically);
* **heuristic** (scale): the stage's default decomposer at ``k=8`` on
  ``pathwidth_workload(n, 3, 1)``, three trials that each time every
  ``n`` once, round-robin.  Gates: a median of at most 0.5 s at
  n=1024, and at most 3× per doubling of ``n`` (a quadratic step reads
  about 4×) as the median over trials of each trial's ratio between
  consecutive sizes, so CPU steal that covers one size's runs cannot
  fail the gate alone; the next quadratic in
  decompose fails here before a certify at realistic size meets it.
  A second, disconnected row (``heuristic_disconnected``) runs
  ``heuristic_path_decomposition`` on ``n/2`` disjoint edges under the
  same gates: every component start empties the greedy search's
  frontier.

Output follows the house pattern: a ``BENCH_JSON`` line on stdout plus
a JSON file (``E13_OUT``, default ``BENCH_E13.json`` in the working
directory; the committed baseline at ``benchmarks/BENCH_E13.json`` is
refused unless ``E13_OUT`` names it explicitly).

Environment knobs (CI's smoke step shrinks everything):
``E13_SMALL_SIZES``, ``E13_SMALL_TRIALS``, ``E13_SCALE_N``,
``E13_SCALE_K``, ``E13_SCALE_TRIALS``, ``E13_SCALE_NODE_BUDGET``,
``E13_E2E_BUCKETS`` (``n:p:seed`` triples, comma-separated; empty
skips the series), ``E13_E2E_NODE_BUDGET``, ``E13_HEUR_SIZES``
(ascending, comma-separated; empty skips the series), ``E13_OUT``.
"""

import gc
import json
import math
import os
import random
import statistics
import time

from repro.api import certify
from repro.api.pipeline import DecomposeStage, bnb_stats
from repro.experiments import Table, pathwidth_workload
from repro.graphs import Graph
from repro.graphs.generators import random_pathwidth_graph
from repro.pathwidth import (
    branch_and_bound_decomposition,
    branch_and_bound_ordering,
)
from repro.pathwidth.branch_and_bound import ordering_from_decomposition
from repro.pathwidth.exact import subset_dp_pathwidth
from repro.pathwidth.heuristics import heuristic_path_decomposition

SMALL_SIZES = tuple(
    int(n) for n in os.environ.get("E13_SMALL_SIZES", "8,11,14").split(",")
)
SMALL_TRIALS = int(os.environ.get("E13_SMALL_TRIALS", "3"))
SCALE_N = int(os.environ.get("E13_SCALE_N", "50"))
SCALE_K = int(os.environ.get("E13_SCALE_K", "6"))
SCALE_TRIALS = int(os.environ.get("E13_SCALE_TRIALS", "5"))
SCALE_NODE_BUDGET = int(os.environ.get("E13_SCALE_NODE_BUDGET", "200000"))
E2E_BUCKETS = os.environ.get("E13_E2E_BUCKETS", "40:0.07:4,40:0.07:5,60:0.05:4")
E2E_NODE_BUDGET = int(os.environ.get("E13_E2E_NODE_BUDGET", "120000"))
HEUR_SIZES = tuple(
    int(n)
    for n in os.environ.get("E13_HEUR_SIZES", "1024,2048,4096").split(",")
    if n
)
HEUR_RUNS = 3
#: Heuristic-series gates: seconds at n=1024, and growth per doubling.
HEUR_MAX_S_AT_1024 = 0.5
HEUR_MAX_GROWTH = 3.0
OUT_PATH = os.environ.get("E13_OUT", "BENCH_E13.json")
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_E13.json")


def _gnp(seed: int, n: int, p: float) -> Graph:
    """A connected G(n, p) draw (reseeded until connected)."""
    rng = random.Random(seed)
    while True:
        g = Graph(vertices=range(n))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    g.add_edge(u, v)
        if g.is_connected():
            return g


def _small_series():
    table = Table(
        "E13a: B&B vs DP vs heuristic (n <= 14)",
        ["n", "seed", "width", "dp_s", "bnb_s", "heur_width"],
    )
    series = []
    for n in SMALL_SIZES:
        for seed in range(SMALL_TRIALS):
            g = _gnp(seed, n, 0.3)
            t0 = time.perf_counter()
            dp_width = subset_dp_pathwidth(g)
            dp_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            result = branch_and_bound_ordering(g)
            bnb_s = time.perf_counter() - t0
            heur_width = heuristic_path_decomposition(g).width()
            # The headline gate: B&B matches the DP optimum everywhere.
            assert result.optimal
            assert result.width == dp_width, (
                f"B&B width {result.width} != DP width {dp_width} "
                f"on n={n} seed={seed}"
            )
            assert result.width <= heur_width
            series.append(
                {
                    "n": n,
                    "seed": seed,
                    "width": dp_width,
                    "dp_s": round(dp_s, 6),
                    "bnb_s": round(bnb_s, 6),
                    "heuristic_width": heur_width,
                    "nodes_expanded": result.stats.nodes_expanded,
                    "memo_hits": result.stats.memo_hits,
                }
            )
            table.add(
                n,
                seed,
                dp_width,
                f"{dp_s:.4f}",
                f"{bnb_s:.4f}",
                heur_width,
            )
    table.show()
    return series


def _scale_series():
    table = Table(
        f"E13b: planted n={SCALE_N}, pathwidth <= {SCALE_K} "
        f"(budget {SCALE_NODE_BUDGET} nodes; DP infeasible at 2^n states)",
        ["seed", "heur_width", "bnb_width", "optimal", "bnb_s", "nodes"],
    )
    series = []
    for seed in range(SCALE_TRIALS):
        g, _bags = random_pathwidth_graph(
            SCALE_N, SCALE_K, rng=random.Random(seed)
        )
        heur_width = heuristic_path_decomposition(g).width()
        t0 = time.perf_counter()
        result = branch_and_bound_ordering(g, node_budget=SCALE_NODE_BUDGET)
        bnb_s = time.perf_counter() - t0
        assert result.width <= heur_width
        assert result.width <= SCALE_K
        # The scale gate: optimality *proven* within budget, in a size
        # regime the subset DP cannot touch.
        assert result.optimal, (
            f"budget of {SCALE_NODE_BUDGET} nodes spent on seed {seed} "
            f"(incumbent width {result.width})"
        )
        series.append(
            {
                "n": SCALE_N,
                "k": SCALE_K,
                "seed": seed,
                "heuristic_width": heur_width,
                "bnb_width": result.width,
                "optimal": result.optimal,
                "bnb_s": round(bnb_s, 6),
                "nodes_expanded": result.stats.nodes_expanded,
                "memo_hits": result.stats.memo_hits,
                "lower_bound": result.stats.lower_bound,
            }
        )
        table.add(
            seed,
            heur_width,
            result.width,
            result.optimal,
            f"{bnb_s:.3f}",
            result.stats.nodes_expanded,
        )
    table.show()
    return series


def _bnb_witness(graph):
    """``decomposer=`` hook: the heuristic-seeded, node-budgeted search."""
    seeded = heuristic_path_decomposition(graph)
    decomposition, result = branch_and_bound_decomposition(
        graph,
        node_budget=E2E_NODE_BUDGET,
        seed_ordering=ordering_from_decomposition(seeded),
    )
    return decomposition, bnb_stats(decomposition, result, seeded.width())


def _e2e_series():
    """Certification buckets: heuristic vs node-budgeted B&B witness."""
    table = Table(
        "E13c: end-to-end certify (heuristic vs bnb witness)",
        [
            "n",
            "seed",
            "h_width",
            "b_width",
            "h_depth",
            "b_depth",
            "h_bits",
            "b_bits",
        ],
    )
    series = []
    buckets = [b for b in E2E_BUCKETS.split(",") if b]
    for bucket in buckets:
        n_str, p_str, seed_str = bucket.split(":")
        n, p, seed = int(n_str), float(p_str), int(seed_str)
        g = _gnp(seed, n, p)
        heur_width = heuristic_path_decomposition(g).width()
        # Same k bound for both runs, so only the witness engine varies.
        k = heur_width
        rng_ids = random.Random(seed)
        heuristic = certify(
            g, "connected", k=k, rng=random.Random(rng_ids.random()),
            verify=False,
        )
        budgeted = certify(
            g, "connected", k=k, rng=random.Random(rng_ids.random()),
            verify=False, decomposer=_bnb_witness,
        )
        assert not heuristic.refused and not budgeted.refused
        h_stats = heuristic.decomposition_stats
        b_stats = budgeted.decomposition_stats
        assert h_stats["engine"] == "heuristic"
        assert b_stats["engine"] == "bnb"
        # The CI gate: the budgeted witness is never wider.
        assert b_stats["width"] <= h_stats["width"], (
            f"bnb width {b_stats['width']} exceeds heuristic "
            f"{h_stats['width']} on n={n} seed={seed}"
        )
        if not series:
            # Reproducibility gate: a node budget, not a deadline, so a
            # second run of the same search ends in the same place.
            _again, again = _bnb_witness(g)
            for field in ("width", "optimal", "nodes_expanded"):
                assert again[field] == b_stats[field], (
                    f"bnb {field} {again[field]} != {b_stats[field]} on "
                    f"rerun of n={n} seed={seed}"
                )
        series.append(
            {
                "n": n,
                "p": p,
                "seed": seed,
                "k": k,
                "heuristic": {
                    "width": h_stats["width"],
                    "hierarchy_depth": heuristic.hierarchy_depth,
                    "total_label_bits": heuristic.total_label_bits,
                    "max_label_bits": heuristic.max_label_bits,
                },
                "bnb": {
                    "width": b_stats["width"],
                    "optimal": b_stats["optimal"],
                    "hierarchy_depth": budgeted.hierarchy_depth,
                    "total_label_bits": budgeted.total_label_bits,
                    "max_label_bits": budgeted.max_label_bits,
                    "nodes_expanded": b_stats["nodes_expanded"],
                    "node_budget": b_stats["node_budget"],
                },
            }
        )
        table.add(
            n,
            seed,
            h_stats["width"],
            b_stats["width"],
            heuristic.hierarchy_depth,
            budgeted.hierarchy_depth,
            heuristic.total_label_bits,
            budgeted.total_label_bits,
        )
    table.show()
    return series


def _disjoint_edges(n: int) -> Graph:
    """``n/2`` disjoint edges: a component start at every other vertex."""
    graph = Graph(vertices=range(n))
    for u in range(0, n - 1, 2):
        graph.add_edge(u, u + 1)
    return graph


def _heuristic_only(graph):
    return heuristic_path_decomposition(graph), {"engine": "heuristic"}


def _doubling_series(title, make_graph, decompose, label):
    """Timings of ``decompose`` per ``n`` in ``HEUR_SIZES``, gated at
    n=1024 and per doubling.

    Each of the ``HEUR_RUNS`` trials times every size once, round-robin,
    so a burst of CPU steal slows one trial of each size it covers, not
    every run of one size.  The growth per doubling is the median, over
    trials, of the ratio between consecutive sizes within a trial.
    """
    graphs = {}
    for n in HEUR_SIZES:
        graphs[n] = make_graph(n)
        graphs[n].csr  # built once per graph; time the decomposer alone
    seconds = {n: [] for n in HEUR_SIZES}
    results = {}
    for _ in range(HEUR_RUNS):
        for n in HEUR_SIZES:
            # Each run starts from a collected heap, so no size pays for
            # the garbage the size before it left behind.
            gc.collect()
            t0 = time.perf_counter()
            results[n] = decompose(graphs[n])
            seconds[n].append(time.perf_counter() - t0)
    table = Table(
        f"{title}, {HEUR_RUNS} round-robin trials",
        ["n", "engine", "width", "median_s", "x_per_doubling"],
    )
    series = []
    previous = None
    for n in HEUR_SIZES:
        decomposition, stats = results[n]
        median = statistics.median(seconds[n])
        row = {
            "n": n,
            "engine": stats["engine"],
            "width": decomposition.width(),
            "median_s": round(median, 6),
        }
        growth = None
        if previous is not None:
            doublings = math.log2(n / previous)
            growth = statistics.median(
                (now / before) ** (1.0 / doublings)
                for now, before in zip(seconds[n], seconds[previous])
            )
            row["growth_per_doubling"] = round(growth, 3)
            assert growth <= HEUR_MAX_GROWTH, (
                f"{label} grew {growth:.2f}x per doubling "
                f"from n={previous} to n={n}"
            )
        if n == 1024:
            assert median <= HEUR_MAX_S_AT_1024, (
                f"{label} took {median:.3f} s at n=1024"
            )
        series.append(row)
        table.add(
            n,
            stats["engine"],
            decomposition.width(),
            f"{median:.4f}",
            "" if growth is None else f"{growth:.2f}",
        )
        previous = n
    table.show()
    return series


def _heuristic_series():
    """The default decomposer's cost as ``n`` doubles (scale gate)."""
    return _doubling_series(
        "E13d: default decomposer, k=8, pathwidth_workload(n, 3, 1)",
        lambda n: pathwidth_workload(n, 3, 1)[0],
        DecomposeStage(8).default_decomposer,
        "default decomposer",
    )


def _disconnected_series():
    """The heuristic on n/2 disjoint edges (the empty-frontier path)."""
    return _doubling_series(
        "E13e: heuristic_path_decomposition, n/2 disjoint edges",
        _disjoint_edges,
        _heuristic_only,
        "heuristic on disjoint edges",
    )


def test_e13_decomposition(benchmark):
    payload = {
        "bench": "e13_decomposition",
        "small": _small_series(),
        "scale": _scale_series(),
        "e2e": _e2e_series(),
        "heuristic": _heuristic_series(),
        "heuristic_disconnected": _disconnected_series(),
    }
    improved = sum(
        1
        for row in payload["e2e"]
        if row["bnb"]["width"] < row["heuristic"]["width"]
    )
    payload["e2e_width_improvements"] = improved

    if (
        "E13_OUT" not in os.environ
        and os.path.abspath(OUT_PATH) == os.path.abspath(BASELINE_PATH)
    ):
        raise RuntimeError(
            "refusing to overwrite the committed baseline "
            f"{BASELINE_PATH}; set E13_OUT to refresh it deliberately"
        )
    with open(OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("BENCH_JSON " + json.dumps(payload, sort_keys=True))

    # Time the smallest planted instance so the smoke run stays tiny.
    g, _bags = random_pathwidth_graph(
        min(SCALE_N, 30), min(SCALE_K, 3), rng=random.Random(0)
    )
    benchmark(branch_and_bound_ordering, g)
