"""E3/F3 — Proposition 4.6: lanes <= f(k), congestion <= g(k)/h(k).

Measures, over random connected graphs of interval width k, the worst
observed lane count and embedding congestion against the paper's bounds.
The Proposition 4.6 builder is the Theorem-1 prover's fallback, and its
bounds stay asserted here; the table also reports, on the same hosts,
Observation 4.3's greedy lanes (embedded along shortest paths), which
the prover keeps whenever they meet the same bounds.
"""

from repro.core import build_lane_partition, f_bound, g_bound, h_bound
from repro.core.lane_partition import greedy_lanes
from repro.experiments import Table, pathwidth_workload, seed_stream

ROOT_SEED = 3


def _measure(k: int, trials: int, n: int) -> tuple:
    stream = seed_stream(ROOT_SEED, f"e3-width-{k}")
    worst_lanes = worst_weak = worst_full = 0
    greedy_lanes_max = greedy_full = 0
    for t in range(trials):
        graph, decomposition = pathwidth_workload(n, k - 1, seed=stream.seed(t))
        rep = decomposition.to_interval_representation()
        result = build_lane_partition(graph, rep)
        result.partition.validate()
        result.full_embedding().validate()
        worst_lanes = max(worst_lanes, result.partition.width)
        worst_weak = max(worst_weak, result.weak_embedding.congestion())
        worst_full = max(worst_full, result.full_embedding().congestion())
        greedy = greedy_lanes(graph, rep)
        greedy.full_embedding().validate()
        greedy_lanes_max = max(greedy_lanes_max, greedy.partition.width)
        greedy_full = max(greedy_full, greedy.full_embedding().congestion())
    return worst_lanes, worst_weak, worst_full, greedy_lanes_max, greedy_full


def test_e3_lanes_and_congestion(benchmark):
    table = Table(
        "E3: Proposition 4.6 bounds (worst over 25 random graphs, n=60)",
        ["k", "lanes", "f(k)", "weak_congestion", "g(k)", "full_congestion",
         "h(k)", "greedy_lanes", "greedy_congestion"],
    )
    for k in (2, 3, 4):
        lanes, weak, full, g_lanes, g_full = _measure(k, trials=25, n=60)
        table.add(
            k, lanes, f_bound(k), weak, g_bound(k), full, h_bound(k),
            g_lanes, g_full,
        )
        assert lanes <= f_bound(k)
        assert weak <= g_bound(k)
        assert full <= h_bound(k)
    table.show()

    benchmark(_measure, 3, 5, 60)
