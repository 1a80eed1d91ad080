"""Branch-and-bound vertex separation: equivalence, policy and threading.

Four layers of assurance for the exact engine:

* **B&B ≡ subset DP** — a hypothesis suite draws random (possibly
  disconnected) graphs up to the DP's comfortable size and asserts the
  two engines agree on the exact width, and that every B&B ordering
  validates through the interval-representation / path-decomposition
  constructors (which re-check the structural invariants);
* **regression corpus** — graph families with known pathwidth, sized
  well past the old ``_EXACT_LIMIT`` wall, must come back optimal;
* **witness policy** — above the exact cutoff a heuristic witness wider
  than ``k`` gets a seeded branch-and-bound capped at
  ``BNB_NODE_BUDGET`` expanded nodes before the stage refuses; the
  outcome depends on the graph and ``k`` alone, never on the clock, and
  the budget names every Theorem-1 plan key;
* **threading** — the run's ``decomposition_stats`` reach the report
  through the facade/session, survive the report round-trip and feed
  the service metrics.
"""

import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.pipeline as pipeline
import repro.pathwidth.branch_and_bound as bnb
from repro.api import VerificationEngine, certify, make_executor
from repro.api.pipeline import BNB_NODE_BUDGET, DecomposeStage
from repro.api.plan import lanewidth_plan, theorem1_plan
from repro.api.results import CertificationReport
from repro.experiments import lanewidth_workload, pathwidth_workload
from repro.graphs import Graph
from repro.graphs.generators import (
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    ladder_graph,
    path_graph,
    random_pathwidth_graph,
    star_graph,
)
from repro.pathwidth import (
    IntervalRepresentation,
    PathDecomposition,
    branch_and_bound_decomposition,
    branch_and_bound_ordering,
    exact_pathwidth,
)
from repro.pathwidth.bitsets import iter_bits, neighbor_masks
from repro.pathwidth.exact import subset_dp_pathwidth
from repro.pathwidth.heuristics import bfs_ordering
from repro.service.metrics import ServiceMetrics


def _random_graph(rng: random.Random, n: int) -> Graph:
    """A random graph on ``n`` vertices (connectivity not enforced)."""
    g = Graph(vertices=range(n))
    p = rng.choice((0.15, 0.3, 0.5))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


class TestEquivalenceWithDP:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 14))
    def test_width_matches_subset_dp(self, seed, n):
        g = _random_graph(random.Random(seed), n)
        assert exact_pathwidth(g) == subset_dp_pathwidth(g)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
    def test_ordering_validates_and_achieves_width(self, seed, n):
        g = _random_graph(random.Random(seed), n)
        result = branch_and_bound_ordering(g)
        assert result.optimal
        assert sorted(result.ordering) == sorted(g.vertices())
        rep = IntervalRepresentation.from_ordering(g, result.ordering)
        decomposition = PathDecomposition.from_interval_representation(rep)
        assert decomposition.width() == result.width
        assert result.width == subset_dp_pathwidth(g)

    def test_seed_never_beaten_by_result(self):
        # Anytime contract: the returned width is never worse than the
        # heuristic portfolio's, even on instances the search completes.
        for seed in range(5):
            g = _random_graph(random.Random(seed), 20)
            result = branch_and_bound_ordering(g)
            assert result.width <= result.stats.seed_width


def _scan_contraction_degeneracy(masks) -> int:
    """The lower bound with each minimum-degree vertex found by a scan
    of the alive set: the oracle for the heap-driven one."""
    n = len(masks)
    if n <= 1:
        return 0
    adjacency = [set(iter_bits(m)) for m in masks]
    alive = set(range(n))
    worst = 0
    while len(alive) > 1:
        v = min(alive, key=lambda x: len(adjacency[x]))
        degree = len(adjacency[v])
        worst = max(worst, degree)
        alive.discard(v)
        if degree == 0:
            continue
        u = min(adjacency[v], key=lambda x: len(adjacency[x]))
        for w in adjacency[v]:
            adjacency[w].discard(v)
            if w != u:
                adjacency[w].add(u)
                adjacency[u].add(w)
        adjacency[v].clear()
    return worst


class TestLowerBound:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 60))
    def test_heap_matches_scan_on_random_graphs(self, seed, n):
        masks = neighbor_masks(_random_graph(random.Random(seed), n))[1]
        assert bnb._contraction_degeneracy(masks) == (
            _scan_contraction_degeneracy(masks)
        )

    @pytest.mark.parametrize(
        "graph",
        [pytest.param(pathwidth_workload(256, 3, s)[0], id=f"workload256s{s}")
         for s in (1, 2, 11)]
        + [pytest.param(grid_graph(6, 10), id="grid6x10"),
           pytest.param(grid_graph(16, 16), id="grid16x16"),
           pytest.param(cycle_graph(40), id="cycle40")],
    )
    def test_heap_matches_scan_on_hosts_and_grids(self, graph):
        masks = neighbor_masks(graph)[1]
        assert bnb._contraction_degeneracy(masks) == (
            _scan_contraction_degeneracy(masks)
        )


class TestRegressionCorpus:
    # Known-pathwidth families, all past the old exact-DP n<=14 wall.
    @pytest.mark.parametrize(
        "graph, expected",
        [
            (path_graph(40), 1),
            (cycle_graph(40), 2),
            (star_graph(25), 1),
            (caterpillar_graph(10, 2), 1),
            (ladder_graph(15), 2),
            (complete_graph(9), 8),
            (grid_graph(3, 12), 3),
            (grid_graph(4, 8), 4),
        ],
    )
    def test_known_families(self, graph, expected):
        result = branch_and_bound_ordering(graph)
        assert result.optimal
        assert result.width == expected

    def test_planted_pathwidth_instances(self):
        for seed in range(3):
            g, _bags = random_pathwidth_graph(
                50, 4, rng=random.Random(seed)
            )
            result = branch_and_bound_ordering(g)
            assert result.optimal
            assert result.width <= 4
            assert sorted(result.ordering) == sorted(g.vertices())

    def test_empty_graph(self):
        result = branch_and_bound_ordering(Graph())
        assert result.width == -1
        assert result.ordering == []
        assert result.optimal


class TestBudget:
    def test_budget_keeps_anytime_invariants(self):
        g = _random_graph(random.Random(11), 60)
        result = branch_and_bound_ordering(g, node_budget=50)
        # 50 nodes may or may not prove optimality (the lower bound can
        # close it instantly) — but the anytime invariants hold.
        assert sorted(result.ordering) == sorted(g.vertices())
        assert result.width <= result.stats.seed_width
        assert result.stats.nodes_expanded <= 50
        assert result.optimal is not result.stats.exhausted
        if result.stats.exhausted:
            assert result.stats.nodes_expanded == 50

    def test_caller_seed_is_the_only_seed(self):
        g = grid_graph(3, 6)
        seed = sorted(g.vertices())  # row by row: width 6
        result = branch_and_bound_ordering(g, node_budget=0, seed_ordering=seed)
        assert result.stats.seed_width == 6
        assert result.width == 6 and result.stats.exhausted
        with pytest.raises(ValueError):
            branch_and_bound_ordering(g, seed_ordering=seed[1:])

    def test_stats_to_dict_keys(self):
        g = grid_graph(3, 5)
        result = branch_and_bound_ordering(g)
        stats = result.stats.to_dict()
        for key in (
            "nodes_expanded",
            "memo_hits",
            "memo_entries",
            "greedy_commits",
            "components",
            "lower_bound",
            "seed_width",
            "elapsed_ms",
            "node_budget",
            "exhausted",
        ):
            assert key in stats

    def test_decomposition_pairs_with_result(self):
        g = cycle_graph(12)
        decomposition, result = branch_and_bound_decomposition(g)
        assert decomposition.width() == result.width == 2


class TestKnobThreading:
    def test_graph_mode_records_bnb_stats(self):
        g = path_graph(10)
        report = certify(g, "connected", k=2, verify=False)
        stats = report.decomposition_stats
        assert stats is not None
        assert stats["engine"] == "bnb"
        assert stats["optimal"] is True
        assert stats["width"] == 1
        assert "bnb width 1" in report.summary()

    def test_large_graph_defaults_to_heuristic(self):
        g, _bags = random_pathwidth_graph(40, 3, rng=random.Random(2))
        report = certify(g, "connected", k=6, verify=False)
        assert report.decomposition_stats["engine"] == "heuristic"

    def test_report_roundtrip_preserves_stats(self):
        g = path_graph(8)
        report = certify(g, "connected", k=2, verify=False)
        rebuilt = CertificationReport.from_dict(report.to_dict())
        assert rebuilt.decomposition_stats == report.decomposition_stats

    def test_service_metrics_decomposition_counters(self):
        metrics = ServiceMetrics()
        metrics.decomposition_run(
            {
                "engine": "bnb",
                "nodes_expanded": 12,
                "memo_hits": 3,
                "exhausted": False,
                "width": 4,
                "heuristic_width": 5,
            }
        )
        metrics.decomposition_run(
            {
                "engine": "heuristic",
                "width": 6,
                "heuristic_width": 6,
                "exhausted": True,
            }
        )
        snapshot = metrics.snapshot()["decomposition"]
        assert snapshot["engines"] == {"bnb": 1, "heuristic": 1}
        assert snapshot["nodes_expanded"] == 12
        assert snapshot["memo_hits"] == 3
        assert snapshot["budget_exhausted"] == 1
        assert snapshot["width_improvements"] == 1


def _comparable(stats: dict) -> dict:
    """Stats minus the one measurement that reads the clock."""
    return {key: value for key, value in stats.items() if key != "elapsed_ms"}


class TestWitnessPolicy:
    """Above the exact cutoff: the heuristic witness when it fits ``k``,
    else a seeded branch-and-bound capped at ``BNB_NODE_BUDGET`` nodes
    before the stage refuses."""

    @pytest.mark.parametrize("kind", ["serial", "vectorized"])
    def test_bnb_rescues_a_heuristic_miss(self, kind):
        g, _planted = pathwidth_workload(64, 3, 1)
        engine = VerificationEngine(make_executor(kind))
        report = certify(g, "connected", k=3, rng=random.Random(1),
                         engine=engine)
        assert report.accepted, report.summary()
        stats = report.decomposition_stats
        assert stats["engine"] == "bnb"
        assert stats["heuristic_width"] == 4
        assert stats["width"] == 3
        assert stats["node_budget"] == BNB_NODE_BUDGET
        assert not stats["exhausted"]

    def test_refusal_spends_at_most_the_budget(self):
        g = grid_graph(6, 10)  # pathwidth 6
        report = certify(g, "connected", k=5, verify=False)
        assert report.refused
        assert report.refusal_reason == "width"
        assert (
            f"heuristic 6, branch-and-bound 6 after {BNB_NODE_BUDGET} nodes"
            in report.refusal
        )
        _decomposition, stats = DecomposeStage(5).default_decomposer(g)
        assert stats["engine"] == "bnb" and stats["exhausted"]
        assert not stats["optimal"]
        assert stats["nodes_expanded"] == BNB_NODE_BUDGET

    def test_deep_dive_runs_without_recursion(self):
        # A BFS seed of width 6 sends the search on a single dive of
        # about 128 nodes to width 3; Python frames must not grow with it.
        g, _planted = pathwidth_workload(512, 3, 1)
        seed = bfs_ordering(g)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            result = branch_and_bound_ordering(
                g, node_budget=BNB_NODE_BUDGET, seed_ordering=seed
            )
        finally:
            sys.setrecursionlimit(limit)
        assert result.stats.seed_width == 6
        assert result.width == 3 and result.stats.nodes_expanded > 60

    def test_no_decision_reads_the_clock(self, monkeypatch):
        cases = [(pathwidth_workload(64, 3, 1)[0], 3), (grid_graph(6, 10), 5)]
        before = [DecomposeStage(k).default_decomposer(g) for g, k in cases]
        ticks = iter(range(10 ** 6))
        monkeypatch.setattr(bnb, "perf_counter", lambda: 60.0 * next(ticks))
        after = [DecomposeStage(k).default_decomposer(g) for g, k in cases]
        for (dec_a, stats_a), (dec_b, stats_b) in zip(before, after):
            assert dec_a.bags == dec_b.bags
            assert _comparable(stats_a) == _comparable(stats_b)
            assert stats_b["elapsed_ms"] >= 60_000  # the patch took

    def test_budget_names_every_theorem1_key(self, monkeypatch):
        seq, _graph = lanewidth_workload(3, 32, 1)
        sources = {"graph": "fp", "config": "cfp", "algebra": "connected"}
        plans = {"theorem1": theorem1_plan(3), "lanewidth": lanewidth_plan(seq)}
        before = {mode: plan.chain_keys(sources) for mode, plan in plans.items()}
        monkeypatch.setattr(pipeline, "BNB_NODE_BUDGET", BNB_NODE_BUDGET + 1)
        after = {mode: plan.chain_keys(sources) for mode, plan in plans.items()}
        theorem1 = [name for name in after["theorem1"]
                    if name not in sources]
        assert "decomposition" in theorem1
        for name in theorem1:
            assert after["theorem1"][name] != before["theorem1"][name], name
        assert after["lanewidth"] == before["lanewidth"]
