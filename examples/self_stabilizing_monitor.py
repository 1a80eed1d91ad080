"""Self-stabilization motivation: certifying an evolving network.

Local certification originates in self-stabilization (Section 1): each
processor must detect, from local information only, whether the global
state is legal.  This example drives :mod:`repro.incremental` the way a
self-stabilizing monitor would: the network's links drift (an edit
stream), every batch is recertified incrementally — untouched
certificates are reused from the artifact cache and the verification
round re-checks only the dirty region plus its certified frontier —
and a fault (an edit the certificates were *not* updated for)
is caught and localized by the round.

Run:  python examples/self_stabilizing_monitor.py
"""

import random

from repro.api import DecomposeStage, witness_decomposer
from repro.graphs import EditBatch, apply_edits
from repro.graphs.edits import add_edge, remove_edge, set_vertex_label
from repro.graphs.generators import random_pathwidth_graph
from repro.incremental import DirtyRegionExecutor, IncrementalCertifier
from repro.pathwidth import PathDecomposition
from repro.pls.model import Configuration

PROPERTY = "connected"


def drift(monitor, rng):
    """One monitoring interval's worth of churn.

    Mostly load relabels (cheap: the certification identity is
    untouched), occasionally a link failure with a replacement spliced
    in between nearby nodes — nodes that share a bag of the current
    graph's default decomposition, so the pathwidth stays within ``k``.
    """
    graph = monitor.graph
    if rng.random() < 0.5:
        vertex = rng.choice(sorted(graph.vertices()))
        return EditBatch([set_vertex_label(vertex, rng.randint(0, 9))])
    safe = [
        (u, v)
        for u, v in sorted(graph.edges(), key=repr)
        if _still_connected(graph, u, v)
    ]
    decomposition, _stats = DecomposeStage(monitor.k).default_decomposer(graph)
    spare = sorted(
        {
            (u, v)
            for bag in decomposition.bags
            for u in bag
            for v in bag
            if u < v and not graph.has_edge(u, v)
        }
    )
    if not safe or not spare:
        vertex = rng.choice(sorted(graph.vertices()))
        return EditBatch([set_vertex_label(vertex, "idle")])
    lost, gained = rng.choice(safe), rng.choice(spare)
    return EditBatch([remove_edge(*lost), add_edge(*gained)])


def _still_connected(graph, u, v):
    probe = graph.copy()
    probe.remove_edge(u, v)
    return probe.is_connected()


def main() -> None:
    rng = random.Random(42)
    graph, bags = random_pathwidth_graph(30, 2, rng)
    monitor = IncrementalCertifier(
        graph,
        [PROPERTY],
        k=2,
        decomposer=witness_decomposer(PathDecomposition(graph, bags)),
        rng=rng,
        full_round_every=4,  # periodic whole-network sweep
    )
    base = monitor.baseline()
    print(f"legal state: network certified = {base.accepted}")

    report = base
    for step in range(6):
        batch = drift(monitor, rng)
        report = monitor.update(batch)
        kinds = ",".join(edit.kind for edit in batch)
        print(
            f"interval {step}: [{kinds}] -> {report.mode} round, "
            f"accepted={report.accepted}, stages run={report.stages_run}, "
            f"artifacts reused={report.artifacts_reused}"
        )
    print(f"monitor counters: {monitor.metrics.to_dict()}")

    # Fault: a link fails but the certificates are NOT updated — the
    # drift a self-stabilizing controller must detect.  The round over
    # the stale labeling rejects, and the rejecting vertices localize
    # the damage (the recovery region).
    certified = report.reports[PROPERTY]
    lost = next(
        (u, v)
        for u, v in sorted(monitor.graph.edges(), key=repr)
        if _still_connected(monitor.graph, u, v)
    )
    faulted = apply_edits(monitor.graph, EditBatch([remove_edge(*lost)]))
    round_ = DirtyRegionExecutor().full_round(
        Configuration(faulted, dict(monitor.config.ids)),
        certified.scheme,
        certified.labeling,
    )
    print(f"fault injected: link {lost} lost, certificates left stale")
    print(f"verification now accepts: {round_.accepted}")
    print(f"fault localized at vertices: {sorted(round_.rejections, key=repr)}")
    print("a self-stabilizing controller would reset exactly this region")


if __name__ == "__main__":
    main()
