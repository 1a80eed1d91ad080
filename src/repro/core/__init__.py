"""The paper's primary contribution.

Section 4: lane partitions of interval representations, completions, and
low-congestion embeddings (Proposition 4.6).  Section 5: lanewidth,
k-lane graphs, Bridge/Parent/Tree-merge, hierarchical decompositions of
bounded depth (Observation 5.5), and the T-node construction
(Proposition 5.6).  Section 6: O(log n)-bit certification of k-lane
recursive graphs (Lemmas 6.4/6.5) and the Theorem 1 scheme.

The schemes here are the stable legacy entry points and the verifier
halves session reports carry; their provers run the plans of
:mod:`repro.api.plan` through its one runner.  :mod:`repro.api` is the
preferred surface for new code (structured reports, per-stage timings,
and cross-property structural caching via ``CertificationSession``).
"""

from repro.core.lanes import KLanePartition, greedy_lane_partition
from repro.core.completion import CompletionResult, build_completion
from repro.core.embedding import Embedding
from repro.core.lane_partition import f_bound, g_bound, h_bound, build_lane_partition
from repro.core.lanewidth import (
    ConstructionSequence,
    apply_construction,
    construction_sequence_from_completion,
    random_lanewidth_sequence,
)
from repro.core.klane_graph import KLaneGraph, bridge_merge, parent_merge, tree_merge
from repro.core.hierarchy import (
    HierarchyNode,
    evaluate_hierarchy,
    hierarchy_depth,
    validate_hierarchy,
)
from repro.core.construction import build_hierarchy
from repro.core.scheme import LanewidthScheme, Theorem1Scheme, certify_lanewidth_graph

__all__ = [
    "KLanePartition",
    "greedy_lane_partition",
    "CompletionResult",
    "build_completion",
    "Embedding",
    "f_bound",
    "g_bound",
    "h_bound",
    "build_lane_partition",
    "ConstructionSequence",
    "apply_construction",
    "construction_sequence_from_completion",
    "random_lanewidth_sequence",
    "KLaneGraph",
    "bridge_merge",
    "parent_merge",
    "tree_merge",
    "HierarchyNode",
    "evaluate_hierarchy",
    "hierarchy_depth",
    "validate_hierarchy",
    "build_hierarchy",
    "LanewidthScheme",
    "Theorem1Scheme",
    "certify_lanewidth_graph",
]
