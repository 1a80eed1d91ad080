"""repro.incremental — edit-batch recertification for evolving graphs.

Local certification's home turf is self-stabilization: networks that
*change* and must keep their certified invariants current.  This package
closes that loop over the reproduction's pipeline:

* :mod:`repro.graphs.edits` (substrate layer) declares the edit
  vocabulary and applies batches strictly;
* :mod:`repro.incremental.executor` re-verifies only the dirty region
  plus a certified frontier, with a full-round escape hatch;
* :mod:`repro.incremental.certifier` certifies each evolved graph
  through a :class:`~repro.api.session.CertificationSession` (the same
  witness policy as a cold certify), reusing untouched plan-DAG
  artifacts through the content-fingerprint chain.

The service (:mod:`repro.service`) exposes the whole path as an
``update`` op, so deployments stream edits instead of re-shipping
graphs.
"""

from repro.incremental.certifier import (
    IncrementalCertifier,
    IncrementalMetrics,
    IncrementalReport,
)
from repro.incremental.executor import (
    DEFAULT_FRONTIER_HOPS,
    DirtyRegionExecutor,
    RegionReport,
)

__all__ = [
    "IncrementalCertifier",
    "IncrementalMetrics",
    "IncrementalReport",
    "DEFAULT_FRONTIER_HOPS",
    "DirtyRegionExecutor",
    "RegionReport",
]
