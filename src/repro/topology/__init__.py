"""Communication-graph generation and analysis.

The paper evaluates the protocols on random regular graphs generated with
NetworkX and filtered so that their vertex connectivity is at least
``2f + 1``.  This package provides that workload generator — NetworkX
3.6.1's pairing algorithm ported call for call, so the graphs are the
paper's and no NetworkX release can change them — plus a few
deterministic topologies (Harary graphs, rings, complete graphs, …) used
by the tests, and analysis helpers (vertex connectivity, disjoint-path
counts, cut vertices, connectivity under churn) used to validate that a
topology meets the protocol requirements.

Every graph question goes through one bit-mask kernel,
:mod:`repro.topology.kernel`: vertex-disjoint paths by BFS augmenting
paths on the vertex-split graph (common neighbours counted first, since
some maximum path set always contains them), and vertex connectivity as
the minimum over the Esfahanian–Hakimi pair set.  The package needs
nothing outside the standard library.
"""

from repro.topology.generators import (
    Topology,
    complete_topology,
    harary_topology,
    line_topology,
    random_regular_topology,
    ring_topology,
    torus_topology,
)
from repro.topology.analysis import (
    articulation_points,
    disjoint_path_count,
    meets_connectivity_requirement,
    vertex_connectivity,
)

__all__ = [
    "Topology",
    "random_regular_topology",
    "harary_topology",
    "complete_topology",
    "ring_topology",
    "line_topology",
    "torus_topology",
    "vertex_connectivity",
    "disjoint_path_count",
    "articulation_points",
    "meets_connectivity_requirement",
]
