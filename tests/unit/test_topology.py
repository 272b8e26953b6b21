"""Unit tests for topology generation and analysis.

The comparison with NetworkX lives in
``test_topology_networkx_differential.py``; everything here runs on the
standard library alone.
"""

import os
import subprocess
import sys

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import TopologyError
from repro.paths.oracle import graph_disjoint_paths
from repro.topology import kernel
from repro.topology.analysis import (
    all_pairs_min_disjoint_paths,
    articulation_points,
    disjoint_path_count,
    meets_connectivity_requirement,
    require_connectivity,
    vertex_connectivity,
)
from repro.topology.generators import (
    Topology,
    complete_topology,
    harary_topology,
    line_topology,
    random_regular_topology,
    ring_topology,
    torus_topology,
)


class TestTopologyType:
    def test_from_edges(self):
        topo = Topology.from_edges([0, 1, 2], [(0, 1), (1, 2)])
        assert topo.n == 3
        assert topo.edge_count == 2
        assert topo.neighbors(1) == frozenset({0, 2})
        assert topo.has_edge(0, 1)
        assert not topo.has_edge(0, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Topology.from_edges([0, 1], [(0, 0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(TopologyError):
            Topology.from_edges([0, 1], [(0, 2)])

    def test_unknown_node_lookup_rejected(self):
        topo = ring_topology(4)
        with pytest.raises(TopologyError):
            topo.neighbors(99)

    def test_degrees(self):
        topo = ring_topology(5)
        assert topo.degree(0) == 2
        assert topo.min_degree() == 2

    def test_iteration_yields_sorted_nodes(self):
        topo = Topology.from_edges([5, 3, 1], [(1, 3), (3, 5)])
        assert list(topo) == [1, 3, 5]


class TestGenerators:
    def test_complete_topology(self):
        topo = complete_topology(6)
        assert topo.is_fully_connected()
        assert topo.vertex_connectivity() == 5

    def test_ring_is_two_connected(self):
        assert ring_topology(8).vertex_connectivity() == 2

    def test_line_is_one_connected(self):
        assert line_topology(5).vertex_connectivity() == 1

    def test_torus_is_four_connected(self):
        assert torus_topology(3, 4).vertex_connectivity() == 4

    def test_harary_even_degree(self):
        topo = harary_topology(10, 4)
        assert topo.min_degree() == 4
        assert topo.vertex_connectivity() == 4

    def test_harary_odd_degree(self):
        topo = harary_topology(10, 5)
        assert topo.vertex_connectivity() == 5

    def test_harary_odd_degree_odd_nodes(self):
        topo = harary_topology(9, 5)
        assert topo.vertex_connectivity() == 5

    def test_harary_rejects_k_ge_n(self):
        with pytest.raises(TopologyError):
            harary_topology(4, 4)

    def test_random_regular_degree_and_connectivity(self):
        topo = random_regular_topology(16, 5, seed=3)
        assert all(topo.degree(p) == 5 for p in topo.nodes)
        assert topo.vertex_connectivity() >= 5

    def test_random_regular_with_lower_connectivity_target(self):
        topo = random_regular_topology(12, 6, seed=1, min_connectivity=5)
        assert topo.vertex_connectivity() >= 5

    def test_random_regular_deterministic_for_seed(self):
        a = random_regular_topology(14, 4, seed=9)
        b = random_regular_topology(14, 4, seed=9)
        assert a.adjacency == b.adjacency

    def test_random_regular_odd_product_rejected(self):
        with pytest.raises(TopologyError):
            random_regular_topology(9, 3, seed=1)

    def test_random_regular_degree_ge_n_rejected(self):
        with pytest.raises(TopologyError):
            random_regular_topology(5, 5, seed=1)

    def test_random_regular_impossible_connectivity_rejected(self):
        with pytest.raises(TopologyError):
            random_regular_topology(10, 3, seed=1, min_connectivity=4)


class TestAnalysis:
    def test_vertex_connectivity_wrapper(self):
        assert vertex_connectivity(ring_topology(6)) == 2

    def test_meets_connectivity_requirement(self):
        config = SystemConfig.for_system(10, 2)  # needs 5-connectivity
        assert meets_connectivity_requirement(harary_topology(10, 5), config)
        assert not meets_connectivity_requirement(harary_topology(10, 4), config)

    def test_meets_requirement_with_f_zero_needs_connected_graph(self):
        config = SystemConfig.for_system(5, 0)
        assert meets_connectivity_requirement(line_topology(5), config)

    def test_require_connectivity_raises(self):
        config = SystemConfig.for_system(10, 2)
        with pytest.raises(TopologyError):
            require_connectivity(ring_topology(10), config)

    def test_disjoint_path_count_adjacent_nodes(self):
        topo = complete_topology(5)
        assert disjoint_path_count(topo, 0, 1) == 4

    def test_disjoint_path_count_ring(self):
        assert disjoint_path_count(ring_topology(6), 0, 3) == 2

    def test_disjoint_path_count_same_node_rejected(self):
        with pytest.raises(TopologyError):
            disjoint_path_count(ring_topology(5), 2, 2)

    def test_all_pairs_minimum_matches_connectivity(self):
        # Menger: the minimum over pairs of vertex-disjoint path counts
        # equals the graph's vertex connectivity.
        topo = harary_topology(8, 3)
        minimum, witnesses = all_pairs_min_disjoint_paths(topo)
        assert minimum == topo.vertex_connectivity()
        assert witnesses


def _masks(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


class TestKernel:
    def test_backtracking_two_vertices_along_a_path(self):
        # 0 = s, 1 = t.  The only shortest path 0-2-3-4-1 is the one the
        # first search takes; a second path exists only by walking it
        # back from 4 through 3 to 2 (both vertex arcs reversed) and
        # leaving 2 towards 8, while 5-6-7 enters at 4.
        adj = _masks(11, [(0, 2), (2, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7),
                          (7, 4), (2, 8), (8, 9), (9, 10), (10, 1)])
        assert kernel.disjoint_paths(adj, 0, 1) == [[0, 2, 8, 9, 10, 1], [0, 5, 6, 7, 4, 1]]
        assert kernel.disjoint_paths(adj, 0, 1, 1) == [[0, 2, 3, 4, 1]]

    def test_common_neighbours_come_first_and_limit_stops_early(self):
        topo = complete_topology(6)
        assert topo.disjoint_paths(0, 1) == [(0, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1)]
        assert topo.disjoint_paths(0, 1, limit=2) == [(0, 1), (0, 2, 1)]
        assert topo.disjoint_paths(0, 1, limit=0) == []

    def test_limited_connectivity_is_min_of_limit_and_kappa(self):
        _, masks = harary_topology(12, 5).bits()
        for limit in range(8):
            assert kernel.vertex_connectivity(masks, (1 << 12) - 1, limit) == min(limit, 5)

    def test_articulation_points_and_connectedness(self):
        assert articulation_points(line_topology(5)) == (1, 2, 3)
        assert articulation_points(ring_topology(5)) == ()
        star = Topology.from_edges(range(5), [(0, i) for i in range(1, 5)])
        assert articulation_points(star) == (0,)
        _, masks = line_topology(4).bits()
        assert kernel.is_connected(masks, 0b1111)
        assert not kernel.is_connected(masks, 0)

    def test_identifiers_need_not_be_positions(self):
        topo = Topology.from_edges([40, 10, 30, 20], [(10, 20), (20, 30), (30, 40), (40, 10)])
        assert topo.vertex_connectivity() == 2
        assert topo.disjoint_paths(10, 30) == [(10, 20, 30), (10, 40, 30)]

    def test_limited_paths_are_vertex_disjoint(self):
        paths = harary_topology(8, 4).disjoint_paths(0, 4, 4)
        assert len(paths) == 4
        assert all(path[0] == 0 and path[-1] == 4 for path in paths)
        interiors = [set(path[1:-1]) for path in paths]
        for i, a in enumerate(interiors):
            for b in interiors[i + 1 :]:
                assert not (a & b)

    def test_direct_edge_is_a_path(self):
        assert (0, 1) in complete_topology(4).disjoint_paths(0, 1, 3)

    def test_limit_above_connectivity_returns_what_exists(self):
        # A ring has two disjoint paths between any pair; asking for a
        # third returns the two rather than raising.
        assert ring_topology(6).disjoint_paths(0, 3, 3) == [(0, 1, 2, 3), (0, 5, 4, 3)]


RING5, RING6 = ring_topology(5), ring_topology(6)


class TestTopologyApiErrors:
    """Bad arguments raise :class:`TopologyError` naming the argument."""

    @pytest.mark.parametrize(
        "call, named",
        [
            # source == target: rejected once, at the kernel entry.
            pytest.param(lambda: RING6.disjoint_paths(0, 0, 1), "0", id="limited-same-node"),
            pytest.param(lambda: graph_disjoint_paths(RING5, 2, 2), "2", id="paths-same-node"),
            pytest.param(lambda: disjoint_path_count(RING5, 2, 2), "2", id="count-same-node"),
            # unknown processes.
            pytest.param(lambda: disjoint_path_count(RING5, 0, 99), "target process 99",
                         id="count-unknown-target"),
            pytest.param(lambda: graph_disjoint_paths(RING5, 99, 0), "source process 99",
                         id="paths-unknown-source"),
            pytest.param(lambda: graph_disjoint_paths(RING5, 0, 99), "target process 99",
                         id="paths-unknown-target"),
            pytest.param(lambda: RING5.disjoint_paths(0, 2, limit=-1), "limit",
                         id="negative-limit"),
            # generator arguments.
            pytest.param(lambda: random_regular_topology(10, -2), "k=-2",
                         id="regular-negative-degree"),
            pytest.param(lambda: random_regular_topology(10, 4, min_connectivity=-1),
                         "min_connectivity=-1", id="regular-negative-connectivity"),
            pytest.param(lambda: complete_topology(-1), "n=-1", id="complete-negative-n"),
        ],
    )
    def test_rejected(self, call, named):
        with pytest.raises(TopologyError, match=named):
            call()


class TestNoNetworkxAtRunTime:
    def test_repro_runs_with_networkx_blocked(self):
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        probe = """
import sys
sys.modules["networkx"] = None  # any import of it now raises ImportError
import repro
from repro.fuzz.sample import stream_fuzz_specs
from repro.runner.configs import modification_set_for
from repro.scenarios import DelaySpec, ScenarioSpec, TopologySpec, run_scenario
from repro.topology.analysis import articulation_points, connectivity_under_churn
from repro.topology.generators import harary_topology, line_topology

dense = ScenarioSpec(
    name="paper-dense", topology=TopologySpec("random_regular", n=31, k=24, min_connectivity=9),
    delay=DelaySpec("fixed", mean_ms=50.0), protocol="cross_layer",
    modifications=modification_set_for("lat_bdw"), f=4, payload_size=1024, seed=1000)
assert run_scenario(dense).all_correct_delivered

churned = next(spec for spec in stream_fuzz_specs(seed=17, churn_fraction=1.0)
               if any(fault.edits_graph for fault in spec.faults))
run_scenario(churned)
report = connectivity_under_churn(churned.topology.build(churned.seed), churned.faults, churned.f)
assert len(report.snapshots) > 1

assert articulation_points(line_topology(5)) == (1, 2, 3)

assert len(harary_topology(8, 4).disjoint_paths(0, 4)) == 4
assert sys.modules["networkx"] is None
"""
        subprocess.run(
            [sys.executable, "-c", probe],
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
