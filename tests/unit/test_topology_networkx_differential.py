"""Differential tests: the bit-mask topology kernel against NetworkX.

NetworkX is not a dependency of ``repro``; it is the reference these
tests compare against, and the module skips itself where it is not
installed.  Every ``nx_*`` helper below is the NetworkX-based code the
kernel replaced, frozen as it was: the generators, ``node_connectivity``
with the same small-graph rules, ``node_disjoint_paths`` with the direct
edge counted separately, ``articulation_points`` and the churn replay of
``connectivity_under_churn``.
"""

from __future__ import annotations

import itertools
import random
from itertools import islice

import pytest

nx = pytest.importorskip("networkx")

from repro.core.errors import TopologyError  # noqa: E402
from repro.fuzz.sample import stream_fuzz_specs  # noqa: E402
from repro.paths.oracle import graph_disjoint_paths  # noqa: E402
from repro.scenarios import JoinAt, LeaveAt, RewireLinkAt, TopologySpec  # noqa: E402
from repro.scenarios.faults import CrashAt  # noqa: E402
from repro.topology import kernel  # noqa: E402
from repro.topology.analysis import (  # noqa: E402
    articulation_points,
    connectivity_under_churn,
    disjoint_path_count,
)
from repro.topology.generators import (  # noqa: E402
    Topology,
    complete_topology,
    harary_topology,
    line_topology,
    random_regular_topology,
    ring_topology,
    torus_topology,
)


# ----------------------------------------------------------------------
# The NetworkX reference, frozen
# ----------------------------------------------------------------------
def nx_graph(topology: Topology):
    graph = nx.Graph()
    graph.add_nodes_from(topology.adjacency)
    for node, neigh in topology.adjacency.items():
        graph.add_edges_from((node, other) for other in neigh if node < other)
    return graph


def nx_kappa(graph) -> int:
    n = graph.number_of_nodes()
    if n <= 1:
        return 0
    if all(d == n - 1 for _, d in graph.degree()):
        return n - 1
    return nx.node_connectivity(graph)


def nx_random_regular_edges(n, k, seed, min_connectivity, max_attempts):
    """Edge set of the parent's generator, or None where it gave up."""
    target = k if min_connectivity is None else min_connectivity
    base_seed = 0 if seed is None else seed
    for attempt in range(max_attempts):
        graph = nx.random_regular_graph(k, n, seed=base_seed + attempt * 7919)
        if nx_kappa(graph) >= target:
            return edges_of_graph(graph)
    return None


def nx_disjoint_path_count(graph, source, target) -> int:
    if graph.has_edge(source, target):
        graph = graph.copy()
        graph.remove_edge(source, target)
        if not nx.has_path(graph, source, target):
            return 1
        return 1 + len(list(nx.node_disjoint_paths(graph, source, target)))
    if not nx.has_path(graph, source, target):
        return 0
    return len(list(nx.node_disjoint_paths(graph, source, target)))


def _nx_live_connectivity(graph) -> int:
    if graph.number_of_nodes() <= 1:
        return graph.number_of_nodes()
    if not nx.is_connected(graph):
        return 0
    if graph.number_of_nodes() == 2:
        return 1
    return nx.node_connectivity(graph)


def nx_connectivity_under_churn(topology, faults, f):
    """``(required, [(time, event, connectivity, meets_bound), ...])``."""
    required = 2 * f + 1
    churn = sorted(
        ((fault.time_ms, index, fault) for index, fault in enumerate(faults) if fault.edits_graph),
        key=lambda item: (item[0], item[1]),
    )
    graph = nx_graph(topology).copy()
    for _, _, fault in churn:
        if isinstance(fault, JoinAt):
            graph.remove_node(fault.pid)
    first = _nx_live_connectivity(graph)
    snapshots = [(0.0, "initial", first, first >= required)]
    for time_ms, _, fault in churn:
        if isinstance(fault, JoinAt):
            graph.add_node(fault.pid)
            for peer in topology.neighbors(fault.pid):
                if graph.has_node(peer):
                    graph.add_edge(fault.pid, peer)
            event = f"join({fault.pid})"
        elif isinstance(fault, LeaveAt):
            if graph.has_node(fault.pid):
                graph.remove_node(fault.pid)
            event = f"leave({fault.pid})"
        else:
            if graph.has_edge(fault.pid, fault.old_peer):
                graph.remove_edge(fault.pid, fault.old_peer)
            if graph.has_node(fault.pid) and graph.has_node(fault.new_peer):
                graph.add_edge(fault.pid, fault.new_peer)
            event = f"rewire({fault.pid}: {fault.old_peer}->{fault.new_peer})"
        connectivity = _nx_live_connectivity(graph)
        snapshots.append((time_ms, event, connectivity, connectivity >= required))
    return required, snapshots


def edges_of_graph(graph):
    return {(min(u, v), max(u, v)) for u, v in graph.edges()}


def edges_of(topology: Topology):
    return {(u, v) for u, neigh in topology.adjacency.items() for v in neigh if u < v}


def from_graph(graph, name="graph") -> Topology:
    return Topology.from_edges(graph.nodes(), graph.edges(), name=name)


def damaged_regular_graphs(count: int, seed: int):
    """Random regular graphs with random edges deleted (some disconnect)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 18)
        k = rng.choice([d for d in range(1, n) if n * d % 2 == 0])
        graph = nx.random_regular_graph(k, n, seed=rng.randrange(10**6))
        edges = sorted(graph.edges())
        for edge in rng.sample(edges, rng.randint(0, len(edges) // 3)):
            graph.remove_edge(*edge)
        yield graph


def disconnected_graphs():
    yield nx.disjoint_union(nx.complete_graph(4), nx.cycle_graph(5))
    yield nx.disjoint_union(nx.path_graph(3), nx.path_graph(3))
    yield nx.empty_graph(5)
    yield nx.disjoint_union(nx.random_regular_graph(3, 8, seed=4), nx.complete_graph(3))
    graph = nx.cycle_graph(7)
    graph.add_node(7)
    yield graph


# ----------------------------------------------------------------------
# (a) Generators: the same edge sets as NetworkX
# ----------------------------------------------------------------------
def observatory_regular_cells():
    """(n, k, min_connectivity, seed) of every random regular graph the
    five observatory workloads build at seeds 1 and 20211 — the timed
    cells, the warm-up cell and a margin of screened-out replacements."""
    cells = []
    for seed in (1, 20211):
        base = seed * 1000
        for k, seeds in ((10, 3), (24, 4)):
            for scenario_seed in [*range(base, base + seeds + 3), base + 999]:
                cells.append((31, k, 9, scenario_seed))
        for k in (7, 11):
            for scenario_seed in [*range(base, base + 8), base + 999]:
                cells.append((16, k, 5, scenario_seed))
        for scenario_seed in [*range(base, base + 3), base + 999]:
            cells.append((10, 5, 5, scenario_seed))
    return cells


def fuzz_stream_topologies():
    """Every (TopologySpec, seed) the ``fuzz_sweep`` stream builds at
    seeds 1 and 20211."""
    built = set()
    for reseed in (1, 20211):
        for spec in islice(stream_fuzz_specs(seed=0), 300):
            built.add((spec.topology, spec.seed + 100_003 * reseed))
    return sorted(built, key=repr)


class TestGeneratorsMatchNetworkx:
    @pytest.mark.parametrize("n, k, min_connectivity, seed", observatory_regular_cells())
    def test_random_regular_on_observatory_graphs(self, n, k, min_connectivity, seed):
        topology = random_regular_topology(n, k, seed=seed, min_connectivity=min_connectivity)
        expected = nx_random_regular_edges(n, k, seed, min_connectivity, 50)
        assert edges_of(topology) == expected
        assert topology.name == f"regular-{n}-{k}-s{seed}"

    def test_random_regular_on_random_seeds(self):
        rng = random.Random(20251015)
        draws = gave_up = 0
        while draws < 520:
            n = rng.randint(2, 22)
            k = rng.choice([d for d in range(0, n) if n * d % 2 == 0])
            min_connectivity = rng.choice((None, k, max(k - 1, 0), rng.randint(0, k)))
            seed = rng.choice((None, rng.randrange(-1000, 10**7)))
            attempts = rng.choice((1, 2, 5))
            expected = nx_random_regular_edges(n, k, seed, min_connectivity, attempts)
            try:
                topology = random_regular_topology(
                    n, k, seed=seed, min_connectivity=min_connectivity,
                    max_attempts=attempts,
                )
            except TopologyError:
                assert expected is None, (n, k, min_connectivity, seed)
                gave_up += 1
            else:
                assert edges_of(topology) == expected, (n, k, min_connectivity, seed)
                assert sorted(topology.adjacency) == list(range(n))
            draws += 1
        assert gave_up  # the retry loop's give-up branch was compared too

    def test_fuzz_stream_topologies(self):
        topologies = fuzz_stream_topologies()
        assert topologies
        for spec, seed in topologies:
            expected = {
                "complete": lambda: nx.complete_graph(spec.n),
                "harary": lambda: nx.hkn_harary_graph(spec.k, spec.n),
            }[spec.kind]()
            assert edges_of(spec.build(seed)) == edges_of_graph(expected), spec

    @pytest.mark.parametrize("n", range(3, 17))
    def test_harary(self, n):
        for k in range(2, n):
            topology = harary_topology(n, k)
            assert edges_of(topology) == edges_of_graph(nx.hkn_harary_graph(k, n)), (n, k)
            assert topology.n == n

    def test_torus(self):
        # Also the old to_networkx / from_networkx round trip: the torus
        # adjacency equals NetworkX's relabelled periodic grid.
        for rows, cols in itertools.product(range(3, 7), repeat=2):
            grid = nx.convert_node_labels_to_integers(
                nx.grid_2d_graph(rows, cols, periodic=True), ordering="sorted"
            )
            topology = torus_topology(rows, cols)
            assert edges_of(topology) == edges_of_graph(grid)
            assert topology.adjacency == from_graph(grid).adjacency

    def test_complete_ring_line(self):
        for n in range(0, 9):
            assert edges_of(complete_topology(n)) == edges_of_graph(nx.complete_graph(n))
            assert complete_topology(n).n == n
        for n in range(3, 11):
            assert edges_of(ring_topology(n)) == edges_of_graph(nx.cycle_graph(n))
        for n in range(2, 11):
            assert edges_of(line_topology(n)) == edges_of_graph(nx.path_graph(n))


# ----------------------------------------------------------------------
# (b) Vertex connectivity
# ----------------------------------------------------------------------
def connectivity_graphs():
    yield from damaged_regular_graphs(220, seed=5)
    yield from disconnected_graphs()
    for n in range(1, 7):
        yield nx.complete_graph(n)
    for n, k in ((10, 5), (12, 3), (9, 4), (7, 6)):
        yield nx.hkn_harary_graph(k, n)
    yield nx.petersen_graph()
    yield nx.random_regular_graph(10, 31, seed=3)
    yield nx.random_regular_graph(24, 31, seed=3)


class TestVertexConnectivityMatchesNetworkx:
    def test_exact_and_limited(self):
        checked = 0
        for graph in connectivity_graphs():
            topology = from_graph(graph)
            kappa = nx_kappa(graph)
            assert topology.vertex_connectivity() == kappa, sorted(graph.edges())
            _, masks = topology.bits()
            everyone = (1 << topology.n) - 1
            for limit in (0, 1, 3, 5, 9, kappa, kappa + 1):
                assert kernel.vertex_connectivity(masks, everyone, limit) == min(limit, kappa)
            checked += 1
        assert checked > 230

    def test_non_contiguous_identifiers(self):
        graph = nx.relabel_nodes(nx.hkn_harary_graph(4, 9), {i: 3 * i + 7 for i in range(9)})
        assert from_graph(graph).vertex_connectivity() == 4


# ----------------------------------------------------------------------
# (c) Disjoint paths
# ----------------------------------------------------------------------
def assert_valid_paths(topology, paths, source, target):
    interiors = set()
    for path in paths:
        assert path[0] == source and path[-1] == target
        assert len(set(path)) == len(path)
        for u, v in zip(path, path[1:]):
            assert topology.has_edge(u, v)
        inner = set(path[1:-1])
        assert not inner & interiors
        interiors |= inner
    assert sum(1 for path in paths if len(path) == 2) <= 1


class TestDisjointPathsMatchNetworkx:
    def test_counts_and_paths(self):
        rng = random.Random(11)
        pairs = 0
        for graph in itertools.chain(
            damaged_regular_graphs(120, seed=9), disconnected_graphs(),
            [nx.random_regular_graph(10, 31, seed=8), nx.hkn_harary_graph(5, 12)],
        ):
            topology = from_graph(graph)
            nodes = topology.nodes
            if len(nodes) < 2:
                continue
            for _ in range(6):
                source, target = rng.sample(nodes, 2)
                expected = nx_disjoint_path_count(graph, source, target)
                assert disjoint_path_count(topology, source, target) == expected
                paths = graph_disjoint_paths(topology, source, target)
                assert len(paths) == expected
                assert_valid_paths(topology, paths, source, target)
                for count in range(0, expected + 1):
                    limited = topology.disjoint_paths(source, target, count)
                    assert len(limited) == count
                    assert_valid_paths(topology, limited, source, target)
                assert len(topology.disjoint_paths(source, target, expected + 1)) == expected
                pairs += 1
        assert pairs > 600


# ----------------------------------------------------------------------
# (d) Articulation points
# ----------------------------------------------------------------------
class TestArticulationPointsMatchNetworkx:
    def test_articulation_points(self):
        graphs = itertools.chain(
            damaged_regular_graphs(150, seed=13),
            disconnected_graphs(),
            [nx.path_graph(6), nx.star_graph(5), nx.balanced_tree(2, 3), nx.barbell_graph(4, 2)],
        )
        for graph in graphs:
            expected = tuple(sorted(nx.articulation_points(graph)))
            assert articulation_points(from_graph(graph)) == expected


# ----------------------------------------------------------------------
# (e) Churn replay
# ----------------------------------------------------------------------
def churn_cases():
    """The churn specs of ``test_churn_support.py`` plus a few edge cases."""
    return [
        (ring_topology(6), (), 0),
        (harary_topology(7, 3), (LeaveAt(pid=4, time_ms=10.0),), 1),
        (ring_topology(6), (JoinAt(pid=3, time_ms=50.0),), 0),
        (ring_topology(6), (LeaveAt(pid=4, time_ms=30.0), LeaveAt(pid=1, time_ms=10.0)), 0),
        (ring_topology(6), (CrashAt(pid=3, time_ms=0.0),), 0),
        (
            ring_topology(6),
            (
                JoinAt(pid=3, time_ms=20.0),
                LeaveAt(pid=4, time_ms=40.0),
                RewireLinkAt(pid=1, old_peer=2, new_peer=4, time_ms=10.0),
            ),
            0,
        ),
        (
            harary_topology(8, 4),
            (
                JoinAt(pid=2, time_ms=5.0),
                RewireLinkAt(pid=2, old_peer=1, new_peer=5, time_ms=10.0),
                LeaveAt(pid=2, time_ms=15.0),
                LeaveAt(pid=2, time_ms=16.0),
                RewireLinkAt(pid=6, old_peer=7, new_peer=2, time_ms=20.0),
                LeaveAt(pid=6, time_ms=20.0),
                LeaveAt(pid=5, time_ms=25.0),
            ),
            1,
        ),
        (complete_topology(3), (LeaveAt(pid=1, time_ms=1.0), LeaveAt(pid=2, time_ms=2.0)), 0),
    ]


def as_tuples(report):
    return report.required, [
        (s.time_ms, s.event, s.connectivity, s.meets_bound) for s in report.snapshots
    ]


class TestChurnReplayMatchesNetworkx:
    @pytest.mark.parametrize("topology, faults, f", churn_cases())
    def test_churn_support_specs(self, topology, faults, f):
        report = connectivity_under_churn(topology, faults, f)
        assert as_tuples(report) == nx_connectivity_under_churn(topology, faults, f)

    def test_churned_fuzz_stream(self):
        specs = list(islice(stream_fuzz_specs(seed=17, churn_fraction=1.0), 200))
        churned = 0
        for spec in specs:
            topology = spec.topology.build(spec.seed)
            report = connectivity_under_churn(topology, spec.faults, spec.f)
            assert as_tuples(report) == nx_connectivity_under_churn(topology, spec.faults, spec.f)
            churned += len(report.snapshots) > 1
        assert churned == 200

    def test_random_regular_churn(self):
        topology = TopologySpec("random_regular", n=16, k=7, min_connectivity=5).build(3)
        faults = tuple(LeaveAt(pid=pid, time_ms=float(pid)) for pid in range(1, 12))
        report = connectivity_under_churn(topology, faults, 2)
        assert as_tuples(report) == nx_connectivity_under_churn(topology, faults, 2)
