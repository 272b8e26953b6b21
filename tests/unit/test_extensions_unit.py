"""Unit tests for the extension substrates: routed Dolev and CPA."""

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import TopologyError
from repro.core.events import RCDeliver, sends
from repro.core.messages import BrachaMessage, DolevMessage, MessageType
from repro.brb.cpa import CPABroadcast, cpa_can_complete
from repro.brb.dolev_routed import RoutedDolevBroadcast, RoutedMessage, disjoint_routes
from repro.topology.generators import (
    complete_topology,
    harary_topology,
    line_topology,
    ring_topology,
    torus_topology,
)


class TestDisjointRoutes:
    def test_routes_are_vertex_disjoint(self):
        topo = harary_topology(8, 4)
        routes = disjoint_routes(topo, 0, 4, 4)
        assert len(routes) == 4
        interiors = [set(route[:-1]) for route in routes]
        for i, a in enumerate(interiors):
            for b in interiors[i + 1 :]:
                assert not (a & b)
        assert all(route[-1] == 4 for route in routes)

    def test_direct_edge_is_a_route(self):
        topo = complete_topology(4)
        routes = disjoint_routes(topo, 0, 1, 3)
        assert (1,) in routes

    def test_insufficient_connectivity_rejected(self):
        topo = ring_topology(6)
        with pytest.raises(TopologyError):
            disjoint_routes(topo, 0, 3, 3)


class TestRoutedDolevUnit:
    def _protocol(self, pid, topo, f=1):
        config = SystemConfig.for_system(topo.n, f)
        return RoutedDolevBroadcast(pid, config, sorted(topo.neighbors(pid)), topo)

    def test_neighbors_must_match_topology(self):
        topo = harary_topology(8, 4)
        config = SystemConfig.for_system(8, 1)
        with pytest.raises(TopologyError):
            RoutedDolevBroadcast(0, config, [1, 2], topo)

    def test_broadcast_sends_routes_to_every_destination(self):
        topo = harary_topology(8, 4)
        protocol = self._protocol(0, topo)
        commands = sends(protocol.broadcast(b"m"))
        # 2f+1 = 3 routes per destination, 7 destinations.
        assert len(commands) == 21
        assert all(isinstance(c.message, RoutedMessage) for c in commands)
        assert all(c.dest in protocol.neighbors for c in commands)

    def test_intermediate_hop_forwards_along_route(self):
        topo = harary_topology(8, 4)
        protocol = self._protocol(1, topo)
        content = BrachaMessage(MessageType.SEND, source=0, bid=0, payload=b"m")
        message = RoutedMessage(content=content, route=(1, 2, 3))
        out = sends(protocol.on_message(0, message))
        assert len(out) == 1
        assert out[0].dest == 2
        assert out[0].message.route == (2, 3)
        assert out[0].message.traversed == (1,)

    def test_misrouted_message_ignored(self):
        topo = harary_topology(8, 4)
        protocol = self._protocol(1, topo)
        content = BrachaMessage(MessageType.SEND, source=0, bid=0, payload=b"m")
        assert protocol.on_message(0, RoutedMessage(content=content, route=(5, 2))) == []
        assert protocol.on_message(0, "garbage") == []

    def test_route_that_leaves_topology_is_dropped(self):
        topo = ring_topology(6)
        config = SystemConfig.for_system(6, 0)
        protocol = RoutedDolevBroadcast(1, config, sorted(topo.neighbors(1)), topo)
        content = BrachaMessage(MessageType.SEND, source=0, bid=0, payload=b"m")
        # Next hop 4 is not a neighbor of 1 on the ring.
        message = RoutedMessage(content=content, route=(1, 4))
        assert protocol.on_message(0, message) == []

    def test_destination_delivers_after_f_plus_one_disjoint_routes(self):
        topo = harary_topology(8, 4)
        protocol = self._protocol(4, topo, f=1)
        content = BrachaMessage(MessageType.SEND, source=0, bid=0, payload=b"m")
        first = protocol.on_message(2, RoutedMessage(content=content, route=(4,), traversed=(2,)))
        assert not any(isinstance(c, RCDeliver) for c in first)
        second = protocol.on_message(3, RoutedMessage(content=content, route=(4,), traversed=(3,)))
        assert any(isinstance(c, RCDeliver) for c in second)
        assert protocol.delivered[(0, 0)] == b"m"

    def test_forged_identifiers_dropped_at_destination(self):
        topo = harary_topology(8, 4)
        protocol = self._protocol(4, topo, f=1)
        content = BrachaMessage(MessageType.SEND, source=0, bid=0, payload=b"m")
        forged = RoutedMessage(content=content, route=(4,), traversed=(-1,))
        assert protocol.on_message(2, forged) == []
        alien = BrachaMessage(MessageType.SEND, source=-3, bid=0, payload=b"m")
        assert protocol.on_message(2, RoutedMessage(content=alien, route=(4,))) == []
        assert protocol.state_size_estimate() == 0

    def test_routed_message_wire_size(self):
        content = BrachaMessage(MessageType.SEND, source=0, bid=0, payload=b"abcd")
        message = RoutedMessage(content=content, route=(1, 2), traversed=(3,))
        expected = content.wire_size() + (2 + 8) + (2 + 4)
        assert message.wire_size() == expected


class TestCPAUnit:
    def test_can_complete_on_torus_with_t1(self):
        topo = torus_topology(4, 4)
        assert cpa_can_complete(topo, source=0, t=1)

    def test_cannot_complete_on_line(self):
        topo = line_topology(6)
        assert not cpa_can_complete(topo, source=0, t=1)

    def test_negative_t_rejected(self):
        config = SystemConfig.for_system(5, 1)
        with pytest.raises(ValueError):
            CPABroadcast(0, config, [1, 2], t=-1)

    def test_direct_reception_from_source_delivers(self):
        config = SystemConfig.for_system(6, 1)
        topo = torus_topology(3, 3)
        protocol = CPABroadcast(1, SystemConfig.for_system(9, 1), sorted(topo.neighbors(1)), t=1)
        content = BrachaMessage(MessageType.SEND, source=0, bid=0, payload=b"m")
        commands = protocol.on_message(0, DolevMessage(content=content, path=()))
        assert any(isinstance(c, RCDeliver) for c in commands)
        # The content is relayed exactly once to every neighbor.
        assert {c.dest for c in sends(commands)} == set(protocol.neighbors)

    def test_indirect_reception_needs_t_plus_one_witnesses(self):
        topo = torus_topology(3, 3)
        protocol = CPABroadcast(4, SystemConfig.for_system(9, 1), sorted(topo.neighbors(4)), t=1)
        content = BrachaMessage(MessageType.SEND, source=0, bid=0, payload=b"m")
        message = DolevMessage(content=content, path=())
        neighbors = sorted(protocol.neighbors)
        first = protocol.on_message(neighbors[0], message)
        assert first == []
        second = protocol.on_message(neighbors[1], message)
        assert any(isinstance(c, RCDeliver) for c in second)

    def test_conflicting_contents_need_separate_certification(self):
        topo = torus_topology(3, 3)
        protocol = CPABroadcast(4, SystemConfig.for_system(9, 1), sorted(topo.neighbors(4)), t=1)
        good = DolevMessage(content=BrachaMessage(MessageType.SEND, 0, 0, b"good"), path=())
        evil = DolevMessage(content=BrachaMessage(MessageType.SEND, 0, 0, b"evil"), path=())
        neighbors = sorted(protocol.neighbors)
        assert protocol.on_message(neighbors[0], good) == []
        assert protocol.on_message(neighbors[1], evil) == []
        # One witness per value: neither is certified yet.
        assert (0, 0) not in protocol.delivered
