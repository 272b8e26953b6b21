"""The six runtime primitives, on both hosts, and the one-start-time rule.

``repro.scenarios.faults`` defines every fault over ``at`` / ``crash`` /
``hold_until`` / ``drop_link`` / ``cut_edge`` / ``add_edge``; the
simulator and the asyncio cluster each implement them.  The two classes
below check the same behaviours under the same test names, one host
each.  Nothing here opens a socket: the cluster is built, never started,
and its nodes are fed directly.
"""

import asyncio

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.events import SendTo
from repro.network.asyncio_runtime import AsyncioCluster
from repro.network.simulation.network import SimulatedNetwork
from repro.scenarios import (
    DelayedStart,
    JoinAt,
    LeaveAt,
    RewireLinkAt,
    ScenarioSpec,
    TopologySpec,
)
from repro.topology.generators import complete_topology, ring_topology


class Recorder:
    """Protocol stub: records every call; broadcasts fan ``payload`` out."""

    def __init__(self, process_id, neighbors, fan_out=False):
        self.process_id = process_id
        self.neighbors = tuple(neighbors)
        self.fan_out = fan_out
        self.calls = []

    def on_start(self):
        self.calls.append(("on_start",))
        return []

    def broadcast(self, payload, bid=0):
        self.calls.append(("broadcast", payload, bid))
        if self.fan_out:
            return [SendTo(dest, payload) for dest in self.neighbors]
        return []

    def on_message(self, sender, message):
        self.calls.append(("on_message", sender, message))
        return []


def recorders(topology, **kwargs):
    return {
        pid: Recorder(pid, sorted(topology.neighbors(pid)), **kwargs)
        for pid in topology.nodes
    }


def simulated(topology, **kwargs):
    return SimulatedNetwork(topology, recorders(topology, **kwargs))


def cluster_of(topology, **kwargs):
    system = SystemConfig.for_system(len(topology.nodes), 0)
    return AsyncioCluster(topology, system, recorders(topology), **kwargs)


class TestSimulatedNetworkPrimitives:
    def test_past_time_at_fires_immediately(self):
        network = simulated(complete_topology(3))
        fired = []
        network.at(0.0, fired.append, "now")
        network.at(30.0, fired.append, "later")
        assert fired == ["now"]
        network.run()
        assert fired == ["now", "later"] and network.now == 30.0
        network.at(10.0, fired.append, "past")
        assert fired[-1] == "past"

    def test_crash_at_time_zero_precedes_on_start(self):
        network = simulated(complete_topology(3), fan_out=True)
        network.at(0.0, network.crash, 1)
        network.broadcast(1, b"x")
        network.broadcast(0, b"y")
        network.run()
        # The crashed process put nothing on the wire and heard nothing.
        assert network.collector.snapshot().messages_by_process.get(1, 0) == 0
        assert ("on_message", 0, b"y") not in network.protocols[1].calls
        assert ("on_message", 0, b"y") in network.protocols[2].calls

    def test_hold_until_keeps_or_drops_inbound_and_releases_in_order(self):
        network = simulated(complete_topology(3), fan_out=True)
        network.hold_until(1, 80.0, keep_inbound=True)
        network.hold_until(2, 80.0, keep_inbound=False)
        network.broadcast_at(0, b"m1", 0, 0.0)
        network.broadcast_at(0, b"m2", 1, 10.0)
        network.broadcast_at(1, b"a", 0, 5.0)
        network.broadcast_at(1, b"b", 1, 6.0)
        network.run(max_time=79.0)
        assert network.protocols[1].calls == [] == network.protocols[2].calls
        network.run()
        assert network.protocols[1].calls[:5] == [
            ("on_start",),
            ("on_message", 0, b"m1"),
            ("on_message", 0, b"m2"),
            ("broadcast", b"a", 0),
            ("broadcast", b"b", 1),
        ]
        # The joiner missed both copies; what 1 sent at 80 ms reached it.
        assert network.dropped_messages == 2
        assert network.protocols[2].calls == [
            ("on_start",),
            ("on_message", 1, b"a"),
            ("on_message", 1, b"b"),
        ]

    def test_a_process_has_one_start_time(self):
        network = simulated(complete_topology(3))
        network.hold_until(1, 80.0, keep_inbound=True)
        with pytest.raises(ConfigurationError, match="process 1"):
            network.hold_until(1, 30.0, keep_inbound=False)
        network.start()
        with pytest.raises(ConfigurationError, match="before the run starts"):
            network.hold_until(2, 30.0, keep_inbound=True)

    def test_crash_while_held_never_starts(self):
        network = simulated(complete_topology(3), fan_out=True)
        network.hold_until(1, 80.0, keep_inbound=True)
        network.at(40.0, network.crash, 1)
        network.broadcast(0, b"m")
        network.run()
        assert network.protocols[1].calls == []

    def test_cut_edge_on_a_missing_edge_is_a_no_op(self):
        network = simulated(ring_topology(5), fan_out=True)
        network.cut_edge(0, 2)
        assert network._adjacency == {
            pid: set(peers) for pid, peers in network.topology.adjacency.items()
        }
        network.cut_edge(0, 1)
        network.add_edge(0, 2)
        assert network._adjacency[0] == {2, 4} and network._adjacency[2] == {0, 1, 3}
        # The shared topology object is never edited.
        assert network.topology.has_edge(0, 1) and not network.topology.has_edge(0, 2)
        network.broadcast(0, b"m")
        network.run()
        # The protocol still names its old neighbour: that send is lost.
        assert network.dropped_messages == 1
        with pytest.raises(ConfigurationError, match="unknown process 9"):
            network.cut_edge(0, 9)

    def test_drop_link_validates_the_edge_and_the_window(self):
        network = simulated(ring_topology(5))
        with pytest.raises(ConfigurationError, match="no link between 0 and 2"):
            network.drop_link(0, 2, 0.0, None)
        with pytest.raises(ConfigurationError, match="ends before it starts"):
            network.drop_link(0, 1, 10.0, 5.0)
        network.drop_link(1, 0, 0.0, None)
        assert network._link_dropped(0, 1, 1e9)


class TestAsyncioClusterPrimitives:
    def test_past_time_at_fires_immediately(self):
        cluster = cluster_of(complete_topology(3))
        fired = []
        cluster.at(0.0, fired.append, "now")
        cluster.at(30.0, fired.append, "later")
        assert fired == ["now"]

        async def drive():
            cluster.open_epoch()
            assert fired == ["now"]
            await asyncio.sleep(0.06)
            assert fired == ["now", "later"] and cluster.now >= 30.0
            cluster.at(10.0, fired.append, "past")
            await cluster.stop()

        asyncio.run(drive())
        assert fired[-1] == "past"

    def test_crash_at_time_zero_precedes_on_start(self):
        cluster = cluster_of(complete_topology(3))
        cluster.at(0.0, cluster.crash, 1)

        async def drive():
            for node in cluster.nodes.values():
                await node.run_on_start()
            await cluster.broadcast(1, b"x")

        asyncio.run(drive())
        assert cluster.protocols[1].calls == []
        assert cluster.protocols[0].calls == [("on_start",)]

    def test_hold_until_keeps_or_drops_inbound_and_releases_in_order(self):
        cluster = cluster_of(complete_topology(3))
        cluster.hold_until(1, 20.0, keep_inbound=True)
        cluster.hold_until(2, 0.0, keep_inbound=False)

        async def drive():
            for node in cluster.nodes.values():
                await node.run_on_start()
            for pid in (1, 2):
                await cluster.nodes[pid].handle_message(0, "m1")
                await cluster.nodes[pid].handle_message(0, "m2")
            await cluster.broadcast(1, b"a", 0)
            await cluster.broadcast(1, b"b", 1)
            assert cluster.protocols[1].calls == [] == cluster.protocols[2].calls
            cluster.open_epoch()
            await asyncio.sleep(0)
            # Due at the epoch itself: released with it, never before.
            assert cluster.protocols[2].calls == [("on_start",)]
            assert cluster.protocols[1].calls == []
            await asyncio.sleep(0.06)
            await cluster.stop()

        asyncio.run(drive())
        assert cluster.protocols[1].calls == [
            ("on_start",),
            ("on_message", 0, "m1"),
            ("on_message", 0, "m2"),
            ("broadcast", b"a", 0),
            ("broadcast", b"b", 1),
        ]
        assert cluster.dropped_messages == 2

    def test_a_process_has_one_start_time(self):
        # Regression: the node used to wake at the earlier of two times.
        cluster = cluster_of(complete_topology(3))
        cluster.hold_until(1, 80.0, keep_inbound=True)
        with pytest.raises(ConfigurationError, match="process 1"):
            cluster.hold_until(1, 30.0, keep_inbound=False)
        assert len(cluster._pending_actions) == 1

    def test_crash_while_held_never_starts(self):
        cluster = cluster_of(complete_topology(3))
        cluster.hold_until(1, 10.0, keep_inbound=True)

        async def drive():
            await cluster.nodes[1].handle_message(0, "m")
            cluster.open_epoch()
            cluster.crash(1)
            await asyncio.sleep(0.03)
            await cluster.stop()

        asyncio.run(drive())
        assert cluster.protocols[1].calls == []

    def test_cut_edge_on_a_missing_edge_is_a_no_op(self):
        cluster = cluster_of(ring_topology(5))
        cluster.cut_edge(0, 2)
        assert not cluster.nodes[0]._severed and not cluster.nodes[2]._severed
        cluster.cut_edge(0, 1)
        cluster.add_edge(0, 2)
        assert cluster._adjacency[0] == {2, 4} and cluster._adjacency[2] == {0, 1, 3}
        assert cluster.nodes[0]._channel_peers() == {2, 4}
        assert cluster.nodes[1]._channel_peers() == {2}
        assert cluster.nodes[2]._channel_peers() == {0, 1, 3}
        with pytest.raises(ConfigurationError, match="unknown process 9"):
            cluster.cut_edge(0, 9)

    def test_drop_link_validates_the_edge_and_the_window(self):
        cluster = cluster_of(ring_topology(5), time_scale=2e-3)
        with pytest.raises(ConfigurationError, match="no link between 0 and 2"):
            cluster.drop_link(0, 2, 0.0, None)
        with pytest.raises(ConfigurationError, match="ends before it starts"):
            cluster.drop_link(0, 1, 10.0, 5.0)
        cluster.drop_link(1, 0, 10.0, 20.0)
        # Spec milliseconds in, wall-clock seconds on the nodes.
        for node, peer in ((0, 1), (1, 0)):
            assert not cluster.nodes[node].link_dropped(peer, elapsed_s=0.019)
            assert cluster.nodes[node].link_dropped(peer, elapsed_s=0.02)
            assert not cluster.nodes[node].link_dropped(peer, elapsed_s=0.04)


class TestGraphEditFaultsOnBothHosts:
    """``LeaveAt`` / ``RewireLinkAt`` mean the same edit on either host."""

    @pytest.mark.parametrize("build", [simulated, cluster_of], ids=["sim", "asyncio"])
    def test_leave_at_zero_cuts_every_live_edge_rewired_in_ones_too(self, build):
        host = build(ring_topology(5))
        RewireLinkAt(pid=0, old_peer=1, new_peer=2, time_ms=0.0).apply(host)
        LeaveAt(pid=2, time_ms=0.0).apply(host)
        assert host._adjacency == {0: {4}, 1: set(), 2: set(), 3: {4}, 4: {0, 3}}

    @pytest.mark.parametrize("build", [simulated, cluster_of], ids=["sim", "asyncio"])
    def test_a_later_time_waits(self, build):
        host = build(ring_topology(5))
        LeaveAt(pid=2, time_ms=40.0).apply(host)
        assert host._adjacency[2] == {1, 3}


class TestOneStartTimePerProcess:
    """Two start-deferring faults on one pid never reach a runtime.

    Regression: on the simulator ``DelayedStart(2, 100) + JoinAt(2, 30)``
    buffered messages that were never replayed nor counted, and
    ``JoinAt(0, 60) + DelayedStart(0, 90)`` let a dormant source
    broadcast at 60 ms; the asyncio node woke at the earlier time.
    """

    @pytest.mark.parametrize(
        "faults",
        [
            (DelayedStart(pid=2, time_ms=100.0), JoinAt(pid=2, time_ms=30.0)),
            (JoinAt(pid=0, time_ms=60.0), DelayedStart(pid=0, time_ms=90.0)),
            (DelayedStart(pid=3, time_ms=10.0), DelayedStart(pid=3, time_ms=20.0)),
            (JoinAt(pid=1, time_ms=10.0), JoinAt(pid=1, time_ms=10.0)),
        ],
    )
    def test_rejected_at_spec_construction_naming_the_pid(self, faults):
        with pytest.raises(ConfigurationError, match=f"process {faults[0].pid} "):
            ScenarioSpec(topology=TopologySpec(kind="complete", n=5), f=1, faults=faults)

    def test_distinct_pids_are_fine(self):
        spec = ScenarioSpec(
            topology=TopologySpec(kind="complete", n=5),
            f=1,
            faults=(DelayedStart(pid=2, time_ms=100.0), JoinAt(pid=3, time_ms=30.0)),
        )
        assert len(spec.faults) == 2
