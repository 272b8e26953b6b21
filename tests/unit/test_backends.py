"""Unit tests for execution backends and faults applied to a cluster.

Everything here runs without opening a socket: faults and loss are armed
on a built (never started) cluster of stub protocols, and the node-level
runtime actions (crash, dormancy, drop windows) are exercised directly.
"""

import asyncio

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.network.asyncio_runtime import AsyncioCluster, AsyncioNode
from repro.scenarios import (
    AsyncioBackend,
    CrashAt,
    DelayedStart,
    LinkDropWindow,
    ScenarioSpec,
    SimulationBackend,
    TopologySpec,
    get_backend,
)
from repro.scenarios import CrashWhen, DelaySpec, ObservationFilter, TurnByzantineWhen
from repro.scenarios.engine import arm_adaptive
from repro.topology.generators import harary_topology


class StubProtocol:
    """Records every protocol call; sends nothing."""

    def __init__(self, process_id=0, neighbors=(1, 2)):
        self.process_id = process_id
        self.neighbors = tuple(neighbors)
        self.calls = []

    def on_start(self):
        self.calls.append(("on_start",))
        return []

    def broadcast(self, payload, bid=0):
        self.calls.append(("broadcast", payload, bid))
        return []

    def on_message(self, sender, message):
        self.calls.append(("on_message", sender, message))
        return []


def stub_cluster(topology, f=1, cluster_type=AsyncioCluster, **kwargs):
    """A built (not started) cluster hosting one stub protocol per process."""
    protocols = {
        pid: StubProtocol(pid, sorted(topology.neighbors(pid)))
        for pid in topology.nodes
    }
    return cluster_type(
        topology, SystemConfig.for_system(len(topology.nodes), f), protocols, **kwargs
    )


class TestApplyFaultsOnCluster:
    """``fault.apply`` lands, scaled, on a built cluster."""

    def _cluster(self, **kwargs):
        return stub_cluster(harary_topology(5, 3), **kwargs)

    def test_crash_at_zero_applies_before_start(self):
        cluster = self._cluster()
        CrashAt(pid=2, time_ms=0.0).apply(cluster)
        assert cluster.nodes[2].crashed
        assert not cluster.nodes[0].crashed
        assert not cluster._pending_actions

    def test_timed_crash_is_scaled_and_waits_for_the_epoch(self):
        cluster = self._cluster(time_scale=2e-3)
        CrashAt(pid=3, time_ms=120.0).apply(cluster)
        assert not cluster.nodes[3].crashed
        ((time_ms, _, _),) = cluster._pending_actions
        assert time_ms == 120.0

        async def drive():
            cluster.open_epoch()
            (timer,) = cluster._timers
            delay_s = timer.when() - asyncio.get_running_loop().time()
            timer.cancel()
            return delay_s

        # 120 spec ms at 2 ms of wall clock each.
        assert asyncio.run(drive()) == pytest.approx(0.24, abs=0.02)

    def test_link_drop_window_scales_both_bounds_on_both_endpoints(self):
        cluster = self._cluster(time_scale=1e-3)
        LinkDropWindow(u=0, v=1, start_ms=10.0, end_ms=30.0).apply(cluster)
        LinkDropWindow(u=2, v=3, start_ms=0.0, end_ms=None).apply(cluster)
        for node, peer in ((0, 1), (1, 0)):
            assert not cluster.nodes[node].link_dropped(peer, elapsed_s=0.005)
            assert cluster.nodes[node].link_dropped(peer, elapsed_s=0.01)
            assert cluster.nodes[node].link_dropped(peer, elapsed_s=0.029)
            assert not cluster.nodes[node].link_dropped(peer, elapsed_s=0.03)
        # ``end_ms=None``: the link goes down at 0 and never reopens.
        for node, peer in ((2, 3), (3, 2)):
            assert cluster.nodes[node].link_dropped(peer, elapsed_s=0.0)
            assert cluster.nodes[node].link_dropped(peer, elapsed_s=1e6)
        # The window is per-link, not per-node.
        assert not cluster.nodes[0].link_dropped(4, elapsed_s=0.02)

    def test_link_drop_requires_an_edge(self):
        topology = harary_topology(6, 3)
        u, v = next(
            (u, v)
            for u in topology.nodes
            for v in topology.nodes
            if u < v and not topology.has_edge(u, v)
        )
        with pytest.raises(ConfigurationError):
            LinkDropWindow(u=u, v=v, start_ms=0.0, end_ms=None).apply(
                stub_cluster(topology)
            )

    def test_delayed_start_marks_dormant_until_the_wake_time(self):
        cluster = self._cluster(time_scale=2e-3)
        DelayedStart(pid=4, time_ms=50.0).apply(cluster)
        assert cluster.nodes[4].dormant
        ((wake_ms, _, _),) = cluster._pending_actions
        assert wake_ms == 50.0

    def test_negative_delayed_start_rejected_like_the_simulator(self):
        # Backend parity: the spec dataclass itself rejects a negative
        # start time, so the same spec can never error on one backend
        # and run on the other.
        with pytest.raises(ConfigurationError):
            DelayedStart(pid=1, time_ms=-5.0)

    def test_time_scale_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            AsyncioBackend(time_scale=0.0)


class TestValidate:
    def _capped_spec(self):
        return ScenarioSpec(
            topology=TopologySpec(kind="harary", n=5, k=3),
            f=1,
            shared_bandwidth_bps=1e9,
            backend="asyncio",
        )

    def test_shared_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncioBackend().validate(self._capped_spec())

    def test_run_async_validates_like_run(self):
        # Awaiting the public coroutine directly must not silently
        # ignore the cap the sync wrapper rejects.
        with pytest.raises(ConfigurationError):
            asyncio.run(AsyncioBackend().run_async(self._capped_spec()))


class RecordingCluster(AsyncioCluster):
    """A real cluster that also records the loss filters installed on it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.losses = []  # (u, v, probability, seed)
        self.bursts = []  # (u, v, period_s, burst_s)

    def add_loss_filter(self, u, v, probability, seed):
        self.losses.append((u, v, probability, seed))
        super().add_loss_filter(u, v, probability, seed)

    def add_periodic_drop_window(self, u, v, period_s, burst_s, offset_s=0.0):
        self.bursts.append((u, v, period_s, burst_s))
        super().add_periodic_drop_window(u, v, period_s, burst_s, offset_s)


class TestArmLossOnCluster:
    """``arm_loss`` installs connection filters from the spec's delay regime."""

    def _spec(self, **delay_kwargs):
        return ScenarioSpec(
            name="loss-plan",
            topology=TopologySpec(kind="complete", n=4),
            delay=DelaySpec(kind="fixed", mean_ms=5.0, **delay_kwargs),
            f=0,
            seed=9,
        )

    def _armed(self, spec, backend=None):
        cluster = stub_cluster(
            spec.topology.build(spec.seed), f=0, cluster_type=RecordingCluster
        )
        (backend or AsyncioBackend()).arm_loss(cluster, spec)
        return cluster

    def test_lossless_spec_installs_nothing(self):
        cluster = self._armed(self._spec())
        assert cluster.losses == [] and cluster.bursts == []
        assert not cluster.nodes[0].link_dropped(1, elapsed_s=0.0)

    def test_one_loss_filter_per_undirected_link(self):
        cluster = self._armed(self._spec(loss=0.2))
        assert cluster.bursts == []
        assert len(cluster.losses) == cluster.topology.edge_count
        assert all(probability == 0.2 for _, _, probability, _ in cluster.losses)
        assert all(u < v for u, v, _, _ in cluster.losses)

    def test_loss_seeds_derive_from_the_scenario_hash(self):
        spec = self._spec(loss=0.2)
        losses = self._armed(spec).losses
        # Deterministic: re-arming yields identical seeds...
        assert self._armed(spec).losses == losses
        # ... distinct per link ...
        seeds = {seed for _, _, _, seed in losses}
        assert len(seeds) == len(losses)
        # ... and distinct per scenario (same graph, different hash).
        other = self._armed(spec.with_seed(10)).losses
        assert seeds.isdisjoint({seed for _, _, _, seed in other})

    def test_burst_windows_scale_through_time_scale(self):
        spec = self._spec(burst_period_ms=100.0, burst_len_ms=20.0)
        cluster = self._armed(spec, AsyncioBackend(time_scale=2e-3))
        assert cluster.losses == []
        assert len(cluster.bursts) == cluster.topology.edge_count
        _, _, period_s, burst_s = cluster.bursts[0]
        assert period_s == pytest.approx(0.2)
        assert burst_s == pytest.approx(0.04)
        # Installed on both endpoints: down for the first 40 ms of every 200 ms.
        assert cluster.nodes[0].link_dropped(1, elapsed_s=0.03)
        assert cluster.nodes[1].link_dropped(0, elapsed_s=0.23)
        assert not cluster.nodes[0].link_dropped(1, elapsed_s=0.05)


class TestNodeLossFilters:
    def test_loss_filter_is_seed_deterministic(self):
        decisions = []
        for _ in range(2):
            node = AsyncioNode(StubProtocol())
            node.add_loss_filter(1, 0.5, seed=1234)
            decisions.append([node.link_dropped(1, 0.0) for _ in range(64)])
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_loss_filter_probability_bounds(self):
        node = AsyncioNode(StubProtocol())
        with pytest.raises(ValueError):
            node.add_loss_filter(1, 1.5, seed=0)
        node.add_loss_filter(1, 0.0, seed=0)
        assert not any(node.link_dropped(1, 0.0) for _ in range(16))

    def test_periodic_drop_window_arithmetic(self):
        node = AsyncioNode(StubProtocol())
        node.add_periodic_drop_window(1, period_s=1.0, burst_s=0.25)
        assert node.link_dropped(1, 0.1)
        assert not node.link_dropped(1, 0.5)
        assert node.link_dropped(1, 2.2)  # bursts repeat every period
        with pytest.raises(ValueError):
            node.add_periodic_drop_window(1, period_s=0.0, burst_s=0.1)
        with pytest.raises(ValueError):
            node.add_periodic_drop_window(1, period_s=1.0, burst_s=2.0)

    def test_filters_only_affect_their_peer(self):
        node = AsyncioNode(StubProtocol())
        node.add_loss_filter(1, 1.0, seed=0)
        assert node.link_dropped(1, 0.0)
        assert not node.link_dropped(2, 0.0)


class TestArmAdaptiveOnCluster:
    """Adaptive triggers drive cluster-level actions (no sockets needed)."""

    def _cluster_and_spec(self, adaptive):
        topology = harary_topology(5, 3)
        spec = ScenarioSpec(
            name="adaptive-arm",
            topology=TopologySpec(kind="harary", n=5, k=3),
            f=1,
            seed=3,
            adaptive=adaptive,
        )
        cluster = AsyncioCluster(
            topology,
            SystemConfig.for_system(5, 1),
            {pid: StubProtocol(pid, topology.neighbors(pid)) for pid in topology.nodes},
        )
        return cluster, spec

    def test_trigger_crashes_the_node_after_enough_matches(self):
        from repro.core.events import Observation

        cluster, spec = self._cluster_and_spec(
            (CrashWhen(pid=0, after=ObservationFilter(kind="send"), count=2),)
        )
        state = arm_adaptive(cluster, spec, {})
        observer = cluster.nodes[0].observer
        observer(Observation(kind="send", time_ms=0.0, pid=0, dest=1))
        assert not cluster.nodes[0].crashed
        observer(Observation(kind="send", time_ms=1.0, pid=0, dest=2))
        assert cluster.nodes[0].crashed
        assert state.crashed == {0}
        # The trigger fires exactly once.
        observer(Observation(kind="send", time_ms=2.0, pid=0, dest=3))
        assert state.crashed == {0}

    def test_trigger_swaps_the_live_protocol(self):
        from repro.core.events import Observation
        from repro.network.adversary import MessageDroppingRelay

        cluster, spec = self._cluster_and_spec(
            (
                TurnByzantineWhen(
                    pid=2,
                    after=ObservationFilter(kind="deliver", pid=2),
                    behaviour="drop",
                ),
            )
        )
        state = arm_adaptive(cluster, spec, {})
        original = cluster.nodes[2].protocol
        cluster.nodes[2].observer(
            Observation(kind="deliver", time_ms=5.0, pid=2, source=0, bid=0)
        )
        swapped = cluster.nodes[2].protocol
        assert isinstance(swapped, MessageDroppingRelay)
        assert swapped.inner is original  # live state is kept, not rebuilt
        assert state.converted == {2: "drop"}

    def test_observations_from_other_nodes_do_not_fire(self):
        from repro.core.events import Observation

        cluster, spec = self._cluster_and_spec(
            (CrashWhen(pid=0, after=ObservationFilter(kind="send", pid=0)),)
        )
        arm_adaptive(cluster, spec, {})
        cluster.nodes[1].observer(
            Observation(kind="send", time_ms=0.0, pid=1, dest=0)
        )
        assert not cluster.nodes[0].crashed


class TestNodeRuntimeActions:
    def test_crashed_node_ignores_broadcast_and_messages(self):
        protocol = StubProtocol()
        node = AsyncioNode(protocol)
        node.crash()

        async def drive():
            await node.broadcast(b"payload", 1)
            await node.handle_message(1, object())

        asyncio.run(drive())
        assert protocol.calls == []

    def test_dormant_node_buffers_and_replays_in_order(self):
        protocol = StubProtocol()
        node = AsyncioNode(protocol)
        node.hold(keep_inbound=True)

        async def drive():
            await node.handle_message(1, "m1")
            await node.handle_message(2, "m2")
            await node.broadcast(b"late", 7)
            assert protocol.calls == []
            await node.wake()

        asyncio.run(drive())
        assert protocol.calls == [
            ("on_start",),
            ("on_message", 1, "m1"),
            ("on_message", 2, "m2"),
            ("broadcast", b"late", 7),
        ]

    def test_crash_wins_over_dormancy(self):
        protocol = StubProtocol()
        node = AsyncioNode(protocol)
        node.hold(keep_inbound=True)

        async def drive():
            await node.handle_message(1, "m1")
            node.crash()
            await node.wake()

        asyncio.run(drive())
        assert protocol.calls == []

    def test_drop_window_arithmetic(self):
        node = AsyncioNode(StubProtocol())
        node.add_drop_window(1, 0.1, 0.3)
        node.add_drop_window(1, 0.8, None)
        assert not node.link_dropped(1, elapsed_s=0.05)
        assert node.link_dropped(1, elapsed_s=0.1)
        assert node.link_dropped(1, elapsed_s=0.2)
        assert not node.link_dropped(1, elapsed_s=0.3)
        assert node.link_dropped(1, elapsed_s=2.0)
        assert not node.link_dropped(2, elapsed_s=0.2)

    def test_ephemeral_node_has_no_port_before_start(self):
        from repro.core.errors import RuntimeAbort

        node = AsyncioNode(StubProtocol())
        with pytest.raises(RuntimeAbort):
            node.port

    def test_legacy_port_base_layout(self):
        node = AsyncioNode(StubProtocol(process_id=3), port_base=9600)
        assert node.port == 9603


class TestBackendRegistry:
    def test_get_backend_round_trip(self):
        assert isinstance(get_backend("simulation"), SimulationBackend)
        assert isinstance(get_backend("asyncio"), AsyncioBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("grpc")

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(backend="grpc")

    def test_backend_is_part_of_the_cache_key(self):
        spec = ScenarioSpec(topology=TopologySpec(kind="harary", n=5, k=3), f=1)
        assert (
            spec.with_backend("asyncio").scenario_hash() != spec.scenario_hash()
        )

    def test_default_backend_hash_is_stable(self):
        # The "simulation" default is suppressed from the canonical form
        # so pre-backend hashes (pinned by the golden files) stay valid.
        spec = ScenarioSpec(topology=TopologySpec(kind="harary", n=5, k=3), f=1)
        assert spec.with_backend("simulation").scenario_hash() == spec.scenario_hash()
        assert (
            spec.with_backend("asyncio").with_backend("simulation").scenario_hash()
            == spec.scenario_hash()
        )
