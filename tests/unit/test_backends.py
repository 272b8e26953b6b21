"""Unit tests for execution backends and faults applied to a cluster.

Everything here runs without opening a socket: faults and loss are armed
on a built (never started) cluster of stub protocols, and the node-level
runtime actions (crash, dormancy, drop windows, loss) are exercised
directly.
"""

import asyncio
import math
import random

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.events import SendTo
from repro.core.messages import CrossLayerMessage, MessageType
from repro.metrics.collector import MetricsCollector
from repro.network.asyncio_runtime import AsyncioCluster, AsyncioNode
from repro.network.asyncio_runtime.framing import LENGTH
from repro.network.simulation.delays import (
    DROP,
    BurstyLossWindow,
    DelayModel,
    FixedDelay,
    LossyDelay,
)
from repro.scenarios import (
    AsyncioBackend,
    CrashAt,
    DelayedStart,
    LinkDropWindow,
    ScenarioSpec,
    TopologySpec,
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

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "argument", ["time_scale", "delivery_timeout_s", "connect_timeout_s"]
    )
    def test_bad_timing_arguments_rejected(self, argument, value):
        with pytest.raises(ConfigurationError, match=argument):
            AsyncioBackend(**{argument: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_cluster_rejects_a_bad_time_scale(self, value):
        with pytest.raises(ConfigurationError, match="time_scale"):
            self._cluster(time_scale=value)


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


class _Started(Exception):
    """Raised in place of opening the cluster's sockets."""


def cluster_built_for(spec, monkeypatch, backend=None):
    """The cluster ``AsyncioBackend.run_async`` builds for ``spec``,
    stopped before it opens a socket."""
    from repro.scenarios import backends

    built = []

    class CapturingCluster(AsyncioCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        async def start(self, *, connect_timeout=10.0):
            raise _Started

    monkeypatch.setattr(backends, "AsyncioCluster", CapturingCluster)
    with pytest.raises(_Started):
        asyncio.run((backend or AsyncioBackend()).run_async(spec))
    (cluster,) = built
    return cluster


def drop_decisions(node, peer, count=64):
    return [node.link_dropped(peer, 0.0) for _ in range(count)]


class TestLossModelOnCluster:
    """``run_async`` hands the cluster the spec's own delay model and seed."""

    def _spec(self, **delay_kwargs):
        return ScenarioSpec(
            name="loss-plan",
            topology=TopologySpec(kind="complete", n=4),
            delay=DelaySpec(kind="fixed", mean_ms=5.0, **delay_kwargs),
            f=0,
            seed=9,
            backend="asyncio",
        )

    def test_lossless_spec_installs_no_model(self, monkeypatch):
        cluster = cluster_built_for(self._spec(), monkeypatch)
        assert all(node.delay_model is None for node in cluster.nodes.values())
        assert not cluster.nodes[0].link_dropped(1, elapsed_s=0.0)

    def test_lossy_spec_installs_its_model_seeded_from_the_hash(self, monkeypatch):
        spec = self._spec(loss=0.2)
        cluster = cluster_built_for(spec, monkeypatch)
        for node in cluster.nodes.values():
            assert node.delay_model == spec.delay.build()
            assert node.seed == int(spec.scenario_hash()[:16], 16)

    def test_link_seeds_are_deterministic_and_differ_per_link_and_scenario(
        self, monkeypatch
    ):
        spec = self._spec(loss=0.5)

        def sequences(spec):
            cluster = cluster_built_for(spec, monkeypatch)
            return {
                (u, v): tuple(drop_decisions(cluster.nodes[u], v))
                for u in cluster.topology.nodes
                for v in cluster.topology.neighbors(u)
            }

        first = sequences(spec)
        # Deterministic: re-building yields identical drop sequences...
        assert sequences(spec) == first
        # ... distinct per directed link ...
        assert len(set(first.values())) == len(first)
        # ... and distinct per scenario (same graph, different hash).
        other = sequences(spec.with_seed(10))
        assert set(first.values()).isdisjoint(other.values())

    def test_burst_windows_scale_through_time_scale(self, monkeypatch):
        spec = self._spec(burst_period_ms=100.0, burst_len_ms=20.0)
        cluster = cluster_built_for(
            spec, monkeypatch, AsyncioBackend(time_scale=2e-3)
        )
        # Both directions: down for the first 40 ms of every 200 ms.
        assert cluster.nodes[0].link_dropped(1, elapsed_s=0.03)
        assert cluster.nodes[1].link_dropped(0, elapsed_s=0.23)
        assert not cluster.nodes[0].link_dropped(1, elapsed_s=0.05)


class CountingDelay(DelayModel):
    """Drops every third send and answers NaN otherwise."""

    def __init__(self):
        self.calls = []

    def sample_event(self, rng, sender, dest, size_bytes, time_ms):
        self.calls.append((rng, sender, dest, size_bytes, time_ms))
        return DROP if len(self.calls) % 3 == 0 else math.nan


class TestNodeLossModel:
    def test_loss_is_seed_deterministic(self):
        decisions = []
        for _ in range(2):
            node = AsyncioNode(
                StubProtocol(), delay_model=LossyDelay(FixedDelay(0.0), 0.5), seed=1234
            )
            decisions.append(drop_decisions(node, 1))
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_zero_loss_never_drops(self):
        node = AsyncioNode(StubProtocol(), delay_model=LossyDelay(FixedDelay(0.0), 0.0))
        assert not any(drop_decisions(node, 1, count=16))

    def test_periodic_burst_arithmetic(self):
        node = AsyncioNode(
            StubProtocol(),
            delay_model=BurstyLossWindow(FixedDelay(0.0), period_ms=1000.0, burst_ms=250.0),
        )
        assert node.link_dropped(1, 0.1)
        assert not node.link_dropped(1, 0.5)
        assert node.link_dropped(1, 2.2)  # bursts repeat every period

    def test_drop_windows_precede_the_model(self):
        model = CountingDelay()
        node = AsyncioNode(StubProtocol(), delay_model=model)
        node.add_drop_window(1, 0.0, None)
        assert node.link_dropped(1, 0.0)
        assert model.calls == []  # a window loss costs the model no draw
        node.link_dropped(2, 0.0)
        assert len(model.calls) == 1


class SendingProtocol(StubProtocol):
    """Answers a broadcast with one fan-out to the scripted destinations."""

    def __init__(self, dests, **kwargs):
        super().__init__(**kwargs)
        self.dests = dests

    def broadcast(self, payload, bid=0):
        message = CrossLayerMessage(
            mtype=MessageType.ECHO, source=self.process_id, bid=bid, payload=payload
        )
        return [SendTo(tuple(self.dests), message)]


class FakeWriter:
    def __init__(self):
        self.frames = 0

    def write(self, data):
        offset = 0
        while offset < len(data):
            (length,) = LENGTH.unpack_from(data, offset)
            offset += LENGTH.size + length
            self.frames += 1

    async def drain(self):
        pass


class TestNodeAsksTheModel:
    def test_stub_model_drops_every_third_send_and_its_delay_is_unread(self):
        dests = [1, 2, 1, 1, 2, 2, 1, 2, 1]
        model = CountingDelay()
        collector = MetricsCollector()
        node = AsyncioNode(
            SendingProtocol(dests, neighbors=(1, 2)),
            collector=collector,
            delay_model=model,
            seed=5,
            time_scale=2e-3,
        )
        writers = {1: FakeWriter(), 2: FakeWriter()}
        node._writers.update(writers)

        async def drive():
            # The epoch opened 10 ms of wall clock ago: 5 spec ms at 2e-3.
            node.set_epoch(asyncio.get_running_loop().time() - 0.01)
            await node.broadcast(b"m")

        asyncio.run(drive())

        assert node.dropped_messages == 3
        kept = [dest for index, dest in enumerate(dests, 1) if index % 3]
        assert writers[1].frames == kept.count(1)
        assert writers[2].frames == kept.count(2)
        assert [(sender, dest) for _, sender, dest, _, _ in model.calls] == [
            (0, dest) for dest in dests
        ]
        # One RNG per directed link; the size is what the collector charged.
        rngs = {dest: rng for rng, _, dest, _, _ in model.calls}
        assert rngs[1] is not rngs[2]
        assert all(rng is rngs[dest] for rng, _, dest, _, _ in model.calls)
        assert all(size > 0 for _, _, _, size, _ in model.calls)
        # The send time is spec milliseconds since the epoch.
        assert all(5.0 <= time_ms < 500.0 for *_, time_ms in model.calls)


# Frozen copy of the per-connection filters and the seed derivation the
# scenario backend installed before loss was delegated to the delay
# model.  The model path must reproduce their decisions wherever the
# base delay draws no randomness of its own before the loss draw.
def frozen_loss_filter(probability, seed):
    rng = random.Random(seed)
    return lambda _elapsed_s: rng.random() < probability


def frozen_periodic_filter(period_s, burst_s, offset_s=0.0):
    return lambda elapsed_s: (elapsed_s - offset_s) % period_s < burst_s


def frozen_link_filters(spec, topology, time_scale):
    """(u, v) -> the filters the old translation put on the u→v direction."""
    delay = spec.delay
    base_seed = int(spec.scenario_hash()[:16], 16)
    filters = {}
    for u in topology.nodes:
        for v in sorted(topology.neighbors(u)):
            if v <= u:
                continue
            for src, dst in ((u, v), (v, u)):
                filters[src, dst] = []
            if delay.loss > 0.0:
                seed = base_seed ^ (u * 0x9E3779B1 + v)
                filters[u, v].append(frozen_loss_filter(delay.loss, seed))
                filters[v, u].append(
                    frozen_loss_filter(delay.loss, seed ^ 0x5DEECE66D)
                )
            if delay.burst_period_ms > 0.0 and delay.burst_len_ms > 0.0:
                for link in ((u, v), (v, u)):
                    filters[link].append(
                        frozen_periodic_filter(
                            delay.burst_period_ms * time_scale,
                            delay.burst_len_ms * time_scale,
                        )
                    )
    return filters


BURSTS = dict(burst_period_ms=40.0, burst_len_ms=10.0)


class TestLossDifferential:
    @pytest.mark.parametrize("time_scale", [1e-3, 2e-3])
    @pytest.mark.parametrize(
        "delay",
        [
            DelaySpec(kind="fixed", mean_ms=5.0, loss=0.2),
            DelaySpec(kind="fixed", mean_ms=5.0, **BURSTS),
            DelaySpec(kind="fixed", mean_ms=5.0, loss=0.2, **BURSTS),
            DelaySpec(kind="normal", **BURSTS),
            DelaySpec(kind="uniform", **BURSTS),
        ],
        ids=["fixed-loss", "fixed-burst", "fixed-both", "normal-burst", "uniform-burst"],
    )
    def test_model_path_matches_the_old_filters(self, delay, time_scale):
        spec = ScenarioSpec(
            name="loss-differential",
            topology=TopologySpec(kind="complete", n=6),
            delay=delay,
            f=1,
            seed=3,
            backend="asyncio",
        )
        topology = spec.topology.build(spec.seed)
        model = spec.delay.build()
        seed = int(spec.scenario_hash()[:16], 16)
        frozen = frozen_link_filters(spec, topology, time_scale)
        schedule = random.Random(11)
        mismatches = draws = 0
        for (u, v), filters in sorted(frozen.items()):
            node = AsyncioNode(
                StubProtocol(u, topology.neighbors(u)),
                delay_model=model,
                seed=seed,
                time_scale=time_scale,
            )
            elapsed_s = 0.0
            for _ in range(400):
                elapsed_s += schedule.uniform(0.0, 3.0) * time_scale
                old = any(drop(elapsed_s) for drop in filters)
                mismatches += node.link_dropped(v, elapsed_s) != old
                draws += 1
        assert draws == 30 * 400
        assert mismatches == 0


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


class TestBackendRegistry:
    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(backend="grpc")

    def test_backend_is_part_of_the_cache_key(self):
        spec = ScenarioSpec(topology=TopologySpec(kind="harary", n=5, k=3), f=1)
        assert (
            spec.with_backend("asyncio").scenario_hash() != spec.scenario_hash()
        )

    def test_default_backend_hash_is_stable(self):
        # The "simulation" default is left out of the JSON form
        # so pre-backend hashes (pinned by the golden files) stay valid.
        spec = ScenarioSpec(topology=TopologySpec(kind="harary", n=5, k=3), f=1)
        assert spec.with_backend("simulation").scenario_hash() == spec.scenario_hash()
        assert (
            spec.with_backend("asyncio").with_backend("simulation").scenario_hash()
            == spec.scenario_hash()
        )
