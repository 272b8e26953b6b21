"""Convenience helper running a whole cluster of asyncio nodes in-process.

Used by the integration tests, the ``asyncio_cluster.py`` example and the
scenario engine's :class:`~repro.scenarios.backends.AsyncioBackend`: it
builds one protocol per process of a topology (or hosts prebuilt
instances), wires the TCP connections on localhost and exposes a small
broadcast-and-wait API.

Startup is deterministic: every node binds an ephemeral port, the actual
ports are exchanged through a port map, and :meth:`AsyncioCluster.start`
returns only once the readiness barrier saw every node hold a channel to
every declared neighbor — there is no fixed settle sleep, so slow CI
machines simply take marginally longer instead of flaking.

Scenario fault events translate into cluster-level runtime actions:
:meth:`crash`/:meth:`schedule_crash`, :meth:`add_link_drop_window` and
:meth:`delay_start`.  Timed actions are armed relative to the *epoch*
(:meth:`open_epoch`), the instant the broadcast workload begins.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.network.asyncio_runtime.node import AsyncioNode
from repro.topology.generators import Topology

ProtocolBuilder = Callable[[int, SystemConfig, Iterable[int]], object]


class AsyncioCluster:
    """A set of :class:`AsyncioNode` instances over one topology.

    Parameters
    ----------
    builder:
        Either a callable ``(pid, config, neighbors) -> protocol`` or a
        ready-made mapping ``pid -> protocol`` (the scenario backend
        builds adversary-wrapped instances up front).
    port_base:
        ``None`` (default) uses ephemeral ports exchanged via a port
        map; an integer restores the legacy fixed ``port_base + pid``
        layout.
    collector:
        Optional metrics collector shared by every node.
    """

    def __init__(
        self,
        topology: Topology,
        config: SystemConfig,
        builder: Union[ProtocolBuilder, Mapping[int, object]],
        *,
        port_base: Optional[int] = None,
        host: str = "127.0.0.1",
        collector: Optional[MetricsCollector] = None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.collector = collector
        self.nodes: Dict[int, AsyncioNode] = {}
        for pid in topology.nodes:
            if isinstance(builder, Mapping):
                protocol = builder[pid]
            else:
                protocol = builder(pid, config, sorted(topology.neighbors(pid)))
            self.nodes[pid] = AsyncioNode(
                protocol, host=host, port_base=port_base, collector=collector
            )
        self.epoch: Optional[float] = None
        # (delay_s, thunk) actions armed when the epoch opens.
        self._pending_actions: List[Tuple[float, Callable[[], None]]] = []
        self._timers: List[asyncio.TimerHandle] = []
        self._action_tasks: List[asyncio.Task] = []
        # pid -> actual listening port, filled by start(); churn rewires
        # need it to dial new links mid-run.
        self._port_map: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, *, connect_timeout: float = 10.0) -> None:
        """Start every node and establish all neighbor connections.

        Returns once the readiness barrier passed: every node holds a
        channel to each of its declared neighbors (dialed or accepted),
        after which each live node runs its ``on_start`` hook.
        """
        for node in self.nodes.values():
            await node.start()
        port_map = {pid: node.port for pid, node in self.nodes.items()}
        self._port_map = port_map
        await asyncio.gather(
            *(node.connect_neighbors(port_map) for node in self.nodes.values())
        )
        await asyncio.gather(
            *(
                node.wait_until_connected(
                    set(self.topology.neighbors(pid)), timeout=connect_timeout
                )
                for pid, node in self.nodes.items()
            )
        )
        for node in self.nodes.values():
            await node.run_on_start()

    async def stop(self) -> None:
        """Cancel armed timers and shut every node down."""
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for task in self._action_tasks:
            task.cancel()
        self._action_tasks.clear()
        await asyncio.gather(*(node.stop() for node in self.nodes.values()))

    # ------------------------------------------------------------------
    # Runtime actions (scenario fault events)
    # ------------------------------------------------------------------
    def crash(self, pid: int) -> None:
        """Crash ``pid`` immediately (fail-silent from now on)."""
        self._node(pid).crash()

    def schedule_crash(self, pid: int, at_s: float) -> None:
        """Crash ``pid`` at ``at_s`` seconds after the epoch opens.

        ``at_s <= 0`` crashes right away — before the workload starts —
        matching the simulator's crash-at-time-0 semantics.
        """
        node = self._node(pid)
        if at_s <= 0:
            node.crash()
        else:
            self._pending_actions.append((at_s, node.crash))

    def add_link_drop_window(
        self, u: int, v: int, start_s: float, end_s: Optional[float] = None
    ) -> None:
        """Drop every message on the ``{u, v}`` link during the window.

        Installed symmetrically as outgoing drop filters on both
        endpoints; times are seconds relative to the epoch.
        """
        if not self.topology.has_edge(u, v):
            raise ConfigurationError(f"no link between {u} and {v} to drop")
        if end_s is not None and end_s < start_s:
            raise ConfigurationError(
                f"link-drop window ends before it starts ({start_s}, {end_s})"
            )
        self._node(u).add_drop_window(v, start_s, end_s)
        self._node(v).add_drop_window(u, start_s, end_s)

    def delay_start(self, pid: int, wake_s: float) -> None:
        """Keep ``pid`` dormant until ``wake_s`` seconds after the epoch."""
        node = self._node(pid)
        node.delay_start()
        self._pending_actions.append(
            (wake_s, lambda: self._spawn(node.wake()))
        )

    def join_at(self, pid: int, wake_s: float) -> None:
        """Process ``pid`` joins ``wake_s`` seconds after the epoch.

        Until then the node is a drop-dormant non-member: inbound
        messages are lost (the simulator's JoinAt semantics), and the
        ``on_start`` hook runs at the join instead of cluster start.
        """
        node = self._node(pid)
        node.join_late()
        self._pending_actions.append((wake_s, lambda: self._spawn(node.wake())))

    def leave(self, pid: int) -> None:
        """Process ``pid`` leaves now: fail-silent plus link teardown.

        Every ``{pid, peer}`` channel is severed on both endpoints, so
        later sends toward the departed process are lost on a missing
        channel rather than reaching a dead inbox.
        """
        node = self._node(pid)
        node.crash()
        for peer in self.topology.neighbors(pid):
            node.disconnect_peer(peer)
            self.nodes[peer].disconnect_peer(pid)

    def schedule_leave(self, pid: int, at_s: float) -> None:
        """Have ``pid`` leave ``at_s`` seconds after the epoch opens."""
        self._node(pid)
        self._pending_actions.append((at_s, lambda: self.leave(pid)))

    async def rewire_link(self, pid: int, old_peer: int, new_peer: int) -> None:
        """Replace the ``{pid, old_peer}`` channel with ``{pid, new_peer}``.

        The old channel is severed on both endpoints; both ends of the
        new link accept each other and ``pid`` dials ``new_peer`` using
        the port map exchanged at startup.
        """
        self._node(pid).disconnect_peer(old_peer)
        self._node(old_peer).disconnect_peer(pid)
        self._node(pid).allow_peer(new_peer)
        self._node(new_peer).allow_peer(pid)
        await self._node(pid).dial_peer(new_peer, self._port_map[new_peer])

    def schedule_rewire(
        self, pid: int, old_peer: int, new_peer: int, at_s: float
    ) -> None:
        """Arm a :meth:`rewire_link` ``at_s`` seconds after the epoch."""
        if not self.topology.has_edge(pid, old_peer):
            raise ConfigurationError(
                f"no link between {pid} and {old_peer} to rewire"
            )
        for node in (pid, old_peer, new_peer):
            self._node(node)
        self._pending_actions.append(
            (at_s, lambda: self._spawn(self.rewire_link(pid, old_peer, new_peer)))
        )

    def add_loss_filter(self, u: int, v: int, probability: float, seed: int) -> None:
        """Lose messages on the ``{u, v}`` link with ``probability``.

        Installed symmetrically as outgoing loss filters on both
        endpoints; each direction draws from its own RNG derived from
        ``seed``, mirroring the scenario engine's lossy delay models.
        """
        if not self.topology.has_edge(u, v):
            raise ConfigurationError(f"no link between {u} and {v} to lose on")
        self._node(u).add_loss_filter(v, probability, seed)
        self._node(v).add_loss_filter(u, probability, seed ^ 0x5DEECE66D)

    def add_periodic_drop_window(
        self, u: int, v: int, period_s: float, burst_s: float, offset_s: float = 0.0
    ) -> None:
        """Lose messages on the ``{u, v}`` link during periodic bursts."""
        if not self.topology.has_edge(u, v):
            raise ConfigurationError(f"no link between {u} and {v} to drop")
        self._node(u).add_periodic_drop_window(v, period_s, burst_s, offset_s)
        self._node(v).add_periodic_drop_window(u, period_s, burst_s, offset_s)

    def set_observer(self, observer) -> None:
        """Feed every node's send/delivery observations to ``observer``."""
        for node in self.nodes.values():
            node.observer = observer

    def replace_protocol(self, pid: int, protocol: object) -> None:
        """Swap process ``pid``'s protocol instance mid-run."""
        self._node(pid).replace_protocol(protocol)

    def elapsed_s(self) -> float:
        """Seconds since the epoch opened (0.0 before :meth:`open_epoch`)."""
        if self.epoch is None:
            return 0.0
        return asyncio.get_running_loop().time() - self.epoch

    def open_epoch(self) -> None:
        """Anchor the time base and arm the pending timed actions.

        Call right before initiating the workload; immediate actions
        (``delay <= 0``) fire synchronously so a crash at time 0 is
        already effective when the first broadcast happens.
        """
        loop = asyncio.get_running_loop()
        self.epoch = loop.time()
        for node in self.nodes.values():
            node.set_epoch(self.epoch)
        for delay_s, thunk in self._pending_actions:
            if delay_s <= 0:
                thunk()
            else:
                self._timers.append(loop.call_later(delay_s, thunk))
        self._pending_actions.clear()

    def _spawn(self, coroutine) -> None:
        self._action_tasks.append(asyncio.ensure_future(coroutine))

    def _node(self, pid: int) -> AsyncioNode:
        if pid not in self.nodes:
            raise ConfigurationError(f"unknown process {pid}")
        return self.nodes[pid]

    @property
    def dropped_messages(self) -> int:
        """Messages lost to link-drop windows across all nodes."""
        return sum(node.dropped_messages for node in self.nodes.values())

    def io_counters(self) -> Dict[str, int]:
        """The nodes' wire I/O counters, summed over the cluster.

        ``frames_sent / writes`` is how many frames one socket write
        carried on average.
        """
        nodes = self.nodes.values()
        return {
            "frames_sent": sum(node.frames_sent for node in nodes),
            "writes": sum(node.writes for node in nodes),
            "malformed_frames": sum(node.malformed_frames for node in nodes),
        }

    # ------------------------------------------------------------------
    # Workload API
    # ------------------------------------------------------------------
    async def broadcast(self, source: int, payload: bytes, bid: int = 0) -> None:
        """Broadcast ``payload`` from ``source``."""
        await self.nodes[source].broadcast(payload, bid)

    async def _gather_node_waits(self, wait, processes: Optional[List[int]]) -> bool:
        """Run one per-node wait coroutine over the listed processes."""
        targets = processes if processes is not None else list(self.nodes)
        results = await asyncio.gather(*(wait(self.nodes[pid]) for pid in targets))
        return all(results)

    async def wait_for_all_deliveries(
        self, *, count: int = 1, timeout: float = 30.0, processes: Optional[List[int]] = None
    ) -> bool:
        """Wait until every listed process delivered ``count`` broadcasts."""
        return await self._gather_node_waits(
            lambda node: node.wait_for_delivery(count, timeout), processes
        )

    async def wait_for_deliveries_of(
        self,
        keys: Iterable[Tuple[int, int]],
        *,
        timeout: float = 30.0,
        processes: Optional[List[int]] = None,
    ) -> bool:
        """Wait until every listed process delivered every key in ``keys``.

        Per-broadcast totality: the scenario backend waits on the
        workload's exact ``(source, bid)`` keys, so an unscheduled
        delivery cannot satisfy the wait in place of a scheduled one.
        """
        keys = list(keys)
        return await self._gather_node_waits(
            lambda node: node.wait_for_delivery_of(keys, timeout), processes
        )

    def delivered_payloads(self, pid: int) -> List[bytes]:
        """Payloads delivered by process ``pid`` so far."""
        return [delivery.payload for delivery in self.nodes[pid].deliveries]


__all__ = ["AsyncioCluster"]
