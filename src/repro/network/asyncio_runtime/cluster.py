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

Faults are not known here by name.  The cluster implements the six
runtime primitives of :mod:`repro.scenarios.faults` —
:meth:`~AsyncioCluster.at`, :meth:`~AsyncioCluster.crash`,
:meth:`~AsyncioCluster.hold_until`, :meth:`~AsyncioCluster.drop_link`,
:meth:`~AsyncioCluster.cut_edge`, :meth:`~AsyncioCluster.add_edge` — in
the same spec milliseconds as the simulator; ``time_scale`` maps them to
wall-clock seconds after the *epoch* (:meth:`open_epoch`), the instant
the broadcast workload begins.

Nor is loss translated here.  The cluster takes the ``delay_model`` /
``seed`` pair :class:`~repro.network.simulation.network.SimulatedNetwork`
takes, and every node asks that model which of its sends are lost.
"""

from __future__ import annotations

import asyncio
import math
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.network.asyncio_runtime.node import AsyncioNode
from repro.network.simulation.delays import DelayModel
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
    collector:
        Optional metrics collector shared by every node.
    time_scale:
        Wall-clock seconds per spec millisecond of the primitives' times.
    delay_model, seed:
        The delay model each node asks which sends are lost (``None``:
        lossless), and the seed of its per-link RNGs.  The delays it
        returns are ignored: the sockets provide the real ones.
    """

    def __init__(
        self,
        topology: Topology,
        config: SystemConfig,
        builder: Union[ProtocolBuilder, Mapping[int, object]],
        *,
        host: str = "127.0.0.1",
        collector: Optional[MetricsCollector] = None,
        time_scale: float = 1e-3,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
    ) -> None:
        # ``not <`` also catches NaN; 0 would divide ``now`` by zero.
        if not 0 < time_scale < math.inf:
            raise ConfigurationError(
                f"time_scale must be positive and finite, got {time_scale}"
            )
        self.topology = topology
        self.config = config
        self.collector = collector
        self.time_scale = time_scale
        self.nodes: Dict[int, AsyncioNode] = {}
        for pid in topology.nodes:
            if isinstance(builder, Mapping):
                protocol = builder[pid]
            else:
                protocol = builder(pid, config, sorted(topology.neighbors(pid)))
            self.nodes[pid] = AsyncioNode(
                protocol,
                host=host,
                collector=collector,
                delay_model=delay_model,
                seed=seed,
                time_scale=time_scale,
            )
        self.epoch: Optional[float] = None
        # (time_ms, action, args) armed when the epoch opens.
        self._pending_actions: List[Tuple[float, Callable, tuple]] = []
        self._timers: List[asyncio.TimerHandle] = []
        self._action_tasks: List[asyncio.Task] = []
        # The live graph: cut_edge / add_edge edit it, start() connects it.
        self._adjacency: Dict[int, Set[int]] = {
            pid: set(topology.neighbors(pid)) for pid in topology.nodes
        }
        # pid -> actual listening port, filled by start(); an edge added
        # mid-run is dialed through it.
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
                    set(self._adjacency[pid]), timeout=connect_timeout
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
    # Runtime primitives (see repro.scenarios.faults), times in spec ms
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Spec milliseconds since the epoch opened (0.0 before it did)."""
        if self.epoch is None:
            return 0.0
        return (asyncio.get_running_loop().time() - self.epoch) / self.time_scale

    def at(self, time_ms: float, action: Callable, *args) -> None:
        """Run ``action(*args)`` at ``time_ms`` after the epoch.

        A time already reached runs the action inside the call — before
        the epoch that is ``time_ms <= 0``, which is how a crash at time
        0 precedes ``on_start``; later times wait for the epoch.
        """
        delay_s = (time_ms - self.now) * self.time_scale
        if delay_s <= 0:
            action(*args)
        elif self.epoch is None:
            self._pending_actions.append((time_ms, action, args))
        else:
            self._timers.append(
                asyncio.get_running_loop().call_later(delay_s, action, *args)
            )

    def crash(self, pid: int) -> None:
        """Crash ``pid`` immediately (fail-silent from now on)."""
        self._node(pid).crash()

    def hold_until(self, pid: int, time_ms: float, keep_inbound: bool) -> None:
        """Process ``pid`` starts ``time_ms`` after the epoch, not at startup.

        Until then the node is dormant: ``on_start`` waits, a broadcast
        asked of it waits, and inbound messages are buffered for replay
        (``keep_inbound``) or dropped and counted.  The release is armed
        for the epoch even at ``time_ms == 0`` — a process never starts
        before its channels exist.  A process has one start time.
        """
        node = self._node(pid)
        if self._port_map:
            raise ConfigurationError("hold_until must be called before the run starts")
        if time_ms < 0:
            raise ConfigurationError(f"start time must be non-negative, got {time_ms}")
        if node.dormant:
            raise ConfigurationError(f"process {pid} already has a start time")
        node.hold(keep_inbound)
        self._pending_actions.append((time_ms, self._spawn, (node.wake,)))

    def drop_link(
        self, u: int, v: int, start_ms: float, end_ms: Optional[float] = None
    ) -> None:
        """Drop every message on the ``{u, v}`` link during the window.

        Installed symmetrically as outgoing drop windows on both
        endpoints.
        """
        if not self.topology.has_edge(u, v):
            raise ConfigurationError(f"no link between {u} and {v} to drop")
        if end_ms is not None and end_ms < start_ms:
            raise ConfigurationError(
                f"link-drop window ends before it starts ({start_ms}, {end_ms})"
            )
        start_s = start_ms * self.time_scale
        end_s = None if end_ms is None else end_ms * self.time_scale
        self._node(u).add_drop_window(v, start_s, end_s)
        self._node(v).add_drop_window(u, start_s, end_s)

    def cut_edge(self, u: int, v: int) -> None:
        """Remove the ``{u, v}`` edge from the live graph (no-op if absent).

        The channel is severed on both endpoints, so later sends onto it
        are lost on a missing channel rather than reaching an inbox.
        """
        node_u, node_v = self._node(u), self._node(v)
        if v not in self._adjacency[u]:
            return
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        node_u.disconnect_peer(v)
        node_v.disconnect_peer(u)

    def add_edge(self, u: int, v: int) -> None:
        """Bring the ``{u, v}`` edge up in the live graph.

        Both endpoints accept each other; a running cluster dials the
        new channel now (``u`` dials ``v`` through the port map), one
        that has not started yet connects it with the rest.
        """
        node_u, node_v = self._node(u), self._node(v)
        if v in self._adjacency[u]:
            return
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        node_u.allow_peer(v)
        node_v.allow_peer(u)
        if self._port_map:
            self._spawn(node_u.dial_peer, v, self._port_map[v])

    def _set_observer(self, observer) -> None:
        for node in self.nodes.values():
            node.observer = observer

    #: Assign to feed every node's send/delivery observations to one
    #: observer (the counterpart of ``SimulatedNetwork.observer``).
    observer = property(fset=_set_observer)

    @property
    def protocols(self) -> Dict[int, object]:
        """The live protocol instance of every process."""
        return {pid: node.protocol for pid, node in self.nodes.items()}

    def replace_protocol(self, pid: int, protocol: object) -> None:
        """Swap process ``pid``'s protocol instance mid-run."""
        self._node(pid).replace_protocol(protocol)

    def open_epoch(self) -> None:
        """Anchor the time base and arm the pending timed actions.

        Call right before initiating the workload; actions due at the
        epoch itself (a release at time 0) run synchronously.
        """
        self.epoch = asyncio.get_running_loop().time()
        for node in self.nodes.values():
            node.set_epoch(self.epoch)
        pending, self._pending_actions = self._pending_actions, []
        for time_ms, action, args in pending:
            self.at(time_ms, action, *args)

    def _spawn(self, coroutine_function, *args) -> None:
        self._action_tasks.append(asyncio.ensure_future(coroutine_function(*args)))

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
