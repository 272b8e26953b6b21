"""A single protocol instance hosted over asyncio TCP connections.

Each node listens on a TCP port and opens one connection per neighbor
with a larger identifier (the lower-id peer always dials, which avoids
duplicate connections).  The first frame on every connection is a HELLO
carrying the dialing node's identifier; afterwards every frame is an
encoded protocol message.  Connections are only accepted from declared
neighbors, mirroring the authenticated-channel assumption.

The data path works on batches, not on single frames.  *Inbound*, each
connection's read loop takes whatever the socket holds (up to
:data:`READ_CHUNK_BYTES`), appends it to a buffer and hands every frame
the chunk completes to the protocol, synchronously and in order; a
partial frame waits for the next chunk.  A frame whose body does not
decode is dropped and counted (:attr:`AsyncioNode.malformed_frames`) —
its length prefix was valid, so the framing is intact — while an
oversized prefix closes the link.  *Outbound*, interpreting a command
list never touches a socket: each send is checked against the crash
flag, recorded in the collector, checked against the drop windows, the
delay model and the severed set (in that order), and its frame is
appended to a per-destination outbox.  A message object is encoded once
per command list however many neighbors it goes to.  The outbox is
flushed — one ``write`` of the concatenated frames per destination, then
one ``drain`` each — after every chunk, every :meth:`broadcast`, every
:meth:`handle_message` and every ``on_start``/:meth:`wake` replay step.
Back-pressure is therefore paid per batch: a read loop does not take its
next chunk while a destination it relayed to is not draining, and the
loops of other peers keep running.  Frames queued before a crash are
still written, none after; per-link order is the order of the sends.  An
observer sees a send once it is *queued for the wire or provably lost*,
and what is queued is written even if the observer's reaction crashes
the node.

Ports are ephemeral: a node binds port 0, learns the port the kernel
assigned and publishes it through the cluster's port map, so concurrent
clusters (pytest-xdist workers, parallel CI jobs) never race for a fixed
port range.

Loss is the spec's own :class:`~repro.network.simulation.delays.DelayModel`,
asked per send exactly as the simulator asks it: a send is lost when
``delay_model.sample_event(rng, pid, dest, size, now_ms)`` returns
:data:`~repro.network.simulation.delays.DROP`.  ``now_ms`` is spec
milliseconds since the epoch and ``rng`` is one ``random.Random`` per
directed link derived from ``seed``; the returned delay is ignored,
because the sockets provide the real one.

Beyond plain hosting, a node carries the per-process half of the
runtime primitives :class:`~repro.network.asyncio_runtime.cluster.AsyncioCluster`
implements for :mod:`repro.scenarios.faults`:

* :meth:`crash` — the process goes fail-silent: it stops sending and
  ignores every future message (sockets stay open; TCP liveness is not
  process correctness);
* :meth:`hold` / :meth:`wake` — a held process runs no hook and
  initiates nothing until it is woken; meanwhile its inbound messages
  are buffered and replayed in arrival order at the wake, or dropped and
  counted, matching the simulator's ``hold_until``;
* :meth:`add_drop_window` — outgoing messages to one peer are dropped
  while the wall clock (relative to the cluster epoch) falls inside a
  window, matching the simulator's link-drop windows;
* :meth:`disconnect_peer` / :meth:`allow_peer` / :meth:`dial_peer` — one
  endpoint's share of cutting or adding an edge of the live graph;
* :meth:`replace_protocol` — swap the hosted instance mid-run (adaptive
  adversaries turning a process Byzantine);
* an :attr:`observer` hook reporting every send/delivery as an
  :class:`~repro.core.events.Observation`, feeding adaptive triggers.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.encoding import decode_message, encode_message
from repro.core.errors import EncodingError, RuntimeAbort
from repro.core.events import BRBDeliver, Command, Observation, SendTo
from repro.metrics.collector import MetricsCollector, message_type_name
from repro.network.asyncio_runtime.framing import (
    HELLO as _HELLO,
    FrameError,
    encode_frame,
    iter_frames,
)
from repro.network.simulation.delays import DROP, DelayModel

#: Bytes asked of a socket per read.  Every frame a chunk completes is
#: handled before the next read, so this also bounds how much inbound
#: traffic one flush (and one back-pressure wait) covers.
READ_CHUNK_BYTES = 64 * 1024

# One batch's encoded frames by message identity; the entry holds the
# message so its id cannot be recycled while the batch is interpreted.
_EncodedFrames = Dict[int, Tuple[object, bytes]]


class AsyncioNode:
    """Hosts one sans-io protocol instance over TCP.

    Parameters
    ----------
    protocol:
        Any object implementing the protocol interface (``broadcast`` /
        ``on_message`` returning command lists).
    collector:
        Optional :class:`MetricsCollector` shared by the cluster; sends
        and deliveries are recorded with wall-clock milliseconds relative
        to the cluster epoch (see :meth:`set_epoch`).
    delay_model, seed:
        The lossy delay model that decides which sends are lost (``None``:
        none is), and the seed its per-link RNGs derive from.
    time_scale:
        Wall-clock seconds per spec millisecond, mapping the epoch-relative
        wall clock to the model's ``time_ms``.
    """

    def __init__(
        self,
        protocol,
        *,
        host: str = "127.0.0.1",
        collector: Optional[MetricsCollector] = None,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
        time_scale: float = 1e-3,
    ) -> None:
        self.protocol = protocol
        self.process_id = protocol.process_id
        self.host = host
        self.collector = collector
        self.delay_model = delay_model
        self.seed = seed
        self.time_scale = time_scale
        # peer -> the RNG of the link to it, made at its first send.
        self._link_rngs: Dict[int, random.Random] = {}
        self._port: Optional[int] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._reader_tasks: List[asyncio.Task] = []
        # dest -> frames queued since the last flush, in send order.
        self._outbox: Dict[int, List[bytes]] = {}
        # Pulsed on every neighbor registration; wait_until_connected
        # re-checks the writer set after each pulse (readiness barrier).
        self._registered = asyncio.Event()
        self._epoch: Optional[float] = None
        # Runtime-action state (see the module docstring).
        self._crashed = False
        self._dormant = False
        # A hold that does not keep inbound *drops* the messages instead
        # of buffering them: a late joiner missed the early traffic.
        self._drop_dormant = False
        self._dormant_buffer: Deque[Tuple[int, object]] = deque()
        self._pending_broadcasts: List[Tuple[bytes, int]] = []
        # Peers whose channel a churn event tore down: outgoing messages
        # to them are lost, and their redials are rejected.
        self._severed: Set[int] = set()
        # Peers granted a channel beyond the declared neighbor set (an
        # edge added to the live graph).
        self._extra_peers: Set[int] = set()
        # peer -> [(start_s, end_s)] drop windows, relative to the epoch;
        # end_s is None for a window that never closes.
        self._drop_windows: Dict[int, List[Tuple[float, Optional[float]]]] = {}
        #: Observer of protocol events (sends/deliveries); set by the
        #: scenario backend to feed adaptive adversaries.
        self.observer: Optional[Callable[[Observation], None]] = None
        #: Outgoing messages lost to drop windows or the delay model.
        self.dropped_messages = 0
        #: Frames handed to a socket, and the ``write`` calls that carried
        #: them; ``frames_sent / writes`` is the coalescing factor.
        self.frames_sent = 0
        self.writes = 0
        #: Inbound frames whose body did not decode (dropped, link kept).
        self.malformed_frames = 0
        #: BRB deliveries observed by this node, as (source, bid, payload).
        self.deliveries: List[BRBDeliver] = []
        self._delivered_keys: Set[Tuple[int, int]] = set()
        self.delivery_event = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The port this node listens on; it exists once :meth:`start`
        bound the socket."""
        if self._port is None:
            raise RuntimeAbort(
                f"node {self.process_id} uses ephemeral ports and has not started yet"
            )
        return self._port

    async def start(self) -> None:
        """Start listening for inbound neighbor connections."""
        self._server = await asyncio.start_server(
            self._on_inbound, host=self.host, port=0
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def connect_neighbors(self, port_map: Mapping[int, int]) -> None:
        """Dial every neighbor with a larger identifier.

        ``port_map`` maps process id → actual listening port; the cluster
        builds it after every node started.
        """
        for neighbor in sorted(self._channel_peers()):
            if neighbor > self.process_id:
                await self._dial(neighbor, port_map[neighbor])

    async def _dial(self, neighbor: int, port: int, *, attempts: int = 40) -> None:
        last_error: Optional[Exception] = None
        for _ in range(attempts):
            try:
                reader, writer = await asyncio.open_connection(self.host, port)
                writer.write(_HELLO.pack(self.process_id))
                await writer.drain()
                self._register(neighbor, reader, writer)
                return
            except OSError as exc:  # the peer may not be listening yet
                last_error = exc
                await asyncio.sleep(0.05)
        raise RuntimeAbort(f"could not connect to neighbor {neighbor}: {last_error}")

    async def _on_inbound(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hello = await reader.readexactly(_HELLO.size)
        except asyncio.IncompleteReadError:
            writer.close()
            return
        (peer_id,) = _HELLO.unpack(hello)
        if peer_id not in self._channel_peers():
            writer.close()
            return
        self._register(peer_id, reader, writer)

    def _channel_peers(self) -> Set[int]:
        """The peers this node owns an authenticated channel to: declared
        neighbors and added-in peers; severed peers stay disconnected."""
        return (set(self.protocol.neighbors) | self._extra_peers) - self._severed

    def _register(
        self, peer_id: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers[peer_id] = writer
        task = asyncio.ensure_future(self._read_loop(peer_id, reader))
        self._reader_tasks.append(task)
        self._registered.set()

    async def wait_until_connected(
        self, expected: Set[int], timeout: float = 10.0
    ) -> None:
        """Block until a channel to every process in ``expected`` exists.

        This is the per-node half of the cluster readiness barrier: both
        dialed and accepted connections count, so once it returns the
        node can reach — and be reached by — every declared neighbor.
        Raises :class:`RuntimeAbort` on timeout.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not expected <= self._writers.keys():
            remaining = deadline - loop.time()
            if remaining <= 0:
                missing = sorted(expected - self._writers.keys())
                raise RuntimeAbort(
                    f"node {self.process_id} timed out waiting for "
                    f"connections from {missing}"
                )
            self._registered.clear()
            try:
                await asyncio.wait_for(self._registered.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                continue  # re-check and fail with the missing set above
        return

    async def stop(self) -> None:
        """Close the server, the connections and the reader tasks."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._reader_tasks:
            task.cancel()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()

    # ------------------------------------------------------------------
    # Runtime actions (scenario fault events)
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def dormant(self) -> bool:
        return self._dormant

    def set_epoch(self, epoch: float) -> None:
        """Anchor drop windows and metric timestamps at loop time ``epoch``."""
        self._epoch = epoch

    def _elapsed_s(self) -> float:
        if self._epoch is None:
            return 0.0
        return asyncio.get_running_loop().time() - self._epoch

    def crash(self) -> None:
        """Go fail-silent: never send again, ignore every future message.

        Wakes any delivery waiter: a crashed process can never satisfy a
        pending wait, so blocking on it until the timeout (e.g. after an
        adaptive trigger crashed it mid-run) would only stall the run.
        """
        self._crashed = True
        self._dormant_buffer.clear()
        self._pending_broadcasts.clear()
        self.delivery_event.set()

    def hold(self, keep_inbound: bool) -> None:
        """Become dormant until :meth:`wake`: no hook runs, broadcasts wait.

        Inbound messages are buffered for replay (``keep_inbound``) or
        dropped and counted — a late joiner missed the early traffic.
        """
        self._dormant = True
        self._drop_dormant = not keep_inbound

    def disconnect_peer(self, peer: int) -> None:
        """Tear the channel to ``peer`` down (this endpoint of a cut edge).

        Outgoing messages to a severed peer are lost (counted in
        :attr:`dropped_messages`) and its redials are rejected, mirroring
        the simulator dropping sends on a removed edge.
        """
        self._severed.add(peer)
        self._close_link(peer)

    def _close_link(self, peer: int) -> None:
        writer = self._writers.pop(peer, None)
        if writer is not None:
            writer.close()

    def allow_peer(self, peer: int) -> None:
        """Accept a channel to ``peer`` beyond the declared neighbor set
        (this endpoint of an added edge)."""
        self._severed.discard(peer)
        self._extra_peers.add(peer)

    async def dial_peer(self, peer: int, port: int) -> None:
        """Dial ``peer`` on ``port`` mid-run (bringing an added edge up)."""
        self._severed.discard(peer)
        await self._dial(peer, port)

    def add_drop_window(
        self, peer: int, start_s: float, end_s: Optional[float] = None
    ) -> None:
        """Drop outgoing messages to ``peer`` while inside the window.

        Times are seconds relative to the cluster epoch; ``end_s=None``
        models a link that goes down and never reopens.  The dropped
        message's bytes are still recorded as sent, mirroring the
        simulator's accounting of a transmission that leaves the NIC but
        never arrives.
        """
        self._drop_windows.setdefault(peer, []).append((start_s, end_s))

    def link_dropped(
        self, peer: int, elapsed_s: Optional[float] = None, size_bytes: int = 0
    ) -> bool:
        """Whether a message to ``peer`` at ``elapsed_s`` would be lost.

        Consults the timed drop windows first, then the delay model, which
        draws from the link's RNG as the model says (a probabilistic loss
        draws once per consulted message).
        """
        if elapsed_s is None:
            elapsed_s = self._elapsed_s()
        windows = self._drop_windows.get(peer)
        if windows and any(
            start <= elapsed_s and (end is None or elapsed_s < end)
            for start, end in windows
        ):
            return True
        if self.delay_model is None:
            return False
        rng = self._link_rngs.get(peer)
        if rng is None:
            # Seeded as the scenario backend always seeded a link: by its
            # endpoints, with the higher-to-lower direction flipped.
            lo, hi = sorted((self.process_id, peer))
            seed = self.seed ^ (lo * 0x9E3779B1 + hi)
            if self.process_id > peer:
                seed ^= 0x5DEECE66D
            rng = self._link_rngs[peer] = random.Random(seed)
        outcome = self.delay_model.sample_event(
            rng, self.process_id, peer, size_bytes, elapsed_s / self.time_scale
        )
        return outcome is DROP

    def replace_protocol(self, protocol: object) -> None:
        """Swap the hosted protocol instance mid-run.

        Used by adaptive adversaries to turn a (so far correct) process
        Byzantine once a trigger fires; messages already written to the
        sockets are not retracted.
        """
        self.protocol = protocol

    async def wake(self) -> None:
        """Wake a dormant process: run ``on_start`` and replay the buffer.

        The node stays dormant while the buffer is replayed, so messages
        arriving concurrently keep queueing behind the buffered prefix —
        replay is in strict arrival order, matching the simulator's
        atomic wake-up.
        """
        if self._crashed or not self._dormant:
            return
        self._drop_dormant = False
        hook = getattr(self.protocol, "on_start", None)
        if hook is not None:
            self._execute(hook())
            await self._flush()
        while self._dormant_buffer:
            if self._crashed:
                return
            sender, message = self._dormant_buffer.popleft()
            self._execute(self.protocol.on_message(sender, message))
            await self._flush()
        self._dormant = False
        pending, self._pending_broadcasts = self._pending_broadcasts, []
        for payload, bid in pending:
            if self._crashed:
                return
            await self.broadcast(payload, bid)

    # ------------------------------------------------------------------
    # Protocol driving
    # ------------------------------------------------------------------
    async def run_on_start(self) -> None:
        """Run the protocol's ``on_start`` hook (once connections exist)."""
        if self._crashed or self._dormant:
            return
        hook = getattr(self.protocol, "on_start", None)
        if hook is None:
            return
        self._execute(hook())
        await self._flush()

    async def broadcast(self, payload: bytes, bid: int = 0) -> None:
        """Initiate a broadcast from this node.

        A crashed node does nothing; a dormant node broadcasts right
        after it wakes (the simulator's ``hold_until`` semantics).
        """
        if self._crashed:
            return
        if self._dormant:
            self._pending_broadcasts.append((payload, bid))
            return
        self._execute(self.protocol.broadcast(payload, bid))
        await self._flush()

    async def handle_message(self, peer_id: int, message) -> None:
        """Feed one decoded protocol message into the hosted instance."""
        self._handle(peer_id, message)
        await self._flush()

    def _handle(self, peer_id: int, message) -> None:
        if self._crashed:
            return
        if self._dormant:
            if self._drop_dormant:
                # A pending joiner is not a member yet: the message is
                # lost, not queued for later.
                self.dropped_messages += 1
                return
            self._dormant_buffer.append((peer_id, message))
            return
        self._execute(self.protocol.on_message(peer_id, message))

    async def _read_loop(self, peer_id: int, reader: asyncio.StreamReader) -> None:
        buffer = bytearray()
        try:
            while True:
                chunk = await reader.read(READ_CHUNK_BYTES)
                if not chunk:  # EOF; a peer that died mid-frame leaves a tail
                    return
                buffer += chunk
                try:
                    self._handle_frames(peer_id, buffer)
                finally:
                    # Also on an oversized prefix: what the frames in
                    # front of it triggered still reaches the wire.
                    await self._flush()
        except FrameError:
            self._close_link(peer_id)
        except ConnectionError:
            return

    def _handle_frames(self, peer_id: int, buffer: bytearray) -> None:
        """Feed every frame ``buffer`` completes to the protocol."""
        for frame in iter_frames(buffer):
            try:
                message = decode_message(frame)
            except EncodingError:
                # Garbage inside a well-formed frame: the framing is
                # intact, so only this body is lost.
                self.malformed_frames += 1
                continue
            self._handle(peer_id, message)

    def _execute(self, commands: Iterable[Command]) -> None:
        """Interpret one command batch; sends are queued for :meth:`_flush`."""
        encoded: _EncodedFrames = {}
        for command in commands:
            if self._crashed:
                return
            if isinstance(command, SendTo):
                self._send(command.dest, command.message, encoded)
            elif isinstance(command, BRBDeliver):
                self._record_delivery(command)

    def _record_delivery(self, delivery: BRBDeliver) -> None:
        self.deliveries.append(delivery)
        self._delivered_keys.add((delivery.source, delivery.bid))
        time_ms = self._elapsed_s() * 1000.0
        if self.collector is not None:
            self.collector.record_delivery(
                time_ms,
                self.process_id,
                delivery.source,
                delivery.bid,
                delivery.payload,
            )
        self.delivery_event.set()
        if self.observer is not None:
            self.observer(
                Observation(
                    kind="deliver",
                    time_ms=time_ms,
                    pid=self.process_id,
                    source=delivery.source,
                    bid=delivery.bid,
                )
            )

    def _send(self, dest: int, message, encoded: _EncodedFrames) -> None:
        elapsed_s = self._elapsed_s()
        size = 0
        if self.collector is not None:
            size = self.collector.record_send(
                elapsed_s * 1000.0, self.process_id, dest, message
            )
        if self.link_dropped(dest, elapsed_s, size) or dest in self._severed:
            self.dropped_messages += 1
        elif dest in self._writers:
            entry = encoded.get(id(message))
            if entry is None:
                try:
                    frame = encode_frame(encode_message(message))
                except FrameError as exc:
                    # Outbound overflow is our own bug, not a peer
                    # disconnect: surface it instead of letting
                    # _read_loop's FrameError handling (meant for corrupt
                    # *inbound* prefixes) eat it.
                    raise RuntimeAbort(
                        f"outbound message to {dest} exceeds the frame cap: {exc}"
                    ) from exc
                entry = encoded[id(message)] = (message, frame)
            self._outbox.setdefault(dest, []).append(entry[1])
        # Observed last, like the simulator: the message is queued for
        # the wire (or provably lost) before an adaptive adversary
        # reacts to it, and what is queued is written even if the
        # reaction crashes this node.
        if self.observer is not None:
            self.observer(
                Observation(
                    kind="send",
                    time_ms=elapsed_s * 1000.0,
                    pid=self.process_id,
                    dest=dest,
                    mtype=message_type_name(message),
                    source=getattr(message, "source", None),
                    bid=getattr(message, "bid", None),
                )
            )

    async def _flush(self) -> None:
        """Write the outbox: one write per destination, then one drain each.

        Every write is issued before the first await, so frames queued by
        another task while this one waits on a slow peer go out behind
        them (per-link FIFO).
        """
        if not self._outbox:
            return
        outbox, self._outbox = self._outbox, {}
        written = []
        for dest, frames in outbox.items():
            writer = self._writers.get(dest)
            if writer is None:
                continue
            writer.write(b"".join(frames))
            self.frames_sent += len(frames)
            self.writes += 1
            written.append((dest, writer))
        for dest, writer in written:
            try:
                await writer.drain()
            except ConnectionError:
                self._writers.pop(dest, None)

    async def _wait_for_deliveries(self, satisfied, timeout: float) -> bool:
        """Wait until ``satisfied()`` is true, re-checking on every delivery.

        Returns ``False`` immediately once the node crashes: its
        delivery set is final, so an unsatisfied wait can never be
        satisfied and running to the timeout would stall the caller.
        """
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while not satisfied():
            if self._crashed:
                return False
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            self.delivery_event.clear()
            try:
                await asyncio.wait_for(self.delivery_event.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                return False
        return True

    async def wait_for_delivery(self, count: int = 1, timeout: float = 30.0) -> bool:
        """Wait until at least ``count`` deliveries happened."""
        return await self._wait_for_deliveries(
            lambda: len(self.deliveries) >= count, timeout
        )

    async def wait_for_delivery_of(
        self, keys: Iterable[Tuple[int, int]], timeout: float = 30.0
    ) -> bool:
        """Wait until this node delivered every ``(source, bid)`` in ``keys``.

        Per-key waiting, unlike the count of :meth:`wait_for_delivery`:
        a delivery of an *unscheduled* broadcast (e.g. one a Byzantine
        node forged into existence) never satisfies the wait in place of
        a scheduled one.
        """
        wanted = set(keys)
        return await self._wait_for_deliveries(
            lambda: wanted <= self._delivered_keys, timeout
        )


__all__ = ["AsyncioNode"]
