"""Discrete-event simulation of an authenticated partially connected network.

A :class:`SimulatedNetwork` hosts one protocol instance (or Byzantine
behaviour) per process of a :class:`~repro.topology.Topology`, applies a
:class:`~repro.network.simulation.delays.DelayModel` to every message and
records every send and delivery in a
:class:`~repro.metrics.MetricsCollector`.

The simulation enforces the system model of Sec. 3:

* only processes connected by an edge can exchange messages (a protocol
  trying to send to a non-neighbor is a bug and raises);
* links are authenticated — messages are never altered in transit and
  the receiver learns the true sender identity;
* links are either synchronous (fixed delay) or asynchronous (random
  delay), in which case messages can be reordered;
* links are reliable by default, but a lossy delay model
  (:class:`~repro.network.simulation.delays.LossyDelay`,
  :class:`~repro.network.simulation.delays.BurstyLossWindow`) may return
  the :data:`~repro.network.simulation.delays.DROP` sentinel for a
  message, which is then lost in transit (its bytes are still charged to
  the sender).

Faults are not known here by name.  The network implements the six
runtime primitives of :mod:`repro.scenarios.faults` — :meth:`~SimulatedNetwork.at`,
:meth:`~SimulatedNetwork.crash`, :meth:`~SimulatedNetwork.hold_until`,
:meth:`~SimulatedNetwork.drop_link`, :meth:`~SimulatedNetwork.cut_edge`,
:meth:`~SimulatedNetwork.add_edge` — and that module says which fault is
which combination of them.  The *observer* hook
(:attr:`SimulatedNetwork.observer`) reports every send and delivery as an
:class:`~repro.core.events.Observation`, which is how the scenario
engine's adaptive adversaries watch a run and react to it (crash a
process mid-run, cut a link, swap a protocol for a Byzantine behaviour
via :meth:`SimulatedNetwork.replace_protocol`).

Flights
-------
A protocol reacting to one stimulus hands the *same* message object to
many neighbours back to back.  The consecutive ``SendTo`` commands of
one batch that carry the same message object form a **flight**
``(sender, message, dests)``; :meth:`SimulatedNetwork._launch` charges
it to the metrics once and, when every destination is bound to share
the arrival time (:class:`FixedDelay`, no shared medium, no link-drop
window), schedules it as one
:meth:`~repro.network.simulation.scheduler.EventScheduler.schedule_flight`
entry.  The contract is **equal to one-by-one**: metrics, delivery order
and times, RNG draws, event counts and abort points are those of
executing every send on its own — a flight only exists between two
points where nothing else could have happened.  Whatever does depend on
the destination or on the moment of delivery (crashed, held, the
protocol instance) is still decided per destination in
:meth:`SimulatedNetwork._deliver`, at delivery time.
"""

from __future__ import annotations

import gc
import random
from heapq import heappush
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import ConfigurationError, RuntimeAbort
from repro.core.events import BRBDeliver, Command, Observation, RCDeliver, SendTo
from repro.metrics.collector import MetricsCollector, RunMetrics, message_type_name
from repro.network.simulation.delays import DROP, DelayModel, FixedDelay
from repro.network.simulation.scheduler import EventScheduler
from repro.topology.generators import Topology

DeliveryCallback = Callable[[int, BRBDeliver, float], None]
ObserverCallback = Callable[[Observation], None]


class SimulatedNetwork:
    """Hosts protocol instances over a simulated partially connected network.

    Parameters
    ----------
    topology:
        The communication graph; one protocol instance per node.
    protocols:
        Mapping from process identifier to the object implementing the
        protocol interface (``on_start`` / ``broadcast`` / ``on_message``).
        Byzantine behaviours from :mod:`repro.network.adversary` implement
        the same interface.
    delay_model:
        Per-message link delay distribution (defaults to the paper's
        synchronous 50 ms setting).
    seed:
        Seed of the random number generator driving delays and any
        randomized Byzantine behaviour.
    collector:
        Metrics collector; a fresh one is created when omitted.
    on_deliver:
        Optional callback invoked on every BRB delivery, used by the
        example applications.
    shared_bandwidth_bps:
        When set, all messages additionally share a single transmission
        medium of this rate (bits per second).  This emulates the paper's
        testbed, where every Docker container runs on one desktop with a
        1 Gb/s ``netem`` cap: configurations that exchange a lot of data
        saturate the medium and see their latency grow, which is how the
        bandwidth-reducing modifications also improve latency (Sec. 7.7).
    """

    def __init__(
        self,
        topology: Topology,
        protocols: Mapping[int, object],
        *,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
        collector: Optional[MetricsCollector] = None,
        on_deliver: Optional[DeliveryCallback] = None,
        shared_bandwidth_bps: Optional[float] = None,
    ) -> None:
        missing = [node for node in topology.nodes if node not in protocols]
        if missing:
            raise ConfigurationError(f"no protocol instance for processes {missing}")
        unknown = [pid for pid in protocols if pid not in topology.adjacency]
        if unknown:
            raise ConfigurationError(f"protocol instances for unknown processes {unknown}")
        self.topology = topology
        # Plain adjacency mapping, aliased for the per-send channel check.
        self._adjacency = topology.adjacency
        self.protocols = dict(protocols)
        self.delay_model = delay_model if delay_model is not None else FixedDelay()
        self.rng = random.Random(seed)
        self.scheduler = EventScheduler()
        self.collector = collector if collector is not None else MetricsCollector()
        self.on_deliver = on_deliver
        if shared_bandwidth_bps is not None and shared_bandwidth_bps <= 0:
            raise ConfigurationError("shared_bandwidth_bps must be positive")
        self.shared_bandwidth_bps = shared_bandwidth_bps
        self._medium_free_at = 0.0
        # Scheduler internals, bypassing the attribute chain and the call
        # on the per-destination scheduling path.  The scheduler instance
        # is created above and never replaced, so the aliases cannot go
        # stale.  (``self._deliver`` is deliberately *not* cached here: a
        # bound method stored on the instance is a reference cycle
        # network → method → network that keeps the whole finished
        # network graph alive until a cyclic-GC pass; scheduled entries
        # hold a fresh one instead, and are gone once they ran.)
        self._sched_times = self.scheduler._times
        self._sched_buckets = self.scheduler._buckets
        # Fixed-delay fast path: the delay model is set once at
        # construction, so the per-send type dispatch collapses to a
        # None check.
        self._fixed_delay_ms = (
            self.delay_model.delay_ms
            if type(self.delay_model) is FixedDelay
            else None
        )
        self._crashed: set = set()
        self._started = False
        #: Observer of protocol events (sends/deliveries); set by the
        #: scenario engine to feed adaptive adversaries.
        self.observer: Optional[ObserverCallback] = None
        #: Messages lost to link-drop windows or a lossy delay model.
        self.dropped_messages = 0
        # Undirected link -> list of (start_ms, end_ms) drop windows;
        # ``end_ms`` is None for a window that never reopens.
        self._link_drops: Dict[Tuple[int, int], List[Tuple[float, Optional[float]]]] = {}
        # Held processes (hold_until): pid -> (inbound, broadcasts).
        # ``inbound`` buffers the (sender, message) pairs that arrive
        # while inbound traffic is kept, and is None while it is
        # dropped; ``broadcasts`` are the (payload, bid) initiations
        # asked of the process meanwhile.  Both replay at the release.
        self._held: Dict[int, Tuple[Optional[list], list]] = {}
        # Flips at the first live graph edit: sends onto a missing
        # channel are then counted as losses instead of raising, while
        # the no-channel RuntimeAbort stays a bug detector for static
        # runs.
        self._churn = False

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.scheduler.now

    def _require_process(self, *pids: int) -> None:
        for pid in pids:
            if pid not in self.protocols:
                raise ConfigurationError(f"unknown process {pid}")

    def at(self, time_ms: float, action: Callable, *args) -> None:
        """Run ``action(*args)`` at absolute simulated time ``time_ms``.

        A time already reached runs the action inside the call — which
        is how a crash at time 0 takes effect before the process runs
        its ``on_start`` hook or initiates any broadcast.
        """
        if time_ms <= self.scheduler.now:
            action(*args)
        else:
            self.scheduler.schedule_at(time_ms, action, *args)

    def crash(self, pid: int) -> None:
        """Crash a process: it stops sending and ignores future messages."""
        self._require_process(pid)
        self._crashed.add(pid)
        self._held.pop(pid, None)

    def hold_until(self, pid: int, time_ms: float, keep_inbound: bool) -> None:
        """Process ``pid`` starts at ``time_ms`` instead of at time 0.

        Until the release event fires the process neither runs
        ``on_start`` nor handles messages, and a broadcast asked of it
        waits.  Its inbound traffic is buffered and replayed in arrival
        order at the release (``keep_inbound`` — a node that boots late
        but misses nothing the network queued for it) or lost and
        counted in :attr:`dropped_messages` (a late joiner that never
        saw the early traffic).  A process has one start time.
        """
        self._require_process(pid)
        if self._started:
            raise ConfigurationError("hold_until must be called before the run starts")
        if time_ms < 0:
            raise ConfigurationError(f"start time must be non-negative, got {time_ms}")
        if pid in self._held:
            raise ConfigurationError(f"process {pid} already has a start time")
        self._held[pid] = ([] if keep_inbound else None, [])
        self.scheduler.schedule_at(time_ms, self._release, pid)

    def _release(self, pid: int) -> None:
        """Start a held process: hooks, kept inbound, pending broadcasts."""
        held = self._held.pop(pid, None)
        if held is None or pid in self._crashed:
            return
        inbound, broadcasts = held
        protocol = self.protocols[pid]
        if hasattr(protocol, "on_start"):
            self._execute_commands(pid, protocol.on_start())
        # The instance is re-resolved per step: an adaptive trigger
        # firing during the replay (e.g. on an observation one of these
        # commands produced) swaps it, and the rest must reach the
        # replacement, not the pre-conversion one.  A crash mid-replay
        # ends it.
        crashed = self._crashed
        for sender, message in inbound or ():
            if pid in crashed:
                return
            self._execute_commands(pid, self.protocols[pid].on_message(sender, message))
        for payload, bid in broadcasts:
            if pid in crashed:
                return
            self._execute_commands(pid, self.protocols[pid].broadcast(payload, bid))

    def drop_link(
        self, u: int, v: int, start_ms: float, end_ms: Optional[float] = None
    ) -> None:
        """Drop every message put on the ``{u, v}`` link during a time window.

        Messages whose send time falls in ``[start_ms, end_ms)`` are lost
        (in both directions); their bytes are still charged to the sender,
        mirroring a transmission that leaves the NIC but never arrives.
        ``end_ms=None`` models a link that goes down and never reopens.
        """
        if not self.topology.has_edge(u, v):
            raise ConfigurationError(f"no link between {u} and {v} to drop")
        if end_ms is not None and end_ms < start_ms:
            raise ConfigurationError(
                f"link-drop window ends before it starts ({start_ms}, {end_ms})"
            )
        key = (min(u, v), max(u, v))
        self._link_drops.setdefault(key, []).append((start_ms, end_ms))

    def _live_adjacency(self, u: int, v: int) -> Dict[int, set]:
        """The mutable per-run adjacency a live graph edit operates on.

        The shared (lru-cached) :class:`Topology` must never be mutated:
        the first edit swaps the zero-copy alias for a private copy.
        ``_execute_commands`` re-reads ``self._adjacency`` per batch, so
        the swap is visible to every later send.  Non-churn runs never
        pay for the copy.
        """
        self._require_process(u, v)
        if self._adjacency is self.topology.adjacency:
            self._adjacency = {
                pid: set(peers) for pid, peers in self.topology.adjacency.items()
            }
        self._churn = True
        return self._adjacency

    def cut_edge(self, u: int, v: int) -> None:
        """Remove the ``{u, v}`` edge from the live graph (no-op if absent).

        Later sends onto it are lost on a missing channel and counted in
        :attr:`dropped_messages`; copies already in flight still arrive.
        """
        adjacency = self._live_adjacency(u, v)
        adjacency[u].discard(v)
        adjacency[v].discard(u)

    def add_edge(self, u: int, v: int) -> None:
        """Bring the ``{u, v}`` edge up in the live graph."""
        adjacency = self._live_adjacency(u, v)
        adjacency[u].add(v)
        adjacency[v].add(u)

    def replace_protocol(self, pid: int, protocol: object) -> None:
        """Swap process ``pid``'s protocol instance mid-run.

        Used by adaptive adversaries to turn a (so far correct) process
        Byzantine once a trigger fires: the replacement handles every
        subsequent event, while commands already scheduled from the old
        instance still deliver — a conversion cannot retract messages
        that are on the wire.
        """
        self._require_process(pid)
        self.protocols[pid] = protocol

    def start(self) -> None:
        """Run the ``on_start`` hook of every process that is not held."""
        if self._started:
            return
        self._started = True
        for pid, protocol in self.protocols.items():
            if pid not in self._held and hasattr(protocol, "on_start"):
                self._execute_commands(pid, protocol.on_start())

    def broadcast(self, pid: int, payload: bytes, bid: int = 0) -> None:
        """Have process ``pid`` initiate a broadcast at the current time.

        A held process broadcasts right after it starts instead.
        """
        self.start()
        if pid in self._crashed:
            return
        if pid in self._held:
            self._held[pid][1].append((payload, bid))
            return
        self._execute_commands(pid, self.protocols[pid].broadcast(payload, bid))

    def broadcast_at(self, pid: int, payload: bytes, bid: int, time_ms: float) -> None:
        """Schedule a broadcast by ``pid`` at absolute simulated ``time_ms``.

        A past (or current) timestamp broadcasts immediately; otherwise
        the initiation is queued on the scheduler, so sensor-style
        workloads interleave with in-flight traffic of earlier
        broadcasts.  Crashed and held are those of :meth:`broadcast`
        evaluated at initiation time — a source that crashed before
        ``time_ms`` never broadcasts.
        """
        self.start()
        self._require_process(pid)
        self.at(time_ms, self.broadcast, pid, payload, bid)

    def run(
        self,
        *,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> RunMetrics:
        """Run the simulation until no message is in flight.

        Returns the frozen metrics of the run.  ``max_events`` guards
        against unbounded message storms (see
        :class:`~repro.network.simulation.scheduler.EventScheduler`).
        """
        self.start()
        # The event loop allocates heavily and the protocol state holds
        # reference cycles (record ↔ slot), so cyclic-GC passes cost ~20%
        # of a run while reclaiming nothing that matters mid-run.  Pause
        # collection for the bounded duration of the loop.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.scheduler.run(max_time=max_time, max_events=max_events)
        finally:
            if gc_was_enabled:
                gc.enable()
        self.collector.record_time(self.scheduler.now)
        self._collect_state_sizes()
        return self.collector.snapshot()

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------
    def _execute_commands(self, pid: int, commands: Iterable[Command]) -> None:
        """Execute one protocol batch, gathering its sends into flights.

        A protocol reacting to one stimulus fans the same interned
        message object out to many neighbours back to back.  Consecutive
        ``SendTo`` commands carrying the same message *object* are
        gathered into one flight ``(pid, message, dests)`` and handed to
        :meth:`_launch` when the flight closes: at a different message
        object, at any other command (a delivery hook may broadcast
        re-entrantly), at a send without a channel, at the end of the
        batch — and after every single send while an observer is
        installed, because an observer may crash the sender between two
        sends.  Everything else happens in command order, as if each
        send had been executed on its own.
        """
        crashed = self._crashed
        if pid in crashed:
            return
        neighbors = self._adjacency[pid]
        observer = self.observer
        launch = self._launch
        # The open flight: ``dests`` is empty while none is open, and
        # ``message`` may then be stale — reopening on the same object is
        # simply a new flight of it.
        message = None
        dests: List[int] = []
        for command in commands:
            if pid in crashed:
                # An adaptive trigger crashed the process while this
                # command batch was executing: the remaining commands
                # are suppressed, exactly like the asyncio runtime.
                break
            if type(command) is SendTo or isinstance(command, SendTo):
                dest = command.dest
                if dest not in neighbors:
                    launch(pid, message, dests)
                    if self._churn:
                        # A live graph edit severed the channel mid-run:
                        # the transmission is lost, not a protocol bug.
                        self.dropped_messages += 1
                        continue
                    raise RuntimeAbort(
                        f"process {pid} tried to send to {dest} without a channel"
                    )
                if command.message is not message:
                    launch(pid, message, dests)
                    message = command.message
                dests.append(dest)
                # Observed last: the message is on the wire (or provably
                # lost) before an adaptive adversary may react to it, so a
                # triggered crash of the sender cannot retract this
                # transmission.
                if observer is not None:
                    launch(pid, message, dests)
                    observer(
                        Observation(
                            kind="send",
                            time_ms=self.scheduler.now,
                            pid=pid,
                            dest=dest,
                            mtype=message_type_name(message),
                            source=getattr(message, "source", None),
                            bid=getattr(message, "bid", None),
                        )
                    )
            else:
                launch(pid, message, dests)
                if isinstance(command, BRBDeliver):
                    self._execute_delivery(pid, command)
                elif isinstance(command, RCDeliver):
                    self._execute_rc_delivery(pid, command)
                else:  # pragma: no cover - defensive
                    raise RuntimeAbort(f"unknown command {command!r} from process {pid}")
        launch(pid, message, dests)

    def _launch(self, pid: int, message: object, dests: List[int]) -> None:
        """Put the open flight on the wire and empty ``dests``.

        The one place a send is charged and scheduled.  The flight is
        charged to the metrics once; then, when the arrival time cannot
        depend on the destination (fixed delay, no shared medium, no
        link-drop window), the scheduler gets one entry for the whole
        flight, which by its contract equals one entry per destination.
        Every other configuration schedules destination by destination,
        drawing from the RNG in command order.
        """
        if not dests:
            return
        # The clock only advances inside EventScheduler.run, which cannot
        # re-enter while a batch is executing.
        now = self.scheduler.now
        size = self.collector.record_flight(now, pid, dests, message)
        fixed = self._fixed_delay_ms
        bandwidth = self.shared_bandwidth_bps
        link_drops = self._link_drops
        deliver = self._deliver
        if fixed is not None and bandwidth is None and not link_drops:
            # The dominant configuration (the paper's synchronous 50 ms
            # links) consumes no RNG and never drops.
            self.scheduler.schedule_flight(fixed, deliver, tuple(dests), pid, message)
            dests.clear()
            return
        buckets = self._sched_buckets
        times = self._sched_times
        for dest in dests:
            if fixed is not None:
                outcome = fixed
            else:
                outcome = self.delay_model.sample_event(self.rng, pid, dest, size, now)
            dropped = outcome is DROP or (
                link_drops and self._link_dropped(pid, dest, now)
            )
            time = now
            if bandwidth is not None:
                # Serialize the message through the shared medium before
                # the propagation delay starts.  A message lost to a
                # link-drop window or the lossy delay model still left
                # the NIC, so it occupies the medium too.
                if self._medium_free_at > now:
                    time = self._medium_free_at
                time += (size * 8.0 / bandwidth) * 1000.0
                self._medium_free_at = time
            if dropped:
                self.dropped_messages += 1
                continue
            # Inlined EventScheduler.schedule_at (validation included):
            # the hottest scheduling site of a sampled-delay run.
            time += outcome
            if time != time:
                raise ValueError("cannot schedule an event at a NaN time")
            if time < now:
                raise ValueError(f"cannot schedule at {time}, current time is {now}")
            entry = (deliver, (dest, pid, message))
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = entry
                heappush(times, time)
            elif type(bucket) is list:
                bucket.append(entry)
            else:
                buckets[time] = [bucket, entry]
        dests.clear()

    def _link_dropped(self, u: int, v: int, time: float) -> bool:
        windows = self._link_drops.get((min(u, v), max(u, v)))
        if not windows:
            return False
        return any(
            start <= time and (end is None or time < end) for start, end in windows
        )

    def _deliver(self, dest: int, sender: int, message: object) -> None:
        """Deliver one in-flight message to its destination process.

        The reusable delivery path: scheduled with explicit arguments
        instead of a fresh closure per send.  Crashed and held are
        evaluated at delivery time, and the protocol instance is resolved
        here so mid-flight adaptive conversions receive the message.
        """
        if dest in self._crashed:
            return
        if self._held and dest in self._held:
            inbound = self._held[dest][0]
            if inbound is None:
                # Not started and inbound is not kept: the copy is lost.
                self.dropped_messages += 1
            else:
                inbound.append((sender, message))
            return
        commands = self.protocols[dest].on_message(sender, message)
        if commands:
            self._execute_commands(dest, commands)

    def _execute_delivery(self, pid: int, command: BRBDeliver) -> None:
        self.collector.record_delivery(
            self.scheduler.now, pid, command.source, command.bid, command.payload
        )
        if self.on_deliver is not None:
            self.on_deliver(pid, command, self.scheduler.now)
        if self.observer is not None:
            self.observer(
                Observation(
                    kind="deliver",
                    time_ms=self.scheduler.now,
                    pid=pid,
                    source=command.source,
                    bid=command.bid,
                )
            )

    def _execute_rc_delivery(self, pid: int, command: RCDeliver) -> None:
        source = command.source if command.source is not None else -1
        payload = command.payload if isinstance(command.payload, bytes) else b""
        self.collector.record_delivery(self.scheduler.now, pid, source, 0, payload)
        if self.observer is not None:
            self.observer(
                Observation(
                    kind="deliver",
                    time_ms=self.scheduler.now,
                    pid=pid,
                    source=source,
                    bid=0,
                )
            )

    def _collect_state_sizes(self) -> None:
        for pid, protocol in self.protocols.items():
            estimator = getattr(protocol, "state_size_estimate", None)
            if callable(estimator):
                self.collector.record_state_size(pid, estimator())


__all__ = ["SimulatedNetwork"]
