"""Per-run metric collection.

A :class:`MetricsCollector` is attached to a network runtime and records
every message put on a link and every application-level delivery.  At the
end of a run it is frozen into a :class:`RunMetrics` snapshot that the
scenario engine and the benchmarks consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.core.messages import MessageType
from repro.core.sizes import FieldSizes, PAPER_FIELD_SIZES

BroadcastKey = Tuple[int, int]


@dataclass(frozen=True)
class RunMetrics:
    """Immutable snapshot of the metrics of one protocol run."""

    #: Total number of messages put on links by all processes.
    message_count: int
    #: Total number of bytes put on links (Table 3 accounting).
    total_bytes: int
    #: Message counts broken down by message type name.
    messages_by_type: Mapping[str, int]
    #: Byte counts broken down by message type name.
    bytes_by_type: Mapping[str, int]
    #: Messages sent by each process.
    messages_by_process: Mapping[int, int]
    #: Bytes sent by each process.
    bytes_by_process: Mapping[int, int]
    #: Delivery time of each (process, broadcast) pair.
    delivery_times: Mapping[Tuple[int, BroadcastKey], float]
    #: Payload delivered by each (process, broadcast) pair.
    delivered_payloads: Mapping[Tuple[int, BroadcastKey], bytes]
    #: Simulated (or wall-clock) time at which the run ended.
    end_time: float
    #: Per-process state-size proxies collected at the end of the run.
    state_sizes: Mapping[int, int]

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def deliveries_for(self, key: BroadcastKey) -> Dict[int, bytes]:
        """Map process id → delivered payload for one broadcast."""
        return {
            pid: payload
            for (pid, bkey), payload in self.delivered_payloads.items()
            if bkey == key
        }

    def delivery_latency(
        self, key: BroadcastKey, processes: Iterable[int], start_time: float = 0.0
    ) -> Optional[float]:
        """Latency until every process in ``processes`` delivered ``key``.

        Returns ``None`` when at least one of the processes did not
        deliver, mirroring the paper's definition of latency as the time
        for *all correct processes* to deliver.  An empty ``processes``
        (every process Byzantine or crashed) also returns ``None``: the
        measurement is undefined, not a 0 ms delivery.
        """
        latest = start_time
        observed_any = False
        for pid in processes:
            time = self.delivery_times.get((pid, key))
            if time is None:
                return None
            observed_any = True
            latest = max(latest, time)
        if not observed_any:
            return None
        return latest - start_time

    def delivering_processes(self, key: BroadcastKey) -> Tuple[int, ...]:
        """Processes that delivered ``key``, sorted."""
        return tuple(
            sorted(pid for (pid, bkey) in self.delivery_times if bkey == key)
        )

    @property
    def peak_state_size(self) -> int:
        """Largest per-process state-size proxy observed."""
        return max(self.state_sizes.values(), default=0)

    @property
    def total_state_size(self) -> int:
        """Sum of the per-process state-size proxies."""
        return sum(self.state_sizes.values())


class MetricsCollector:
    """Mutable collector attached to a runtime during a run."""

    __slots__ = (
        "sizes",
        "_type_counts",
        "_process_counts",
        "delivery_times",
        "delivered_payloads",
        "state_sizes",
        "end_time",
        "_memo_message",
        "_memo_size",
        "_memo_tcell",
        "_memo_sender",
        "_memo_pcell",
    )

    def __init__(self, sizes: FieldSizes = PAPER_FIELD_SIZES) -> None:
        self.sizes = sizes
        # Per-type and per-process [messages, bytes] cells: one dict
        # lookup updates both counters of a breakdown, halving the hashed
        # operations on the per-send path.  The public per-metric mappings
        # (and the grand totals) are materialized on demand below.
        self._type_counts: Dict[str, list] = {}
        self._process_counts: Dict[int, list] = {}
        self.delivery_times: Dict[Tuple[int, BroadcastKey], float] = {}
        self.delivered_payloads: Dict[Tuple[int, BroadcastKey], bytes] = {}
        self.state_sizes: Dict[int, int] = {}
        self.end_time = 0.0
        # One-slot memo over the last message object (and sender) seen by
        # record_send.  Fan-out sends the same (interned) message instance
        # to many neighbors back to back, so its wire size, type name and
        # counter cells are resolved once per burst instead of once per
        # link.  Keyed by identity of a held reference — never by a bare
        # id() — so a recycled address cannot alias a dead object.
        self._memo_message: object = None
        self._memo_size = 0
        self._memo_tcell: list = [0, 0]
        self._memo_sender: object = None
        self._memo_pcell: list = [0, 0]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_send(self, time: float, sender: int, dest: int, message) -> int:
        """Record a message put on the link ``sender → dest``.

        Returns the wire size charged for the message so the runtime can
        use it for bandwidth-dependent delays if needed.
        """
        if message is self._memo_message:
            size = self._memo_size
            cell = self._memo_tcell
        else:
            size = message.wire_size(self.sizes) if hasattr(message, "wire_size") else 0
            type_name = message_type_name(message)
            cell = self._type_counts.get(type_name)
            if cell is None:
                cell = self._type_counts[type_name] = [0, 0]
            self._memo_message = message
            self._memo_size = size
            self._memo_tcell = cell
        cell[0] += 1
        cell[1] += size
        if sender == self._memo_sender:
            cell = self._memo_pcell
        else:
            cell = self._process_counts.get(sender)
            if cell is None:
                cell = self._process_counts[sender] = [0, 0]
            self._memo_sender = sender
            self._memo_pcell = cell
        cell[0] += 1
        cell[1] += size
        if time > self.end_time:
            self.end_time = time
        return size

    def record_flight(self, time: float, sender: int, dests, message) -> int:
        """Record one message object put on ``sender → dest`` for each of ``dests``.

        Equal to one :meth:`record_send` per destination, in order, and
        that is literally what a subclass overriding :meth:`record_send`
        gets.  The stock collector charges the flight once instead:
        :meth:`record_send` for the first destination, which leaves both
        memo slots on this message and sender, and counter arithmetic on
        the memoized cells for the rest.
        """
        size = self.record_send(time, sender, dests[0], message)
        rest = len(dests) - 1
        if rest:
            if type(self).record_send is not MetricsCollector.record_send:
                for dest in dests[1:]:
                    self.record_send(time, sender, dest, message)
            else:
                cell = self._memo_tcell
                cell[0] += rest
                cell[1] += rest * size
                cell = self._memo_pcell
                cell[0] += rest
                cell[1] += rest * size
        return size

    def record_delivery(
        self, time: float, pid: int, source: int, bid: int, payload: bytes
    ) -> None:
        """Record an application-level (BRB or RC) delivery."""
        key = (pid, (source, bid))
        if key not in self.delivery_times:
            self.delivery_times[key] = time
            self.delivered_payloads[key] = payload
        self.end_time = max(self.end_time, time)

    def record_time(self, time: float) -> None:
        """Advance the recorded end-of-run time."""
        self.end_time = max(self.end_time, time)

    def record_state_size(self, pid: int, size: int) -> None:
        """Record a per-process state-size proxy (stored paths, tables, …)."""
        self.state_sizes[pid] = size

    # ------------------------------------------------------------------
    # Breakdown views
    # ------------------------------------------------------------------
    @property
    def message_count(self) -> int:
        """Total messages recorded (derived from the per-type cells)."""
        return sum(cell[0] for cell in self._type_counts.values())

    @property
    def total_bytes(self) -> int:
        """Total bytes recorded (derived from the per-type cells)."""
        return sum(cell[1] for cell in self._type_counts.values())

    @property
    def messages_by_type(self) -> Dict[str, int]:
        """Message counts by type name (materialized view)."""
        return {name: cell[0] for name, cell in self._type_counts.items()}

    @property
    def bytes_by_type(self) -> Dict[str, int]:
        """Byte counts by type name (materialized view)."""
        return {name: cell[1] for name, cell in self._type_counts.items()}

    @property
    def messages_by_process(self) -> Dict[int, int]:
        """Message counts by sending process (materialized view)."""
        return {pid: cell[0] for pid, cell in self._process_counts.items()}

    @property
    def bytes_by_process(self) -> Dict[int, int]:
        """Byte counts by sending process (materialized view)."""
        return {pid: cell[1] for pid, cell in self._process_counts.items()}

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> RunMetrics:
        """Freeze the collected values into a :class:`RunMetrics`."""
        return RunMetrics(
            message_count=self.message_count,
            total_bytes=self.total_bytes,
            messages_by_type=self.messages_by_type,
            bytes_by_type=self.bytes_by_type,
            messages_by_process=self.messages_by_process,
            bytes_by_process=self.bytes_by_process,
            delivery_times=dict(self.delivery_times),
            delivered_payloads=dict(self.delivered_payloads),
            end_time=self.end_time,
            state_sizes=dict(self.state_sizes),
        )


#: ``MessageType`` member -> display name, precomputed: ``Enum.name`` is
#: a ``DynamicClassAttribute`` descriptor call, too slow for a per-send path.
_MTYPE_NAMES = {member: member.name for member in MessageType}
_DOLEV_NAMES = {member: f"DOLEV[{member.name}]" for member in MessageType}


def message_type_name(message) -> str:
    """Canonical display name of a message's type.

    This is the name the metric breakdowns key on and the one adaptive
    fault filters (:class:`repro.scenarios.faults.ObservationFilter`)
    match against — e.g. ``"ECHO"`` for a Bracha echo, ``"DOLEV[ECHO]"``
    for the same message inside a Dolev envelope — so both runtimes
    describe the same message identically.
    """
    mtype = getattr(message, "mtype", None)
    if type(mtype) is MessageType:
        return _MTYPE_NAMES[mtype]
    inner = getattr(getattr(message, "content", None), "mtype", None)
    if type(inner) is MessageType:
        return _DOLEV_NAMES[inner]
    return type(message).__name__


__all__ = ["MetricsCollector", "RunMetrics", "BroadcastKey", "message_type_name"]
