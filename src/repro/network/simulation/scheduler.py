"""Minimal deterministic discrete-event scheduler.

Events are kept in timestamp buckets: a heap orders the distinct
timestamps and a dict maps each timestamp to the list of entries —
``(callback, args)`` pairs and flights (below) — scheduled for it, in
insertion order.  Draining a bucket
in place preserves the original contract — ties on the timestamp run in
insertion order, including events a callback schedules for the current
timestamp while the bucket is executing — which makes a run fully
deterministic for a given seed and topology, a property the
reproducibility tests rely on.

Compared to the earlier one-heap-entry-per-event layout this removes the
per-event heap churn and sequence counter from the hot path: a burst of
same-timestamp deliveries (the common case under fixed link delays)
costs one heap push however many messages it carries.

Flights
-------
A *flight* is one message object that one sender puts on the links to
several destinations at once, all arriving at the same time: ``(sender,
message, dests)``.  :meth:`EventScheduler.schedule_flight` stores it as
*one* bucket entry and the drain runs ``deliver(dest, sender, message)``
for each destination in order.  ``dests`` is a tuple, held as given (the
simulator passes the one its ``SendTo`` command carries), never copied
and never mutated.  By contract this is **equal to
scheduling the destinations one by one** with :meth:`schedule`: the same
execution order (nothing can be scheduled between two destinations of a
flight, so they were adjacent anyway), every delivery is one event for
``executed_events``, ``pending`` and the ``max_events`` budget, an abort
lands on the same delivery, and the deliveries after the aborted one
stay pending, in order, ahead of same-timestamp events scheduled during
the drain.  Only the cost differs: one entry, one allocation and one
unpack per flight instead of per delivery.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.core.errors import RuntimeAbort


class _Flight:
    """One bucket entry standing for ``len(dests)`` delivery events."""

    __slots__ = ("deliver", "dests", "sender", "message")

    def __init__(self, deliver: Callable[..., None], dests: tuple, sender, message) -> None:
        self.deliver = deliver
        self.dests = dests
        self.sender = sender
        self.message = message


def _flooding(max_events: Optional[int]) -> RuntimeAbort:
    return RuntimeAbort(
        f"simulation exceeded {max_events} events; "
        "the protocol is probably flooding the network"
    )


class EventScheduler:
    """Priority queue of timed callbacks with a virtual clock."""

    __slots__ = ("_times", "_buckets", "now", "executed_events")

    def __init__(self) -> None:
        # Heap of timestamps; one entry per *distinct* pending timestamp
        # (re-pushed if a bucket is re-created after its drain started).
        self._times: List[float] = []
        # Timestamp -> entries scheduled for it, in insertion order; an
        # entry is a ``(callback, args)`` pair or a ``_Flight``.  A
        # bucket holding exactly one entry is stored bare — under unique
        # arrival timestamps (e.g. shared-bandwidth serialization) every
        # bucket is a singleton, and skipping the one-element list saves
        # an allocation and the iteration setup per event.  A second
        # entry for the same timestamp promotes the bucket to a list.
        self._buckets: Dict[float, object] = {}
        #: Current virtual time (milliseconds by convention).  A plain
        #: attribute, not a property: the runtime reads it once per send.
        self.now = 0.0
        #: Number of events executed over the scheduler's lifetime.
        self.executed_events = 0

    @property
    def pending(self) -> int:
        """Number of scheduled events not yet executed.

        Derived from the buckets on demand: keeping a counter accurate
        costs two attribute updates per event in the hot loop, while this
        property is only read between runs.  A flight counts one event
        per destination.
        """
        return sum(
            1 if type(entry) is tuple else len(entry.dests)
            for bucket in self._buckets.values()
            for entry in (bucket if type(bucket) is list else (bucket,))
        )

    def schedule(self, delay: float, callback: Callable[..., None], *args) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        self._insert(self._arrival(delay), (callback, args))

    def schedule_flight(
        self,
        delay: float,
        deliver: Callable[..., None],
        dests: tuple,
        sender,
        message,
    ) -> None:
        """Schedule ``deliver(dest, sender, message)`` for every ``dest``.

        Equal by contract to ``schedule(delay, deliver, dest, sender,
        message)`` once per destination, in order (see the module
        docstring); stored as a single entry.
        """
        time = self._arrival(delay)
        if dests:
            self._insert(time, _Flight(deliver, dests, sender, message))

    def schedule_at(self, time: float, callback: Callable[..., None], *args) -> None:
        """Schedule ``callback(*args)`` to run at absolute virtual time ``time``."""
        if time != time:
            raise ValueError("cannot schedule an event at a NaN time")
        if time < self.now:
            raise ValueError(f"cannot schedule at {time}, current time is {self.now}")
        self._insert(time, (callback, args))

    def _arrival(self, delay: float) -> float:
        if delay != delay:
            # NaN (the only value unequal to itself): ``NaN < 0`` is False,
            # so without this check a NaN timestamp would enter the heap
            # and corrupt its ordering invariant.
            raise ValueError("cannot schedule an event with a NaN delay")
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        return self.now + delay

    def _insert(self, time: float, entry: object) -> None:
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = entry
            heappush(self._times, time)
        elif type(bucket) is list:
            bucket.append(entry)
        else:
            self._buckets[time] = [bucket, entry]

    def run(
        self,
        *,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Execute events in timestamp order until the queue drains.

        Parameters
        ----------
        max_time:
            Stop (leaving later events unexecuted) once the clock would
            pass this value.
        max_events:
            Abort with :class:`RuntimeAbort` after this many events of
            *this call* (resumed runs get a fresh budget); a guard
            against protocol bugs producing infinite message storms.
        """
        times = self._times
        buckets = self._buckets
        budget = math.inf if max_events is None else max_events
        stop_after = math.inf if max_time is None else max_time
        executed = 0
        while times:
            time = heappop(times)
            if time > stop_after:
                # Not executed: put the timestamp back for a resumed run.
                heappush(times, time)
                break
            self.now = time
            # The bucket is removed from the dict before draining: a
            # callback scheduling for this same timestamp creates a fresh
            # bucket (re-pushing the timestamp), which drains right after
            # this one — the same all-current-then-new insertion order the
            # live-append layout produced, with one dict op less per
            # bucket in the common no-reentry case.
            bucket = buckets.pop(time)
            if type(bucket) is tuple:
                # Singleton bucket (the dominant case when every arrival
                # timestamp is distinct).  Consumed-on-abort semantics
                # match the list path: the event is counted and removed
                # whether or not its callback completes, and a same-time
                # bucket opened by the callback is already queued.
                executed += 1
                if executed > budget:
                    self.executed_events += executed
                    raise _flooding(max_events)
                callback, args = bucket
                try:
                    callback(*args)
                except BaseException:
                    self.executed_events += executed
                    raise
                continue
            if type(bucket) is not list:
                bucket = [bucket]  # a lone flight drains like any list
            i = 0
            try:
                # Plain iteration: the popped bucket can no longer grow
                # (same-time events scheduled by a callback open a fresh
                # bucket), so no live re-reading of the length is needed.
                for entry in bucket:
                    i += 1
                    if type(entry) is tuple:
                        executed += 1
                        if executed > budget:
                            raise _flooding(max_events)
                        callback, args = entry
                        callback(*args)
                    else:
                        # A flight: one event per destination.
                        deliver = entry.deliver
                        sender = entry.sender
                        message = entry.message
                        flight_start = executed
                        for dest in entry.dests:
                            executed += 1
                            if executed > budget:
                                raise _flooding(max_events)
                            deliver(dest, sender, message)
            except BaseException:
                # The event at ``i - 1`` was consumed (popped and counted,
                # like the pre-bucket scheduler); everything after it
                # stays pending for inspection or a resumed run, ahead of
                # any same-timestamp events scheduled during this drain.
                # Inside a flight the consumed event is one delivery: the
                # destinations after it are what stays pending.
                self.executed_events += executed
                del bucket[:i]
                if type(entry) is not tuple:
                    rest = entry.dests[executed - flight_start:]
                    if rest:
                        bucket.insert(
                            0, _Flight(entry.deliver, rest, entry.sender, entry.message)
                        )
                reentered = buckets.get(time)
                if reentered is not None:
                    if type(reentered) is list:
                        bucket.extend(reentered)
                    else:
                        bucket.append(reentered)
                    buckets[time] = bucket
                elif bucket:
                    buckets[time] = bucket
                    heappush(times, time)
                raise
        self.executed_events += executed
        return self.now


__all__ = ["EventScheduler"]
