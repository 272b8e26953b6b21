"""Timed and adaptive fault events: the one table of what a fault is.

A fault is a small frozen dataclass (validated at construction,
:class:`~repro.core.errors.SpecError`) whose ``apply`` says what it does
in terms of six runtime primitives.  Both runtimes —
:class:`~repro.network.simulation.network.SimulatedNetwork` and
:class:`~repro.network.asyncio_runtime.cluster.AsyncioCluster`, a *host*
below — implement the same six, every time in spec milliseconds, so a
fault is written here once and means the same thing on either:

========================  =============================================
primitive                 meaning on a host
========================  =============================================
``at(t, action, *args)``  run ``action(*args)`` at time ``t``; a time
                          already reached runs it inside the call
``crash(pid)``            fail-silent from now on: sends nothing,
                          ignores every message, never starts
``hold_until(pid, t,      ``pid`` starts at ``t`` instead of at time 0:
keep_inbound)``           until then it runs no hook, initiates nothing
                          (broadcasts asked of it wait, in order) and
                          its inbound traffic is buffered for replay
                          (kept) or lost and counted (dropped)
``drop_link(u, v, start,  every message put on the ``{u, v}`` edge in
end)``                    ``[start, end)`` is lost (``end=None``: never
                          reopens); its bytes are still charged
``cut_edge(u, v)``        remove the edge from the live graph (no-op if
                          absent): later sends onto it are lost
``add_edge(u, v)``        bring an edge up in the live graph
========================  =============================================

plus ``now`` (spec ms), ``topology`` (the initial graph), ``protocols``,
``replace_protocol(pid, protocol)`` and the ``observer`` hook the
adaptive faults are fed through.

========================  =============================================
fault                     primitives
========================  =============================================
``CrashAt(pid, t)``       ``at(t, crash, pid)``
``LeaveAt(pid, t)``       ``at(t, …)``: ``crash(pid)`` + ``cut_edge`` on
                          every live edge of ``pid``
``RewireLinkAt(…, t)``    ``at(t, …)``: ``cut_edge(pid, old_peer)`` +
                          ``add_edge(pid, new_peer)``
``DelayedStart(pid, t)``  ``hold_until(pid, t, keep_inbound=True)``
``JoinAt(pid, t)``        ``hold_until(pid, t, keep_inbound=False)``
``LinkDropWindow(…)``     ``drop_link(u, v, start, end)``
``CrashWhen``             when fired: ``crash(pid)``
``CutLinkWhen``           when fired: ``drop_link(u, v, now, now + d)``
``TurnByzantineWhen``     when fired: ``replace_protocol`` with the
                          behaviour wrapped around the live instance
========================  =============================================

*Timed* faults are applied once, before the run (``fault.apply(host)``).
*Adaptive* faults fire when a trigger over the run's observed protocol
events is met — "crash the source once f+1 ECHOs are in flight": each
declares an :class:`ObservationFilter` (``after``) and a match
``count``; an :class:`AdaptiveController` fed every
:class:`~repro.core.events.Observation` of the run hands back the
faults whose trigger just completed, each exactly once, and the engine
calls ``fault.apply(host, run)``.

Accounting.  Every fault class also declares, as five class-level
booleans (:data:`ACCOUNTING_FLAGS`), what the rest of the system has to
know about it without looking at its type:

* ``silences`` — ``pid`` is not a correct process (the result's
  ``crashed`` set; an adaptive fault is accounted when it fires);
* ``joins_late`` — ``pid`` missed the traffic before its start, so a
  runtime must not wait for its deliveries;
* ``edits_graph`` — membership or edges change mid-run (churn): which
  in-flight copies are caught is a timing property;
* ``postpones_only`` — nothing is lost, only later: totality is still
  owed;
* ``corrupts`` — ``pid`` turns Byzantine, so it counts against the
  spec's ``f`` budget.

A new fault is one class in this file — fields, flags, ``apply`` — and
nothing in the runtimes, the backends or the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core.errors import SpecError
from repro.core.events import Observation

#: The accounting every fault class declares (see the module docstring).
ACCOUNTING_FLAGS = ("silences", "joins_late", "edits_graph", "postpones_only", "corrupts")


class _Fault:
    """What the engine reads off any fault, timed or adaptive."""

    #: The edge the fault needs in the *initial* topology, if any.
    link = None

    @property
    def processes(self) -> Tuple[int, ...]:
        """Every pid the fault names (checked against the topology up front)."""
        return (self.pid,)

    def _require_non_negative(self, **times: Optional[float]) -> None:
        for name, value in times.items():
            if value is not None and value < 0:
                raise SpecError(
                    f"{type(self).__name__} {name} must be non-negative, got {value}"
                )


@dataclass(frozen=True)
class CrashAt(_Fault):
    """Crash process ``pid`` at absolute simulated time ``time_ms``.

    A crash at time 0 takes effect before the process runs ``on_start``,
    so it never participates at all; a later crash silences a process that
    may already have relayed part of a broadcast.
    """

    pid: int
    time_ms: float = 0.0

    silences = True
    joins_late = edits_graph = postpones_only = corrupts = False

    def __post_init__(self) -> None:
        self._require_non_negative(time=self.time_ms)

    def apply(self, host) -> None:
        host.at(self.time_ms, host.crash, self.pid)


@dataclass(frozen=True)
class LinkDropWindow(_Fault):
    """Lose every message put on the ``{u, v}`` link in ``[start_ms, end_ms)``.

    ``end_ms=None`` models a link that goes down and never reopens — the
    protocols must then route around it through the remaining disjoint
    paths (or fail to deliver if the graph is not connected enough).
    """

    u: int
    v: int
    start_ms: float = 0.0
    end_ms: Optional[float] = None

    silences = joins_late = edits_graph = postpones_only = corrupts = False

    def __post_init__(self) -> None:
        self._require_non_negative(start=self.start_ms, end=self.end_ms)
        if self.end_ms is not None and self.end_ms < self.start_ms:
            raise SpecError(
                f"LinkDropWindow ends before it starts: "
                f"[{self.start_ms}, {self.end_ms})"
            )

    @property
    def processes(self) -> Tuple[int, ...]:
        return (self.u, self.v)

    @property
    def link(self) -> Tuple[int, int]:
        return (self.u, self.v)

    def apply(self, host) -> None:
        host.drop_link(self.u, self.v, self.start_ms, self.end_ms)


@dataclass(frozen=True)
class DelayedStart(_Fault):
    """Keep process ``pid`` dormant until absolute time ``time_ms``.

    Messages arriving earlier are buffered and replayed in arrival order
    at wake-up, modelling a correct node that boots late.
    """

    pid: int
    time_ms: float

    postpones_only = True
    silences = joins_late = edits_graph = corrupts = False

    def __post_init__(self) -> None:
        self._require_non_negative(time=self.time_ms)

    def apply(self, host) -> None:
        host.hold_until(self.pid, self.time_ms, keep_inbound=True)


# ----------------------------------------------------------------------
# Membership churn
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinAt(_Fault):
    """Process ``pid`` joins the run at absolute time ``time_ms``.

    Until the join fires the process is *absent*: it does not run
    ``on_start`` and messages addressed to it are dropped (unlike
    :class:`DelayedStart`, which buffers them — a late joiner never saw
    the early traffic).  The process keeps its topology links; only its
    participation starts late.
    """

    pid: int
    time_ms: float

    joins_late = edits_graph = True
    silences = postpones_only = corrupts = False

    def __post_init__(self) -> None:
        self._require_non_negative(time=self.time_ms)

    def apply(self, host) -> None:
        host.hold_until(self.pid, self.time_ms, keep_inbound=False)


@dataclass(frozen=True)
class LeaveAt(_Fault):
    """Process ``pid`` leaves the run at absolute time ``time_ms``.

    Leaving is a graph edit, not just a crash: the process goes
    fail-silent *and* its links are torn down, so later sends toward it
    are lost on the (now missing) channel instead of reaching a dead
    inbox.  For safety accounting the process counts as non-correct, like
    a crashed one.
    """

    pid: int
    time_ms: float = 0.0

    silences = edits_graph = True
    joins_late = postpones_only = corrupts = False

    def __post_init__(self) -> None:
        self._require_non_negative(time=self.time_ms)

    def apply(self, host) -> None:
        host.at(self.time_ms, self._leave, host)

    def _leave(self, host) -> None:
        host.crash(self.pid)
        # Every *live* edge, rewired-in ones included: cutting an edge
        # that is not there is a no-op on either host.
        for peer in host.topology.nodes:
            host.cut_edge(self.pid, peer)


@dataclass(frozen=True)
class RewireLinkAt(_Fault):
    """At ``time_ms``, replace ``pid``'s link to ``old_peer`` with ``new_peer``.

    The ``{pid, old_peer}`` edge is severed and ``{pid, new_peer}`` comes
    up, mid-run.  Degree is preserved but the disjoint-path structure the
    2f+1 bound rests on can change under the protocols' feet — the
    connectivity-under-churn helper in ``repro.topology.analysis``
    reports whether the bound survived every edit.  The edge to sever
    must exist in the *initial* topology; if earlier churn already
    removed it by ``time_ms``, only the new edge comes up.
    """

    pid: int
    old_peer: int
    new_peer: int
    time_ms: float = 0.0

    edits_graph = True
    silences = joins_late = postpones_only = corrupts = False

    def __post_init__(self) -> None:
        self._require_non_negative(time=self.time_ms)
        if self.old_peer == self.pid or self.new_peer == self.pid:
            raise SpecError(
                f"RewireLinkAt peers must differ from pid {self.pid}"
            )
        if self.old_peer == self.new_peer:
            raise SpecError(
                "RewireLinkAt old_peer and new_peer must differ, "
                f"both are {self.old_peer}"
            )

    @property
    def processes(self) -> Tuple[int, ...]:
        return (self.pid, self.old_peer, self.new_peer)

    @property
    def link(self) -> Tuple[int, int]:
        return (self.pid, self.old_peer)

    def apply(self, host) -> None:
        host.at(self.time_ms, self._rewire, host)

    def _rewire(self, host) -> None:
        host.cut_edge(self.pid, self.old_peer)
        host.add_edge(self.pid, self.new_peer)


FaultEvent = Union[CrashAt, LinkDropWindow, DelayedStart, JoinAt, LeaveAt, RewireLinkAt]


# ----------------------------------------------------------------------
# Adaptive (trigger-driven) faults
# ----------------------------------------------------------------------
#: Observation kinds an :class:`ObservationFilter` may select on.
OBSERVATION_KINDS = ("send", "deliver")


@dataclass(frozen=True)
class ObservationFilter:
    """Declarative predicate over run observations.

    Every non-``None`` field must match the observation; ``mtype`` is a
    substring match against the canonical message-type name (so
    ``"ECHO"`` matches both a plain Bracha ``ECHO`` and a Dolev-wrapped
    ``DOLEV[ECHO]``).  Being pure data, filters hash into the scenario
    hash and travel the sweep wire like every other spec field.
    """

    kind: Optional[str] = None
    pid: Optional[int] = None
    dest: Optional[int] = None
    mtype: Optional[str] = None
    source: Optional[int] = None
    bid: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is not None and self.kind not in OBSERVATION_KINDS:
            raise SpecError(
                f"unknown observation kind {self.kind!r}; "
                f"expected one of {OBSERVATION_KINDS}"
            )

    def matches(self, observation: Observation) -> bool:
        """Whether ``observation`` satisfies every constrained field."""
        if self.kind is not None and observation.kind != self.kind:
            return False
        if self.pid is not None and observation.pid != self.pid:
            return False
        if self.dest is not None and observation.dest != self.dest:
            return False
        if self.mtype is not None and (
            observation.mtype is None or self.mtype not in observation.mtype
        ):
            return False
        if self.source is not None and observation.source != self.source:
            return False
        if self.bid is not None and observation.bid != self.bid:
            return False
        return True


class _TriggeredFault(_Fault):
    """Shared shape of the adaptive fault dataclasses.

    Subclasses are frozen dataclasses declaring ``after`` (the
    observation filter) and ``count`` (matches required to fire) and
    implement ``apply(host, run)`` — what happens on the host when the
    trigger fires, and what of it the run's
    :class:`~repro.scenarios.engine.AdaptiveRunState` has to account.
    Per-run match counting lives in the :class:`AdaptiveController`, so
    the spec object stays immutable and reusable across runs.
    """

    def _require_count(self) -> None:
        if self.count < 1:
            raise SpecError(f"trigger count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class CrashWhen(_TriggeredFault):
    """Crash ``pid`` once ``count`` observations matched ``after``.

    The paper-style adaptive crash: e.g. crash the source once ``f + 1``
    ECHO messages are in flight
    (``after=ObservationFilter(kind="send", mtype="ECHO"), count=f + 1``).
    """

    pid: int
    after: ObservationFilter = ObservationFilter()
    count: int = 1

    silences = True
    joins_late = edits_graph = postpones_only = corrupts = False

    def __post_init__(self) -> None:
        self._require_count()

    def apply(self, host, run) -> None:
        host.crash(self.pid)
        run.crashed.add(self.pid)


@dataclass(frozen=True)
class TurnByzantineWhen(_TriggeredFault):
    """Turn ``pid`` Byzantine once ``count`` observations matched ``after``.

    The process runs correctly until the trigger fires, then its protocol
    instance is swapped for ``behaviour`` (``"mute"`` forgets the wrapped
    instance; every relay behaviour — ``"drop"``, ``"forge"``,
    ``"alter_sender"``, ``"send_empty"``, ``"limited_broadcast"``,
    ``"truncate_path"`` — wraps the *live* instance, so the turned
    process keeps its accumulated protocol state).  The pid counts
    against the spec's ``f`` budget — an adaptive adversary corrupts
    processes mid-run but cannot exceed the paper's fault bound.
    """

    pid: int
    after: ObservationFilter = ObservationFilter(kind="deliver")
    count: int = 1
    behaviour: str = "mute"
    drop_probability: float = 0.5

    corrupts = True
    silences = joins_late = edits_graph = postpones_only = False

    _BEHAVIOURS = (
        "mute",
        "drop",
        "forge",
        "alter_sender",
        "send_empty",
        "limited_broadcast",
        "truncate_path",
    )

    def __post_init__(self) -> None:
        self._require_count()
        if self.behaviour not in self._BEHAVIOURS:
            raise SpecError(
                f"adaptive behaviour {self.behaviour!r} not supported; "
                f"expected one of {self._BEHAVIOURS} (equivocation only "
                "makes sense at broadcast time, before any trigger)"
            )
        if not 0.0 <= self.drop_probability <= 1.0:
            raise SpecError(
                f"drop_probability must be within [0, 1], "
                f"got {self.drop_probability}"
            )

    def apply(self, host, run) -> None:
        run.convert(host, self.pid, self.behaviour, self.drop_probability)


@dataclass(frozen=True)
class CutLinkWhen(_TriggeredFault):
    """Cut the ``{u, v}`` link once ``count`` observations matched ``after``.

    ``duration_ms=None`` cuts the link for the rest of the run; a finite
    duration reopens it.  Unlike :class:`LinkDropWindow` the cut is
    placed *reactively* — e.g. the instant the first message crosses the
    link — which is how an adaptive network-level adversary partitions a
    barely-connected graph at the worst possible moment.
    """

    u: int
    v: int
    after: ObservationFilter = ObservationFilter(kind="send")
    count: int = 1
    duration_ms: Optional[float] = None

    silences = joins_late = edits_graph = postpones_only = corrupts = False

    def __post_init__(self) -> None:
        self._require_count()
        if self.duration_ms is not None and self.duration_ms <= 0:
            raise SpecError(
                f"cut duration must be positive (or None), got {self.duration_ms}"
            )

    @property
    def processes(self) -> Tuple[int, ...]:
        return (self.u, self.v)

    @property
    def link(self) -> Tuple[int, int]:
        return (self.u, self.v)

    def apply(self, host, run) -> None:
        now = host.now
        host.drop_link(
            self.u,
            self.v,
            now,
            None if self.duration_ms is None else now + self.duration_ms,
        )


AdaptiveFault = Union[CrashWhen, TurnByzantineWhen, CutLinkWhen]

#: Concrete adaptive fault types accepted by ``ScenarioSpec.adaptive``.
ADAPTIVE_FAULT_TYPES = (CrashWhen, TurnByzantineWhen, CutLinkWhen)


class AdaptiveController:
    """Per-run trigger state of a spec's adaptive faults.

    Both execution backends feed every run observation through
    :meth:`observe`; each fault fires exactly once, after its filter
    matched ``count`` times.  The controller only decides *when*: what a
    fired fault does is its own ``apply(host, run)``.
    """

    def __init__(self, faults: Tuple[AdaptiveFault, ...]) -> None:
        self.faults = tuple(faults)
        self._matched = [0] * len(self.faults)
        self._fired = [False] * len(self.faults)

    def observe(self, observation: Observation) -> List[AdaptiveFault]:
        """The faults whose trigger ``observation`` completes, in spec order."""
        fired: List[AdaptiveFault] = []
        for index, fault in enumerate(self.faults):
            if self._fired[index]:
                continue
            if not fault.after.matches(observation):
                continue
            self._matched[index] += 1
            if self._matched[index] >= fault.count:
                self._fired[index] = True
                fired.append(fault)
        return fired


__all__ = [
    "ACCOUNTING_FLAGS",
    "CrashAt",
    "LinkDropWindow",
    "DelayedStart",
    "JoinAt",
    "LeaveAt",
    "RewireLinkAt",
    "FaultEvent",
    "OBSERVATION_KINDS",
    "ObservationFilter",
    "CrashWhen",
    "TurnByzantineWhen",
    "CutLinkWhen",
    "AdaptiveFault",
    "ADAPTIVE_FAULT_TYPES",
    "AdaptiveController",
]
