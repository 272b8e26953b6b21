"""Commands and events exchanged between protocols and runtimes.

Protocols in :mod:`repro.brb` are written *sans-io*: they never touch a
socket or a scheduler.  Every entry point (``on_start``, ``broadcast``,
``on_message``) returns a list of :class:`Command` objects describing what
the hosting runtime should do — put one message on the authenticated
links to a set of neighbours (:class:`SendTo`, one command per fan-out)
or hand a payload to the application (:class:`BRBDeliver`, the one
delivery command of every protocol, plain Dolev's reliable communication
included).  Both the discrete-event simulation runtime and the asyncio
runtime interpret the same commands.

Commands are values: they compare and hash by their fields, and no code
writes a field after construction.  :class:`SendTo` is built once per
fan-out, so it is a plain slotted dataclass (``unsafe_hash=True``, not
frozen: a frozen constructor stores each field through
``object.__setattr__``), immutable by convention —
``tests/unit/test_wire_values.py`` pins that.  Its ``dests`` tuple is
handed to the simulator's scheduler as it is, uncopied.
:class:`BRBDeliver`, built once per delivery, stays frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union


@dataclass(slots=True, unsafe_hash=True)
class SendTo:
    """Ask the runtime to send ``message`` to each neighbor in ``dests``.

    ``dests`` is a tuple of neighbor ids in send order: one command is one
    fan-out of one message object, which the runtimes treat as that many
    sends, one after the other.  Each link is assumed to be an
    authenticated, reliable point-to-point channel (Sec. 3).
    """

    dests: Tuple[int, ...]
    message: Any


@dataclass(frozen=True, slots=True)
class BRBDeliver:
    """Delivery of a broadcast payload to the application.

    ``source`` and ``bid`` identify the broadcast; all correct processes
    delivering the same ``(source, bid)`` deliver the same ``payload``
    (BRB-Agreement).  Plain Dolev (:class:`repro.brb.dolev.DolevBroadcast`)
    emits it too, with the source and bid its SEND content carries; its
    guarantees there are those of reliable communication (honest source).
    """

    source: int
    bid: int
    payload: bytes


Command = Union[SendTo, BRBDeliver]


@dataclass(frozen=True, slots=True)
class Observation:
    """One protocol event observed by a hosting runtime.

    Emitted by both runtimes to registered observers (the scenario
    engine's adaptive-fault controller): ``kind`` is ``"send"`` for a
    message put on a link and ``"deliver"`` for an application-level
    delivery.  ``time_ms`` is simulated milliseconds on the simulation
    runtime and epoch-relative wall-clock milliseconds on the asyncio
    runtime.  Fields that do not apply to the event kind (``dest`` and
    ``mtype`` for deliveries) or that the message does not carry are
    ``None``.
    """

    kind: str
    time_ms: float
    pid: int
    dest: Optional[int] = None
    mtype: Optional[str] = None
    source: Optional[int] = None
    bid: Optional[int] = None


def sends(commands) -> Tuple[Tuple[int, Any], ...]:
    """Return the sends of a command list as ``(dest, message)`` pairs, in order."""
    return tuple((d, c.message) for c in commands if isinstance(c, SendTo) for d in c.dests)


def deliveries(commands) -> Tuple[BRBDeliver, ...]:
    """Return only the delivery commands of a command list."""
    return tuple(c for c in commands if isinstance(c, BRBDeliver))


__all__ = [
    "SendTo",
    "BRBDeliver",
    "Command",
    "Observation",
    "sends",
    "deliveries",
]
