"""Commands and events exchanged between protocols and runtimes.

Protocols in :mod:`repro.brb` are written *sans-io*: they never touch a
socket or a scheduler.  Every entry point (``on_start``, ``broadcast``,
``on_message``) returns a list of :class:`Command` objects describing what
the hosting runtime should do — put a message on an authenticated link
(:class:`SendTo`) or hand a payload to the application
(:class:`BRBDeliver`, the one delivery command of every protocol, plain
Dolev's reliable communication included).  Both the discrete-event
simulation runtime and the asyncio runtime interpret the same commands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union


@dataclass(slots=True, unsafe_hash=True)
class SendTo:
    """Ask the runtime to send ``message`` to neighbor ``dest``.

    The link between the emitting process and ``dest`` is assumed to be an
    authenticated, reliable point-to-point channel (Sec. 3).

    Not ``frozen``: a frozen dataclass routes every ``__init__`` store
    through ``object.__setattr__``, which roughly doubles construction
    cost, and this is the one command allocated per link transmission.
    Treat instances as immutable regardless.
    """

    dest: int
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


def sends(commands) -> Tuple[SendTo, ...]:
    """Return only the :class:`SendTo` commands of a command list."""
    return tuple(c for c in commands if isinstance(c, SendTo))


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
