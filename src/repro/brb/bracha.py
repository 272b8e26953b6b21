"""Bracha's authenticated double-echo broadcast (Algorithm 1).

The protocol assumes a fully connected network of ``N`` processes with
authenticated, reliable, asynchronous point-to-point links and tolerates
``f < N/3`` Byzantine processes.  It proceeds in three phases:

1. the source sends ``SEND(m)`` to every process;
2. upon the first ``SEND`` from the source, a process sends ``ECHO(m)``
   to every process and waits for an echo quorum of ``⌈(N+f+1)/2⌉``;
3. upon an echo quorum — or ``f+1`` ``READY`` messages (amplification) —
   a process sends ``READY(m)``; upon ``2f+1`` ``READY`` messages it
   BRB-delivers ``m``.

The quorum bookkeeping is factored out into :class:`BrachaQuorumState`
so that the layered Bracha-Dolev combination
(:mod:`repro.brb.bracha_dolev`) can reuse it unchanged, with message
emission going through Dolev's protocol instead of direct links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.config import SystemConfig
from repro.core.events import Command, SendTo
from repro.core.messages import BrachaMessage, MessageType
from repro.core.protocol import BroadcastProtocol

BroadcastKey = Tuple[int, int]


@dataclass
class BrachaAction:
    """An action decided by the quorum state machine.

    ``kind`` is one of ``"echo"``, ``"ready"`` or ``"deliver"``; the
    payload is the value the action refers to.
    """

    kind: str
    payload: bytes


@dataclass
class _PerValueState:
    echo_senders: Set[int] = field(default_factory=set)
    ready_senders: Set[int] = field(default_factory=set)


@dataclass
class BrachaQuorumState:
    """Quorum bookkeeping of one broadcast ``(source, bid)``.

    Quorums are counted per payload value so that an equivocating
    Byzantine source cannot make correct processes deliver different
    values: delivering requires ``2f+1`` READYs *for the same value*.
    """

    config: SystemConfig
    #: Whether this process has sent its ECHO / READY for this broadcast.
    sent_echo: bool = False
    sent_ready: bool = False
    delivered: bool = False
    values: Dict[bytes, _PerValueState] = field(default_factory=dict)

    def _value_state(self, payload: bytes) -> _PerValueState:
        return self.values.setdefault(payload, _PerValueState())

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_send(self, payload: bytes) -> List[BrachaAction]:
        """A ``SEND`` from the source has been received (or validated)."""
        if self.sent_echo:
            return []
        self.sent_echo = True
        return [BrachaAction("echo", payload)]

    def on_echo(self, sender: int, payload: bytes) -> List[BrachaAction]:
        """An ``ECHO`` created by ``sender`` has been received."""
        state = self._value_state(payload)
        if sender in state.echo_senders:
            return []
        state.echo_senders.add(sender)
        if not self.sent_ready and len(state.echo_senders) >= self.config.echo_quorum:
            self.sent_ready = True
            return [BrachaAction("ready", payload)]
        return []

    def on_ready(self, sender: int, payload: bytes) -> List[BrachaAction]:
        """A ``READY`` created by ``sender`` has been received."""
        state = self._value_state(payload)
        if sender in state.ready_senders:
            return []
        state.ready_senders.add(sender)
        actions: List[BrachaAction] = []
        if (
            not self.sent_ready
            and len(state.ready_senders) >= self.config.ready_amplification_threshold
        ):
            self.sent_ready = True
            actions.append(BrachaAction("ready", payload))
        if not self.delivered and len(state.ready_senders) >= self.config.delivery_quorum:
            self.delivered = True
            actions.append(BrachaAction("deliver", payload))
        return actions

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and by the optimized protocol
    # ------------------------------------------------------------------
    def echo_count(self, payload: bytes) -> int:
        """Number of distinct ECHO creators recorded for ``payload``."""
        state = self.values.get(payload)
        return len(state.echo_senders) if state else 0

    def ready_count(self, payload: bytes) -> int:
        """Number of distinct READY creators recorded for ``payload``."""
        state = self.values.get(payload)
        return len(state.ready_senders) if state else 0


class BrachaBroadcast(BroadcastProtocol):
    """Bracha's BRB protocol for fully connected networks.

    The process set must be fully connected: ``neighbors`` must contain
    every other process of the system.
    """

    def __init__(
        self,
        process_id: int,
        config: SystemConfig,
        neighbors=None,
    ) -> None:
        if neighbors is None:
            neighbors = [p for p in config.processes if p != process_id]
        super().__init__(process_id, config, neighbors)
        config.require_bracha_resilience()
        self._states: Dict[BroadcastKey, BrachaQuorumState] = {}

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def broadcast(self, payload: bytes, bid: int = 0) -> List[Command]:
        message = BrachaMessage(
            mtype=MessageType.SEND, source=self.process_id, bid=bid, payload=payload
        )
        commands = self._send_to_all(message)
        # The source handles its own SEND locally (Algorithm 1 sends to
        # every process in Π, including the sender itself).
        commands.extend(self._handle(self.process_id, message))
        return commands

    def on_message(self, sender: int, message: BrachaMessage) -> List[Command]:
        if not isinstance(message, BrachaMessage):
            return []
        if not self.config.is_process(message.source):
            return []
        if message.mtype == MessageType.SEND and message.source != sender:
            # Authenticated links: only the source itself can issue its SEND.
            return []
        return self._handle(sender, message)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _state(self, key: BroadcastKey) -> BrachaQuorumState:
        state = self._states.get(key)
        if state is None:
            state = BrachaQuorumState(config=self.config)
            self._states[key] = state
        return state

    def _handle(self, sender: int, message: BrachaMessage) -> List[Command]:
        key = message.broadcast_id
        state = self._state(key)
        if message.mtype == MessageType.SEND:
            actions = state.on_send(message.payload)
        elif message.mtype == MessageType.ECHO:
            actions = state.on_echo(sender, message.payload)
        elif message.mtype == MessageType.READY:
            actions = state.on_ready(sender, message.payload)
        else:
            return []
        return self._apply_actions(key, actions)

    def _apply_actions(self, key: BroadcastKey, actions: List[BrachaAction]) -> List[Command]:
        source, bid = key
        commands: List[Command] = []
        for action in actions:
            if action.kind == "deliver":
                commands.append(self._record_delivery(source, bid, action.payload))
                continue
            mtype = MessageType.ECHO if action.kind == "echo" else MessageType.READY
            message = BrachaMessage(
                mtype=mtype, source=source, bid=bid, payload=action.payload
            )
            commands.extend(self._send_to_all(message))
            # Count the local copy as well: a process's own ECHO/READY
            # contributes to its quorums (it "sends to itself").
            commands.extend(self._handle(self.process_id, message))
        return commands

    def _send_to_all(self, message: BrachaMessage) -> List[Command]:
        return [SendTo(dest=q, message=message) for q in self.neighbors]

    def state_size_estimate(self) -> int:
        """Number of quorum entries stored (memory proxy)."""
        return sum(
            len(vs.echo_senders) + len(vs.ready_senders)
            for state in self._states.values()
            for vs in state.values.values()
        )


__all__ = ["BrachaBroadcast", "BrachaQuorumState", "BrachaAction"]
