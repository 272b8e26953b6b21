"""Byzantine process behaviours used by tests and failure-injection benches.

The global fault model of the paper lets up to ``f`` processes behave
arbitrarily: drop, modify or inject messages (Sec. 3).  This module
provides concrete behaviours implementing the same sans-io interface as
the correct protocols so they can be plugged into either runtime:

* :class:`MuteProcess` — never sends anything (fail-silent).
* :class:`CrashingProcess` — behaves correctly, then stops for good after
  a configurable number of handled messages.
* :class:`MessageDroppingRelay` — relays like a correct process but drops
  each outgoing message with some probability.
* :class:`PathForgingRelay` — relays but rewrites the path field of the
  messages it forwards with fabricated process identifiers.
* :class:`PathTruncatingRelay` — relays but *truncates* the path field,
  claiming the content travelled more directly than it did.
* :class:`SenderRewritingRelay` — relays but rewrites the ``source``
  identity of the messages it forwards.
* :class:`EmptyPayloadRelay` — relays envelopes with emptied payloads.
* :class:`LimitedBroadcastRelay` — relays only to a seed-deterministic
  strict subset of its neighbors, starving the rest.
* :class:`EquivocatingSource` — broadcasts conflicting payloads to
  different neighbors (the attack BRB-Agreement defends against).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from typing import Any, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.events import Command, SendTo
from repro.core.messages import (
    BrachaMessage,
    CrossLayerMessage,
    DolevMessage,
    MessageType,
)


class ByzantineBehavior:
    """Base class of Byzantine behaviours (duck-typed protocol interface)."""

    def __init__(self, process_id: int, neighbors: Sequence[int]) -> None:
        self.process_id = process_id
        self.neighbors: Tuple[int, ...] = tuple(sorted(set(neighbors)))
        self.delivered: dict = {}

    def on_start(self) -> List[Command]:
        return []

    def broadcast(self, payload: bytes, bid: int = 0) -> List[Command]:
        return []

    def on_message(self, sender: int, message: Any) -> List[Command]:
        return []

    def state_size_estimate(self) -> int:
        return 0


class MuteProcess(ByzantineBehavior):
    """A fail-silent Byzantine process: it never sends any message."""


class CrashingProcess(ByzantineBehavior):
    """Wraps a correct protocol and crashes it after ``crash_after`` messages.

    Until the crash point the process is indistinguishable from a correct
    one, which exercises the protocols' tolerance to processes that fail
    mid-broadcast.
    """

    def __init__(self, inner, crash_after: int) -> None:
        super().__init__(inner.process_id, inner.neighbors)
        if crash_after < 0:
            raise ValueError("crash_after must be non-negative")
        self.inner = inner
        self.crash_after = crash_after
        self._handled = 0

    @property
    def crashed(self) -> bool:
        """Whether the crash point has been reached."""
        return self._handled >= self.crash_after

    def on_start(self) -> List[Command]:
        return [] if self.crashed else self.inner.on_start()

    def broadcast(self, payload: bytes, bid: int = 0) -> List[Command]:
        if self.crashed:
            return []
        return self.inner.broadcast(payload, bid)

    def on_message(self, sender: int, message: Any) -> List[Command]:
        if self.crashed:
            return []
        self._handled += 1
        commands = self.inner.on_message(sender, message)
        if self.crashed:
            # The process crashes *while* handling this message: it gets the
            # first half (floor) of its outgoing commands onto the wire, then
            # stops for good.
            return commands[: len(commands) // 2]
        return commands


class _Relay(ByzantineBehavior):
    """Runs a correct protocol and tampers with what it puts on the wire.

    The base owns the three delegating hooks and the walk over the inner
    protocol's commands; a subclass only decides, send by send and in
    command order, what becomes of one outgoing message
    (:meth:`_outgoing`).  Deliveries pass through untouched.
    """

    def __init__(self, inner) -> None:
        super().__init__(inner.process_id, inner.neighbors)
        self.inner = inner

    def _outgoing(self, dest: int, message: Any) -> Any:
        """The message actually sent to ``dest``, or ``None`` to drop the send."""
        raise NotImplementedError

    def _relay(self, commands: List[Command]) -> List[Command]:
        relayed: List[Command] = []
        for command in commands:
            if isinstance(command, SendTo):
                message = self._outgoing(command.dest, command.message)
                if message is None:
                    continue
                if message is not command.message:
                    command = SendTo(dest=command.dest, message=message)
            relayed.append(command)
        return relayed

    def on_start(self) -> List[Command]:
        return self._relay(self.inner.on_start())

    def broadcast(self, payload: bytes, bid: int = 0) -> List[Command]:
        return self._relay(self.inner.broadcast(payload, bid))

    def on_message(self, sender: int, message: Any) -> List[Command]:
        return self._relay(self.inner.on_message(sender, message))


def _with_path(message: Any, rewrite) -> Any:
    """``message`` with its path field put through ``rewrite`` (if it has one)."""
    if isinstance(message, DolevMessage):
        return DolevMessage(content=message.content, path=rewrite(message.path))
    if isinstance(message, CrossLayerMessage) and message.path is not None:
        return message.with_fields(path=rewrite(message.path))
    return message


class MessageDroppingRelay(_Relay):
    """Runs a correct protocol but drops outgoing messages probabilistically."""

    def __init__(self, inner, drop_probability: float, seed: int = 0) -> None:
        super().__init__(inner)
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be within [0, 1]")
        self.drop_probability = drop_probability
        self._rng = random.Random(seed)
        self.dropped = 0

    def _outgoing(self, dest: int, message: Any) -> Any:
        if self._rng.random() < self.drop_probability:
            self.dropped += 1
            return None
        return message


class PathForgingRelay(_Relay):
    """Relays messages but rewrites their path field with forged identifiers.

    The forged paths try to make the receiving processes believe the
    content travelled through many disjoint routes, which a correct
    disjoint-path verifier must not be fooled by (only ``f`` processes can
    lie, so at least ``f + 1`` genuine disjoint paths are still required).
    """

    def __init__(self, inner, config: SystemConfig, seed: int = 0) -> None:
        super().__init__(inner)
        self.config = config
        self._rng = random.Random(seed)
        self.forged = 0

    def _forge_path(self, path: Tuple[int, ...]) -> Tuple[int, ...]:
        candidates = [p for p in self.config.processes if p != self.process_id]
        length = self._rng.randint(0, min(3, len(candidates)))
        self.forged += 1
        return tuple(self._rng.sample(candidates, length))

    def _outgoing(self, dest: int, message: Any) -> Any:
        return _with_path(message, self._forge_path)


class PathTruncatingRelay(_Relay):
    """Relays messages but *truncates* their path field to a shorter prefix.

    Where :class:`PathForgingRelay` fabricates identifiers, this variant
    lies by omission: it claims the content travelled more directly than
    it did, trying to make one route look like several short disjoint
    ones.  A correct verifier still requires ``f + 1`` genuinely disjoint
    paths, so a single truncating relay must not enable forgery.
    """

    def __init__(self, inner, seed: int = 0) -> None:
        super().__init__(inner)
        self._rng = random.Random(seed)
        self.truncated = 0

    def _truncate(self, path: Tuple[int, ...]) -> Tuple[int, ...]:
        if not path:
            return path
        keep = self._rng.randint(0, len(path) - 1)
        self.truncated += 1
        return path[:keep]

    def _outgoing(self, dest: int, message: Any) -> Any:
        return _with_path(message, self._truncate)


class SenderRewritingRelay(_Relay):
    """Relays messages but rewrites their ``source`` identity.

    Every relayed message that names a broadcast originator is rewritten
    to claim a different (seed-deterministically chosen) process
    originated it.  No-forgery requires that correct processes never
    deliver a broadcast the named source did not schedule, so the quorum
    and disjoint-path machinery must neutralize this relay.
    """

    def __init__(self, inner, config: SystemConfig, seed: int = 0) -> None:
        super().__init__(inner)
        self.config = config
        self._rng = random.Random(seed)
        self.rewritten = 0

    def _fake_source(self, original: Optional[int]) -> int:
        candidates = [p for p in self.config.processes if p != original]
        self.rewritten += 1
        return self._rng.choice(candidates)

    def _outgoing(self, dest: int, message: Any) -> Any:
        if isinstance(message, BrachaMessage):
            return replace(message, source=self._fake_source(message.source))
        if isinstance(message, DolevMessage):
            content = replace(
                message.content, source=self._fake_source(message.content.source)
            )
            return DolevMessage(content=content, path=message.path)
        if isinstance(message, CrossLayerMessage) and message.source is not None:
            return message.with_fields(source=self._fake_source(message.source))
        return message


class EmptyPayloadRelay(_Relay):
    """Relays envelopes but empties the payloads they carry.

    Correct processes must not deliver the emptied payload for the
    genuine ``(source, bid)``: agreement would be violated if some
    processes delivered the original bytes and others the empty ones.
    """

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.emptied = 0

    def _outgoing(self, dest: int, message: Any) -> Any:
        if isinstance(message, BrachaMessage):
            if message.payload:
                self.emptied += 1
                return replace(message, payload=b"")
            return message
        if isinstance(message, DolevMessage):
            content = message.content
            if content.payload:
                self.emptied += 1
                return DolevMessage(
                    content=replace(content, payload=b""), path=message.path
                )
            return message
        if isinstance(message, CrossLayerMessage) and message.payload:
            self.emptied += 1
            return message.with_fields(payload=b"")
        return message


class LimitedBroadcastRelay(_Relay):
    """Relays only to a seed-deterministic strict subset of its neighbors.

    At construction a non-empty strict subset of the neighbor set is
    drawn from ``seed`` (for degree <= 1 there is no strict subset to
    draw, so the single neighbor is kept); every send targeting a
    neighbor outside the subset is silently suppressed.  This starves a
    deterministic part of the network of this relay's traffic, attacking
    totality through selective silence rather than outright muteness.
    """

    def __init__(self, inner, seed: int = 0) -> None:
        super().__init__(inner)
        rng = random.Random(seed)
        if len(self.neighbors) > 1:
            keep = rng.randint(1, len(self.neighbors) - 1)
            self.targets: FrozenSet[int] = frozenset(rng.sample(self.neighbors, keep))
        else:
            self.targets = frozenset(self.neighbors)
        self.suppressed = 0

    def _outgoing(self, dest: int, message: Any) -> Any:
        if dest not in self.targets:
            self.suppressed += 1
            return None
        return message


class EquivocatingSource(ByzantineBehavior):
    """A Byzantine source that sends conflicting payloads to its neighbors.

    The first ``ceil(degree / 2)`` neighbors receive ``payload`` and the
    remaining ``floor(degree / 2)`` receive ``conflicting_payload`` for
    the same ``(source, bid)``, so both payloads are on the wire whenever
    the source has at least two neighbors.  With a single neighbor no
    split is possible; the lone neighbor deterministically receives the
    genuine ``payload``.  BRB-Agreement requires that correct processes
    either all deliver the same payload or none delivers; the
    reliable-communication layer alone does not prevent a split, which is
    what the integration tests check.

    Parameters
    ----------
    family:
        Which message format to craft: ``"bracha"`` (plain Bracha on a
        fully connected network), ``"bracha_dolev"`` (layered combination)
        or ``"cross_layer"`` (the optimized protocol).
    conflicting_payload:
        The second payload to send.  When omitted, a deterministic
        conflicting payload is derived from the genuine payload (and the
        ``seed``, when non-zero, so grid equivocators do not all tell the
        same lie).
    """

    def __init__(
        self,
        process_id: int,
        neighbors: Sequence[int],
        *,
        family: str = "cross_layer",
        conflicting_payload: Optional[bytes] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(process_id, neighbors)
        if family not in ("bracha", "bracha_dolev", "cross_layer"):
            raise ValueError(f"unknown protocol family: {family}")
        self.family = family
        self.conflicting_payload = conflicting_payload
        self.seed = seed

    def _derive_conflicting(self, payload: bytes) -> bytes:
        if self.seed == 0:
            return bytes(reversed(payload)) if payload else b"\x01"
        digest = hashlib.sha256(b"repro-equivocate-%d" % self.seed + payload).digest()
        length = max(1, len(payload))
        other = (digest * (length // len(digest) + 1))[:length]
        if other == payload:  # astronomically unlikely, but must never collide
            other = bytes((other[0] ^ 0x01,)) + other[1:]
        return other

    def _craft_send(self, payload: bytes, bid: int) -> Any:
        if self.family == "bracha":
            return BrachaMessage(
                mtype=MessageType.SEND, source=self.process_id, bid=bid, payload=payload
            )
        if self.family == "bracha_dolev":
            return DolevMessage(
                content=BrachaMessage(
                    mtype=MessageType.SEND,
                    source=self.process_id,
                    bid=bid,
                    payload=payload,
                ),
                path=(),
            )
        return CrossLayerMessage(
            mtype=MessageType.SEND,
            source=self.process_id,
            bid=bid,
            payload=payload,
            path=(),
        )

    def broadcast(self, payload: bytes, bid: int = 0) -> List[Command]:
        other = self.conflicting_payload
        if other is None:
            other = self._derive_conflicting(payload)
        if len(self.neighbors) == 1:
            # No split is possible with a single witness: send the genuine
            # payload so the equivocator degenerates to a correct source.
            return [SendTo(dest=self.neighbors[0], message=self._craft_send(payload, bid))]
        commands: List[Command] = []
        # Ceil/floor split: the genuine payload goes to the first
        # ceil(n/2) neighbors, the conflicting one to the remaining
        # floor(n/2) — both non-empty for every degree >= 2.
        half = (len(self.neighbors) + 1) // 2
        for index, neighbor in enumerate(self.neighbors):
            chosen = payload if index < half else other
            commands.append(SendTo(dest=neighbor, message=self._craft_send(chosen, bid)))
        return commands


#: Behaviour names accepted by :func:`build_behaviour` (and therefore by
#: the scenario engine).  Append-only: the
#: names are scenario-grid values, so reordering would change sampled
#: fuzz streams for existing seeds.
BEHAVIOUR_NAMES: Tuple[str, ...] = (
    "mute",
    "drop",
    "forge",
    "equivocate",
    "alter_sender",
    "send_empty",
    "limited_broadcast",
    "truncate_path",
)


def build_behaviour(
    behaviour: str,
    process_id: int,
    neighbors: Sequence[int],
    *,
    system: SystemConfig,
    inner_factory,
    family: str = "cross_layer",
    seed: int = 0,
    drop_probability: float = 0.5,
    conflicting_payload: Optional[bytes] = None,
):
    """Build one named Byzantine behaviour for process ``process_id``.

    ``inner_factory`` is a zero-argument callable returning a *correct*
    protocol instance for the process; it is only invoked for behaviours
    that wrap a correct protocol (every relay variant).  This is the
    single construction path (static placements and adaptive mid-run
    conversions alike), so a behaviour name means the same thing everywhere.
    """
    if behaviour == "mute":
        return MuteProcess(process_id, neighbors)
    if behaviour == "drop":
        return MessageDroppingRelay(
            inner_factory(), drop_probability=drop_probability, seed=seed
        )
    if behaviour == "forge":
        return PathForgingRelay(inner_factory(), system, seed=seed)
    if behaviour == "equivocate":
        return EquivocatingSource(
            process_id,
            neighbors,
            family=family,
            conflicting_payload=conflicting_payload,
            seed=seed,
        )
    if behaviour == "alter_sender":
        return SenderRewritingRelay(inner_factory(), system, seed=seed)
    if behaviour == "send_empty":
        return EmptyPayloadRelay(inner_factory())
    if behaviour == "limited_broadcast":
        return LimitedBroadcastRelay(inner_factory(), seed=seed)
    if behaviour == "truncate_path":
        return PathTruncatingRelay(inner_factory(), seed=seed)
    raise ValueError(f"unknown Byzantine behaviour: {behaviour}")


__all__ = [
    "ByzantineBehavior",
    "MuteProcess",
    "CrashingProcess",
    "MessageDroppingRelay",
    "PathForgingRelay",
    "PathTruncatingRelay",
    "SenderRewritingRelay",
    "EmptyPayloadRelay",
    "LimitedBroadcastRelay",
    "EquivocatingSource",
    "BEHAVIOUR_NAMES",
    "build_behaviour",
]
