"""Dolev's reliable communication on unknown topologies (Algorithm 2).

Dolev's protocol floods a content — always a Bracha message — through the
network while accumulating, in each message, the path of processes it
traversed.  A process delivers a content once it has received it through
``f + 1`` node-disjoint paths, which is guaranteed to happen when the
communication graph is at least ``2f + 1``-vertex-connected (Menger's
theorem + pigeonhole).

Two classes are provided:

* :class:`DolevDisseminator` — the reusable dissemination engine: it
  manages the per-content path bookkeeping, the relaying rules and
  Bonomi et al.'s MD.1–5 optimizations.  The layered Bracha-Dolev
  combination (:mod:`repro.brb.bracha_dolev`) reuses it for each
  SEND, ECHO and READY it disseminates.
* :class:`DolevBroadcast` — the reliable-communication protocol exposed
  through the standard :class:`~repro.core.protocol.BroadcastProtocol`
  interface (honest-dealer broadcast): it floods a SEND carrying the
  source and broadcast id and delivers it as a
  :class:`~repro.core.events.BRBDeliver` of that ``(source, bid)``; pass
  ``modifications=ModificationSet.dolev_optimized()`` for MD.1–5.

Reception order
---------------
:meth:`DolevDisseminator.on_message` decides drops first: **lookup** (one
``_contents.get``) → **MD.5** (the stored ``ContentState.done`` flag) →
**validation** of the wire path → **MD.4** → **verify** (``add_path``,
delivery, relay planning).  A dropped reception may still touch exactly
one thing: an *empty* path adds its sender to ``neighbors_delivered``
(what ``neighbors_that_delivered`` and ``state_size_estimate`` report),
whether it ends in MD.5 or goes on.  A forged path (negative or ≥ 2²⁰
identifiers, > 4096 hops) touches and allocates nothing, before or after
MD.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.config import SystemConfig
from repro.core.events import Command, SendTo
from repro.core.messages import BrachaMessage, DolevMessage, MessageType, Path
from repro.core.modifications import ModificationSet
from repro.core.protocol import BroadcastProtocol
from repro.paths.disjoint import DisjointPathVerifier
from repro.paths.pathset import path_to_bits


def content_origin(content: BrachaMessage) -> int:
    """The process that created a disseminated content.

    The ``creator`` field when present (ECHO/READY messages), the
    ``source`` otherwise (SEND messages).
    """
    return content.creator if content.creator is not None else content.source


@dataclass
class ContentState:
    """Dissemination state of one content at one process."""

    verifier: DisjointPathVerifier
    delivered: bool = False
    relayed_empty: bool = False
    #: MD.5 reached: every later reception of the content is dropped.
    done: bool = False
    #: Neighbors known to have delivered the content (they sent an empty path).
    neighbors_delivered: Set[int] = field(default_factory=set)

    def state_size_estimate(self) -> int:
        return self.verifier.state_size_estimate() + len(self.neighbors_delivered)


class DolevDisseminator:
    """Per-content flooding with path accumulation and MD.1–5 support.

    Parameters
    ----------
    process_id / neighbors:
        Identity and direct neighbors of the hosting process.
    required_paths:
        Number of node-disjoint paths required for delivery (``f + 1``).
    modifications:
        The MD.1–5 (and MBD.10) toggles honoured by the disseminator.
    """

    def __init__(
        self,
        process_id: int,
        neighbors: Iterable[int],
        required_paths: int,
        modifications: Optional[ModificationSet] = None,
    ) -> None:
        self.process_id = process_id
        self.neighbors: Tuple[int, ...] = tuple(sorted(set(neighbors)))
        self.required_paths = required_paths
        self.mods = modifications if modifications is not None else ModificationSet.none()
        self._contents: Dict[object, ContentState] = {}

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def _state(self, content) -> ContentState:
        state = self._contents.get(content)
        if state is None:
            state = ContentState(verifier=DisjointPathVerifier(self.required_paths))
            self._contents[content] = state
        return state

    def has_delivered(self, content) -> bool:
        """Whether ``content`` has been Dolev-delivered locally."""
        state = self._contents.get(content)
        return state.delivered if state else False

    def neighbors_that_delivered(self, content) -> FrozenSet[int]:
        """Neighbors known to have Dolev-delivered ``content``."""
        state = self._contents.get(content)
        return frozenset(state.neighbors_delivered) if state else frozenset()

    def state_size_estimate(self) -> int:
        """Stored paths and combinations over all contents (memory proxy)."""
        return sum(state.state_size_estimate() for state in self._contents.values())

    # ------------------------------------------------------------------
    # Dissemination
    # ------------------------------------------------------------------
    def originate(self, content) -> Tuple[List[SendTo], List[object]]:
        """Start the dissemination of a locally created content.

        The creator delivers its own content immediately (Algorithm 2,
        lines 12–13) and sends it with an empty path to its neighbors.
        """
        state = self._state(content)
        if state.delivered:
            return [], []
        state.delivered = True
        state.relayed_empty = True
        self._settle(state)
        targets = self._relay_targets(state, content_origin(content), ())
        sends = [SendTo(dest=q, message=DolevMessage(content=content, path=())) for q in targets]
        return sends, [content]

    def on_message(
        self, sender: int, message: DolevMessage
    ) -> Tuple[List[SendTo], List[object]]:
        """Handle a Dolev message received from direct neighbor ``sender``.

        Returns the relays to emit and the contents newly Dolev-delivered
        by this reception.
        """
        content = message.content
        wire_path: Path = message.path
        state = self._contents.get(content)
        if state is not None and state.done:
            # MD.5, the common case, before anything is validated, allocated
            # or resolved.  An empty path still says the sender has the content.
            if not wire_path:
                state.neighbors_delivered.add(sender)
            return [], []
        # Forged paths with absurd identifiers are dropped before any ``1 << id``
        # and before a state is allocated.
        if wire_path and (
            len(wire_path) > 4096 or min(wire_path) < 0 or max(wire_path) >= 2 ** 20
        ):
            return [], []
        if state is None:
            state = self._state(content)
        origin = content_origin(content)

        if not wire_path:
            # An empty path means the sender created the content or
            # delivered it and is relaying per MD.2: either way it has it.
            state.neighbors_delivered.add(sender)
        elif (
            self.mods.md4_ignore_paths_with_delivered
            and not state.neighbors_delivered.isdisjoint(wire_path)
        ):
            # MD.4: ignore paths that contain a neighbor that already delivered.
            return [], []

        # Node mask of the intermediaries: sender and wire path, without this
        # process and the origin (shifted by only when it is a validated id).
        direct = not wire_path and sender == origin
        intermediaries = path_to_bits(wire_path) | 1 << sender
        intermediaries &= ~(1 << self.process_id)
        if origin == sender or origin in wire_path:
            intermediaries &= ~(1 << origin)

        result = state.verifier.add_path(intermediaries)

        newly_delivered = False
        if not state.delivered:
            if direct and self.mods.md1_deliver_from_source:
                newly_delivered = True
            elif result.newly_satisfied:
                newly_delivered = True
            if newly_delivered:
                state.delivered = True
                if self.mods.md2_empty_path_after_delivery:
                    state.verifier.discard_paths()

        sends = self._plan_relays(
            content, state, sender, wire_path, origin, result.stored, newly_delivered, direct
        )
        if newly_delivered:
            self._settle(state)
        return sends, ([content] if newly_delivered else [])

    def _settle(self, state: ContentState) -> None:
        # MD.5, written once: after delivering and relaying the empty path, stop
        # relaying (or right after delivery when MD.2's empty-path relay is
        # disabled).  Called wherever ``delivered`` / ``relayed_empty`` change.
        state.done = (
            state.delivered
            and self.mods.md5_stop_after_delivery
            and (state.relayed_empty or not self.mods.md2_empty_path_after_delivery)
        )

    # ------------------------------------------------------------------
    # Relay planning
    # ------------------------------------------------------------------
    def _plan_relays(
        self,
        content,
        state: ContentState,
        sender: int,
        wire_path: Path,
        origin: int,
        path_stored: bool,
        newly_delivered: bool,
        direct: bool,
    ) -> List[SendTo]:
        if newly_delivered and self.mods.md2_empty_path_after_delivery:
            # MD.2: announce the delivery once, with an empty path.
            relay_path: Path = ()
            state.relayed_empty = True
        else:
            # MBD.10: a dominated path adds no information — do not relay it.
            if (
                self.mods.mbd10_ignore_superpaths
                and not path_stored
                and not direct
                and not newly_delivered
            ):
                return []
            relay_path = wire_path + (sender,)

        # Never back along the path: the relayed path is the exclusion.
        targets = self._relay_targets(state, origin, relay_path)
        if not targets:
            return []
        message = DolevMessage(content=content, path=relay_path)
        return [SendTo(dest=q, message=message) for q in targets]

    def _relay_targets(
        self, state: ContentState, origin: int, relay_path: Path
    ) -> List[int]:
        excluded = {self.process_id, origin, *relay_path}
        if self.mods.md3_skip_delivered_neighbors:
            excluded |= state.neighbors_delivered
        return [q for q in self.neighbors if q not in excluded]


class DolevBroadcast(BroadcastProtocol):
    """Reliable communication (honest-dealer broadcast) on generic networks.

    The broadcast content is a SEND carrying its source and broadcast
    identifier (as required by Bonomi et al.'s optimized variant, Sec. 3),
    so each delivery is recorded under the ``(source, bid)`` it claims.
    """

    def __init__(
        self,
        process_id: int,
        config: SystemConfig,
        neighbors: Iterable[int],
        *,
        modifications: Optional[ModificationSet] = None,
    ) -> None:
        super().__init__(process_id, config, neighbors)
        self.modifications = (
            modifications if modifications is not None else ModificationSet.none()
        )
        self._disseminator = DolevDisseminator(
            process_id=process_id,
            neighbors=self.neighbors,
            required_paths=config.disjoint_paths_required,
            modifications=self.modifications,
        )

    def broadcast(self, payload: bytes, bid: int = 0) -> List[Command]:
        content = BrachaMessage(
            mtype=MessageType.SEND, source=self.process_id, bid=bid, payload=payload
        )
        sends, delivered = self._disseminator.originate(content)
        commands: List[Command] = list(sends)
        commands.extend(self._deliver_contents(delivered))
        return commands

    def on_message(self, sender: int, message: DolevMessage) -> List[Command]:
        if not isinstance(message, DolevMessage) or not isinstance(
            message.content, BrachaMessage
        ):
            return []
        sends, delivered = self._disseminator.on_message(sender, message)
        if not delivered:
            return sends
        commands: List[Command] = list(sends)
        commands.extend(self._deliver_contents(delivered))
        return commands

    def _deliver_contents(self, contents: List[BrachaMessage]) -> List[Command]:
        commands: List[Command] = []
        for content in contents:
            if (content.source, content.bid) in self.delivered:
                continue
            commands.append(
                self._record_delivery(content.source, content.bid, content.payload)
            )
        return commands

    def state_size_estimate(self) -> int:
        """Stored paths and combinations (memory proxy, Sec. 7.3)."""
        return self._disseminator.state_size_estimate()


__all__ = [
    "DolevDisseminator",
    "DolevBroadcast",
    "ContentState",
    "content_origin",
]
