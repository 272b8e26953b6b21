"""Frozen reference for the Dolev reception handler (test-only).

``ReferenceDisseminator`` is ``repro.brb.dolev.DolevDisseminator`` as it
stood before the MD.5-first reception order: ``on_message`` validates
the path, allocates the state and resolves the origin for every
reception and only then applies MD.4 / MD.5; ``_plan_relays`` and
``_relay_targets`` copy the exclusion set and build the relay message
whatever the target list.  Copied verbatim apart from the class names
(``ContentState`` has no ``done`` flag here).  The differential property
in ``test_dolev_differential.py`` drives both with the same reception
sequences and requires equal returns and equal state.  Do not
"optimize" this file: its value is that it does not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.events import SendTo
from repro.core.messages import BrachaMessage, DolevMessage, Path
from repro.core.modifications import ModificationSet
from repro.paths.disjoint import DisjointPathVerifier
from repro.paths.pathset import path_to_bits


def content_origin(content) -> Optional[int]:
    """The process that created a disseminated content.

    For a :class:`BrachaMessage` this is the ``creator`` field when
    present (ECHO/READY messages) and the ``source`` otherwise (SEND
    messages).  Raw byte contents have no known origin.
    """
    if isinstance(content, BrachaMessage):
        return content.creator if content.creator is not None else content.source
    return None


@dataclass
class ReferenceContentState:
    """Dissemination state of one content at one process."""

    verifier: DisjointPathVerifier
    delivered: bool = False
    relayed_empty: bool = False
    #: Neighbors known to have delivered the content (they sent an empty path).
    neighbors_delivered: Set[int] = field(default_factory=set)

    def state_size_estimate(self) -> int:
        return self.verifier.state_size_estimate() + len(self.neighbors_delivered)


class ReferenceDisseminator:
    """Per-content flooding with path accumulation and MD.1–5 support.

    Parameters
    ----------
    process_id / neighbors:
        Identity and direct neighbors of the hosting process.
    required_paths:
        Number of node-disjoint paths required for delivery (``f + 1``).
    modifications:
        The MD.1–5 (and MBD.10) toggles honoured by the disseminator.
    extra_exclusions:
        Optional hook returning additional neighbors to exclude when
        relaying a given content; the layered combination uses it for the
        cross-layer exclusions (e.g. MBD.9).
    """

    def __init__(
        self,
        process_id: int,
        neighbors: Iterable[int],
        required_paths: int,
        modifications: Optional[ModificationSet] = None,
        *,
        extra_exclusions: Optional[Callable[[object], Set[int]]] = None,
    ) -> None:
        self.process_id = process_id
        self.neighbors: Tuple[int, ...] = tuple(sorted(set(neighbors)))
        self.required_paths = required_paths
        self.mods = modifications if modifications is not None else ModificationSet.none()
        self.extra_exclusions = extra_exclusions
        self._contents: Dict[object, ReferenceContentState] = {}

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def _state(self, content) -> ReferenceContentState:
        state = self._contents.get(content)
        if state is None:
            state = ReferenceContentState(verifier=DisjointPathVerifier(self.required_paths))
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
        targets = self._relay_targets(content, state, exclude=set())
        sends = [SendTo((q,), DolevMessage(content=content, path=())) for q in targets]
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
        # Forged paths with absurd identifiers are dropped before any ``1 << id``.
        if wire_path and (
            len(wire_path) > 4096 or min(wire_path) < 0 or max(wire_path) >= 2 ** 20
        ):
            return [], []
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

        # MD.5: after delivering and relaying the empty path, stop relaying
        # (or right after delivery when MD.2's empty-path relay is disabled).
        if (
            state.delivered
            and self.mods.md5_stop_after_delivery
            and (state.relayed_empty or not self.mods.md2_empty_path_after_delivery)
        ):
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
            content, state, sender, wire_path, result.stored, newly_delivered, direct
        )
        return sends, ([content] if newly_delivered else [])

    # ------------------------------------------------------------------
    # Relay planning
    # ------------------------------------------------------------------
    def _plan_relays(
        self,
        content,
        state: ReferenceContentState,
        sender: int,
        wire_path: Path,
        path_stored: bool,
        newly_delivered: bool,
        direct: bool,
    ) -> List[SendTo]:
        if newly_delivered and self.mods.md2_empty_path_after_delivery:
            # MD.2: announce the delivery once, with an empty path.
            relay_path: Path = ()
            state.relayed_empty = True
            exclude: Set[int] = set()
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
            exclude = set(wire_path) | {sender}

        targets = self._relay_targets(content, state, exclude=exclude)
        message = DolevMessage(content=content, path=relay_path)
        return [SendTo((q,), message) for q in targets]

    def _relay_targets(self, content, state: ReferenceContentState, *, exclude: Set[int]) -> List[int]:
        origin = content_origin(content)
        excluded = set(exclude)
        if origin is not None:
            excluded.add(origin)
        excluded.add(self.process_id)
        if self.mods.md3_skip_delivered_neighbors:
            excluded |= state.neighbors_delivered
        if self.extra_exclusions is not None:
            excluded |= set(self.extra_exclusions(content))
        return [q for q in self.neighbors if q not in excluded]
