"""Layered Bracha-Dolev combination (the state-of-the-art baseline, Sec. 4.3).

Every send-to-all of Bracha's protocol is replaced by a Dolev broadcast of
the corresponding SEND / ECHO / READY message, and every Dolev delivery
feeds the Bracha quorum machinery of the receiving process, as
illustrated by Fig. 2 of the paper.  With the Dolev layer unmodified this
is the protocol the paper calls *BD*; with Bonomi et al.'s MD.1–5
optimizations enabled it is *BDopt*.

ECHO and READY messages carry the identifier of the process that created
them (Sec. 5), because MD.2 replaces paths by empty paths after delivery
and the creator can then no longer be recovered from the path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.events import Command
from repro.core.messages import BrachaMessage, DolevMessage, MessageType
from repro.core.modifications import ModificationSet
from repro.core.protocol import BroadcastProtocol
from repro.brb.bracha import BrachaAction, BrachaQuorumState
from repro.brb.dolev import DolevDisseminator

BroadcastKey = Tuple[int, int]


class BrachaDolevBroadcast(BroadcastProtocol):
    """Bracha's BRB running on top of Dolev's reliable communication.

    Parameters
    ----------
    modifications:
        The MD.1–5 toggles applied to the Dolev layer.  Use
        :meth:`ModificationSet.none` for the unmodified *BD* combination
        and :meth:`ModificationSet.dolev_optimized` for *BDopt*.
    echo_amplification:
        Enable the ``f + 1`` ECHOs ⇒ own ECHO rule (not part of the
        baseline; provided for comparison with the cross-layer protocol).
    """

    def __init__(
        self,
        process_id: int,
        config: SystemConfig,
        neighbors: Iterable[int],
        *,
        modifications: Optional[ModificationSet] = None,
        echo_amplification: bool = False,
    ) -> None:
        super().__init__(process_id, config, neighbors)
        config.require_bracha_resilience()
        self.modifications = (
            modifications if modifications is not None else ModificationSet.none()
        )
        self._echo_amplification = echo_amplification
        self._states: Dict[BroadcastKey, BrachaQuorumState] = {}
        self._disseminator = DolevDisseminator(
            process_id=process_id,
            neighbors=self.neighbors,
            required_paths=config.disjoint_paths_required,
            modifications=self.modifications,
        )

    # ------------------------------------------------------------------
    # Constructors matching the paper's terminology
    # ------------------------------------------------------------------
    @classmethod
    def bd(cls, process_id: int, config: SystemConfig, neighbors: Iterable[int]):
        """The unmodified Bracha-Dolev combination (*BD*)."""
        return cls(process_id, config, neighbors, modifications=ModificationSet.none())

    @classmethod
    def bdopt(cls, process_id: int, config: SystemConfig, neighbors: Iterable[int]):
        """Bracha over Dolev with MD.1–5 (*BDopt*)."""
        return cls(
            process_id,
            config,
            neighbors,
            modifications=ModificationSet.dolev_optimized(),
        )

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def broadcast(self, payload: bytes, bid: int = 0) -> List[Command]:
        send_message = BrachaMessage(
            mtype=MessageType.SEND, source=self.process_id, bid=bid, payload=payload
        )
        return self._originate(send_message)

    def on_message(self, sender: int, message: DolevMessage) -> List[Command]:
        if not isinstance(message, DolevMessage) or not isinstance(
            message.content, BrachaMessage
        ):
            return []
        content = message.content
        if not self.config.is_process(content.source):
            return []
        sends, delivered = self._disseminator.on_message(sender, message)
        if not delivered:
            return sends
        commands: List[Command] = list(sends)
        for item in delivered:
            commands.extend(self._on_content_delivered(item))
        return commands

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _state(self, key: BroadcastKey) -> BrachaQuorumState:
        state = self._states.get(key)
        if state is None:
            state = BrachaQuorumState(
                config=self.config, echo_amplification=self._echo_amplification
            )
            self._states[key] = state
        return state

    def _originate(self, content: BrachaMessage) -> List[Command]:
        """Dolev-broadcast a locally created Bracha message."""
        sends, delivered = self._disseminator.originate(content)
        commands: List[Command] = list(sends)
        for item in delivered:
            commands.extend(self._on_content_delivered(item))
        return commands

    def _on_content_delivered(self, content: BrachaMessage) -> List[Command]:
        """Feed a Dolev-delivered Bracha message into the quorum machinery."""
        key = content.broadcast_id
        state = self._state(key)
        creator = content.creator if content.creator is not None else content.source
        if content.mtype == MessageType.SEND:
            # Only the claimed source can originate a SEND: the Dolev layer
            # authenticates the creator, so a SEND whose creator differs from
            # its source field is a forgery and is dropped.
            actions = state.on_send(content.payload) if creator == content.source else []
        elif content.mtype == MessageType.ECHO:
            actions = state.on_echo(creator, content.payload)
        elif content.mtype == MessageType.READY:
            actions = state.on_ready(creator, content.payload)
        else:
            actions = []
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
                mtype=mtype,
                source=source,
                bid=bid,
                payload=action.payload,
                creator=self.process_id,
            )
            commands.extend(self._originate(message))
        return commands

    def state_size_estimate(self) -> int:
        """Stored paths, combinations and quorum entries (memory proxy)."""
        quorums = sum(
            len(vs.echo_senders) + len(vs.ready_senders)
            for state in self._states.values()
            for vs in state.values.values()
        )
        return self._disseminator.state_size_estimate() + quorums


__all__ = ["BrachaDolevBroadcast"]
