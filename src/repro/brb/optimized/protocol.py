"""The cross-layer Bracha-Dolev protocol (the paper's contribution).

The protocol merges the Bracha and Dolev layers of the state-of-the-art
combination so that the MBD.1–12 modifications of Sec. 6 can be applied:

* the *Dolev role* of the protocol disseminates *contents* — (SEND |
  ECHO | READY, creator) pairs of a payload — through the partially
  connected network, accumulating transmission paths and delivering a
  content once ``f + 1`` node-disjoint paths have been received
  (or directly from its creator, MD.1);
* the *Bracha role* counts Dolev-delivered ECHO and READY contents per
  payload value and drives the phase transitions: echo quorum
  ``⌈(N+f+1)/2⌉`` ⇒ own READY, ``f+1`` READYs ⇒ own READY
  (amplification), ``f+1`` ECHOs ⇒ own ECHO (echo amplification,
  required by MBD.2), ``2f+1`` READYs ⇒ BRB-delivery;
* cross-layer modifications change what is put on the wire: payloads are
  replaced by per-neighbor local identifiers after their first
  transmission (MBD.1), SENDs become single-hop (MBD.2), simultaneous
  relays/creations are merged into ECHO_ECHO / READY_ECHO messages
  (MBD.3/4), redundant fields are dropped (MBD.5), and several rules
  suppress messages that are no longer useful (MBD.6–10) or restrict who
  creates messages and to how many neighbors they are sent (MBD.11–12).

The defaults correspond to the *lat. & bdw.* configuration of Sec. 7.4;
pass an explicit :class:`~repro.core.modifications.ModificationSet` to
select any other combination (including the plain *BDopt* baseline).

There is one reception path (:meth:`~CrossLayerBrachaDolev._receive`,
called once per content of a wire message) and one wire builder
(:meth:`~CrossLayerBrachaDolev._finalize`), so every rule is written
once.  A rule that acts on both directions has one site for each:

========  ============================================================
rule      site
========  ============================================================
MD.1      ``_receive``: a content straight from its creator is delivered
MD.2      ``_plan_relay``: one empty-path announcement after delivery;
          ``_receive`` reads it back (an empty path means the sender
          has the content) and discards a delivered content's paths
MD.3      ``_relay_targets``: skip neighbors that have the content
MD.4      ``_receive``: drop a path through such a neighbor
MD.5      ``_receive``: drop a content already delivered and announced
MBD.1     out ``_finalize`` (id allocation, payload once per neighbor);
          in ``on_message`` (id → payload map, capped pending queues)
MBD.2     ``_extract_send_path``: ECHO/READY paths certify the SEND
          (MD.1/2 applied to that derived content); the SEND itself
          leaves ``broadcast`` path-less and ``_plan_relay`` drops it
MBD.3/4   out ``_merge_groups``; in ``_process`` (two ``_receive`` calls)
MBD.5     out ``_finalize`` (field selection); in the ``sender`` /
          ``0`` defaults of ``_process`` and ``on_message``
MBD.6     ``_receive``: ECHO of a process whose READY is delivered
MBD.7     ``_receive``: ECHO after BRB-delivery
MBD.8     ``_relay_targets``: no ECHO to a neighbor whose READY is in
MBD.9     ``_relay_targets``: nothing to a neighbor that BRB-delivered
          (``_receive`` counts its empty-path READYs)
MBD.10    ``_plan_relay``: a dominated path is not relayed
MBD.11    ``_create_own_echo`` / ``_create_own_ready``: role check
MBD.12    ``_origination_targets``: 2f + 1 neighbors, role holders first
========  ============================================================

One behaviour is kept on purpose although the paper's MBD.3/4 only
describe merging a message this process *creates* with one it relays:
two *relayed* empty-path announcements of the same payload also merge
into an ECHO_ECHO (a sizeable share of the merged sends of a dense *all*
run).  The receiver then reads the embedded ECHO as having travelled
through the outer creator — conservative for safety, since a longer
path can only delay delivery, but it costs that content's MD.2
"neighbor has it" bit.  Changing it moves the message counts of *all*.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.events import Command, SendTo
from repro.core.messages import CrossLayerMessage, MessageType
from repro.core.modifications import ModificationSet
from repro.core.protocol import BroadcastProtocol
from repro.brb.optimized.state import BroadcastSlot, ContentRecord, PayloadRecord
from repro.paths.disjoint import DisjointPathVerifier

BroadcastKey = Tuple[int, int]

#: Upper bound on messages queued per (neighbor, unknown local id) (MBD.1).
_MAX_PENDING_PER_LOCAL_ID = 64

#: Upper bound on distinct unknown local ids queued per neighbor (MBD.1).
#: A correct neighbor has at most one id in flight per broadcast it is
#: still announcing; the cap is per sender, so a Byzantine neighbor
#: flooding fresh ids can only starve its own link.
_MAX_PENDING_LOCAL_IDS_PER_NEIGHBOR = 1024

#: Shared empty command list returned when a message produced nothing —
#: the common case.  Callers must treat returned command lists as
#: read-only unless they made them (see :meth:`on_message`).
_NO_COMMANDS: List["Command"] = []

#: Local aliases: enum attribute access goes through a descriptor on every
#: lookup, which the per-message paths below cannot afford.
_SEND = MessageType.SEND
_ECHO = MessageType.ECHO
_READY = MessageType.READY
_ECHO_ECHO = MessageType.ECHO_ECHO
_READY_ECHO = MessageType.READY_ECHO


class CrossLayerBrachaDolev(BroadcastProtocol):
    """Byzantine reliable broadcast on partially connected networks.

    Parameters
    ----------
    process_id, config, neighbors:
        See :class:`~repro.core.protocol.BroadcastProtocol`.
    modifications:
        The MD.1–5 / MBD.1–12 toggles.  Defaults to the paper's
        *lat. & bdw.* configuration (MD.1–5 + MBD.1/7/8/9).
    """

    __slots__ = (
        "mods",
        "_slots",
        "_neighbor_local_ids",
        "_pending_local",
        "_local_id_counter",
        "_groups",
        "_deliveries",
        "_can_merge",
        "_process_set",
        "_n",
        "_delivery_quorum",
        "_dpr",
        "_mbd6",
        "_mbd7",
        "_md4",
        "_md5",
        "_md2",
    )

    def __init__(
        self,
        process_id: int,
        config: SystemConfig,
        neighbors: Iterable[int],
        *,
        modifications: Optional[ModificationSet] = None,
    ) -> None:
        super().__init__(process_id, config, neighbors)
        config.require_bracha_resilience()
        self.mods = (
            modifications
            if modifications is not None
            else ModificationSet.latency_and_bandwidth_optimized()
        )
        self._slots: Dict[BroadcastKey, BroadcastSlot] = {}
        # MBD.1: mapping, per neighbor, from the neighbor's local payload id
        # to the ``(record, slot)`` pair it refers to, plus a queue of
        # messages received before the mapping was learnt.  The slot is
        # carried alongside the record instead of as a backref on the
        # record itself, keeping the protocol state acyclic so a finished
        # run is reclaimed by reference counting, not cyclic GC.
        self._neighbor_local_ids: Dict[int, Dict[int, tuple]] = {}
        self._pending_local: Dict[int, Dict[int, List[CrossLayerMessage]]] = {}
        self._local_id_counter = 0
        # Scratch group and delivery lists reused across _process calls
        # (cleared after use).  _process never re-enters itself and both
        # lists are fully consumed (or copied) before the call returns,
        # so reuse is safe and saves two allocations per received message.
        self._groups: List[tuple] = []
        self._deliveries: List[Command] = []
        # MBD.3/4: whether _finalize looks for groups to merge at all.
        self._can_merge = self.mods.mbd3_echo_echo or self.mods.mbd4_ready_echo
        # Hot-path aliases of config-derived values (immutable per run).
        self._process_set = config._process_set
        self._n = config.n
        self._delivery_quorum = config.delivery_quorum
        self._dpr = config.disjoint_paths_required
        # Suppression-rule flags read on every received message
        # (ModificationSet is frozen, so snapshotting them is safe).
        mods = self.mods
        self._mbd6 = mods.mbd6_ignore_echo_after_ready
        self._mbd7 = mods.mbd7_ignore_echo_after_delivery
        self._md4 = mods.md4_ignore_paths_with_delivered
        self._md5 = mods.md5_stop_after_delivery
        self._md2 = mods.md2_empty_path_after_delivery

    # ------------------------------------------------------------------
    # Public protocol interface
    # ------------------------------------------------------------------
    def broadcast(self, payload: bytes, bid: int = 0) -> List[Command]:
        slot = self._slot(self.process_id, bid)
        record = slot.payload_record(payload)
        groups: List[tuple] = []
        deliveries: List[Command] = []

        # The source's own SEND content is trivially Dolev-delivered.
        send_record = record.content(_SEND, self.process_id, self._dpr)
        if not send_record.delivered:
            send_record.delivered = True
            send_record.relayed_empty = True
            targets = self._origination_targets(slot, record, MessageType.SEND)
            path: Optional[Tuple[int, ...]] = None if self.mods.mbd2_single_hop_send else ()
            groups.append((targets, MessageType.SEND, self.process_id, record, path, None))
            # The source reacts to its own SEND (Algorithm 1 sends to Π,
            # which includes the sender itself) with its ECHO.
            self._create_own_echo(slot, record, groups, deliveries)
        return self._finalize(groups) + deliveries

    def on_message(self, sender: int, message: CrossLayerMessage) -> List[Command]:
        if type(message) is not CrossLayerMessage and not isinstance(
            message, CrossLayerMessage
        ):
            return []
        # Fast path — the bulk of a run's traffic after MBD.1 announcement:
        # a payload-free message whose local id is already mapped.  Direct
        # indexing with one KeyError handler beats the chained ``.get``
        # calls because the lookups almost always hit; an unknown sender,
        # an unmapped id and a ``None`` id all miss into the handler.
        if message.payload is None:
            local_id = message.local_payload_id
            try:
                record, slot = self._neighbor_local_ids[sender][local_id]
            except KeyError:
                if local_id is None:
                    # Neither payload nor local id: cannot be interpreted.
                    return []
                # MBD.1: queue it until the sender announces the id; both
                # the ids per neighbor and the messages per id are capped.
                pending = self._pending_local.setdefault(sender, {})
                queue = pending.get(local_id)
                if queue is None:
                    if len(pending) >= _MAX_PENDING_LOCAL_IDS_PER_NEIGHBOR:
                        return []
                    queue = pending[local_id] = []
                if len(queue) < _MAX_PENDING_PER_LOCAL_ID:
                    queue.append(message)
                return []
            return self._process(sender, message, record, slot)

        source = message.source if message.source is not None else sender
        bid = message.bid if message.bid is not None else 0
        if not self.config.is_process(source):
            return []
        slot = self._slot(source, bid)
        record = slot.payload_record(message.payload)
        if message.local_payload_id is None:
            return self._process(sender, message, record, slot)
        # MBD.1: learn the sender's local id mapping and unblock whatever
        # was queued on it.
        mapping = self._neighbor_local_ids.setdefault(sender, {})
        mapping.setdefault(message.local_payload_id, (record, slot))
        commands = self._process(sender, message, record, slot)
        pending = self._pending_local.get(sender)
        if pending and message.local_payload_id in pending:
            if commands is _NO_COMMANDS:
                # _process returns a shared empty list; never mutate it.
                commands = []
            for queued in pending.pop(message.local_payload_id):
                commands.extend(self._process(sender, queued, record, slot))
        return commands

    # ------------------------------------------------------------------
    # Message processing
    # ------------------------------------------------------------------
    def _process(
        self,
        sender: int,
        message: CrossLayerMessage,
        record: PayloadRecord,
        slot: BroadcastSlot,
    ) -> List[Command]:
        """Receive the content(s) of one wire message, then finalize once."""
        mtype = message.mtype
        wire_path = message.path or ()
        if mtype is _SEND:
            # A SEND is always created by the source of the broadcast.
            self._receive(sender, slot, record, _SEND, record.source, wire_path)
        else:
            creator = message.creator
            if creator is None:
                # MBD.5: an omitted creator is the authenticated link's sender.
                creator = sender
            if mtype is _ECHO or mtype is _READY:
                self._receive(sender, slot, record, mtype, creator, wire_path)
            else:
                # MBD.3/4: a merged message is its outer content plus an
                # ECHO that travelled through the outer content's creator.
                embedded = message.embedded_creator
                if embedded is None or not (mtype is _ECHO_ECHO or mtype is _READY_ECHO):
                    # A merged kind without its second creator, or no known type.
                    return _NO_COMMANDS
                kind = _READY if mtype is _READY_ECHO else _ECHO
                self._receive(sender, slot, record, kind, creator, wire_path)
                self._receive(
                    sender, slot, record, _ECHO, embedded, wire_path + (creator,)
                )
        # The scratch lists are cleared after use, so a suppressed message
        # (the majority) leaves them untouched.
        groups = self._groups
        deliveries = self._deliveries
        if groups:
            commands = self._finalize(groups)
            commands.extend(deliveries)
        elif deliveries:
            commands = list(deliveries)
        else:
            return _NO_COMMANDS
        groups.clear()
        deliveries.clear()
        return commands

    def _receive(
        self,
        sender: int,
        slot: BroadcastSlot,
        record: PayloadRecord,
        kind: MessageType,
        creator: int,
        wire_path: Tuple[int, ...],
    ) -> None:
        """Reception of the content ``(kind, creator)`` over ``wire_path``.

        The one reception path: validation, the suppression rules (which
        stop the vast majority of received messages), path accounting,
        Dolev relay and Bracha transitions.  Relay groups and deliveries
        accumulate in the scratch lists :meth:`_process` finalizes.
        """
        process_set = self._process_set
        if creator not in process_set or (
            wire_path
            and (len(wire_path) > self._n or not process_set.issuperset(wire_path))
        ):
            # Forged creator, or a path of unknown processes or absurd length.
            return
        # MBD.9 bookkeeping: READYs received with an empty path.
        if kind is _READY and not wire_path:
            seen = record.neighbor_empty_readys.get(sender)
            if seen is None:
                seen = record.neighbor_empty_readys[sender] = set()
            seen.add(creator)
            if len(seen) >= self._delivery_quorum:
                slot.neighbors_bd_delivered.add(sender)
        ckey = (kind, creator)
        content = record.contents.get(ckey)
        if content is None:
            content = ContentRecord(verifier=DisjointPathVerifier(self._dpr))
            record.contents[ckey] = content
        if not wire_path:
            # MD.2: the sender created the content or relayed it after
            # delivering; either way it has the content.
            content.neighbors_delivered.add(sender)
        if kind is _ECHO and (
            # MBD.6: ignore ECHOs of a process whose READY has been delivered.
            (self._mbd6 and creator in record.delivered_ready_creators)
            # MBD.7: ignore ECHOs once the broadcast has been BRB-delivered.
            or (self._mbd7 and slot.delivered)
        ):
            return
        # MD.4: ignore paths that contain a neighbor that already delivered.
        if (
            wire_path
            and self._md4
            and not content.neighbors_delivered.isdisjoint(wire_path)
        ):
            return
        # MD.5: stop relaying a content once delivered and announced (or
        # right after delivery when MD.2's empty-path relay is disabled).
        if (
            content.delivered
            and self._md5
            and (content.relayed_empty or not self._md2)
        ):
            return

        mods = self.mods
        groups = self._groups
        deliveries = self._deliveries
        # Node mask of the intermediaries: sender and wire path, without
        # the creator and this process (every id was validated above).
        direct = not wire_path and sender == creator
        intermediaries = 1 << sender
        for hop in wire_path:
            intermediaries |= 1 << hop
        intermediaries &= ~(1 << creator | 1 << self.process_id)

        result = content.verifier.add_path(intermediaries)
        newly_delivered = False
        if not content.delivered:
            # MD.1: a content received directly from its creator is delivered.
            if (direct and mods.md1_deliver_from_source) or result.newly_satisfied:
                newly_delivered = True
                content.delivered = True
                if kind is _READY:
                    record.delivered_ready_creators.add(creator)
                # MD.2: a delivered content's paths are no longer needed.
                if self._md2:
                    content.verifier.discard_paths()

        # MBD.2: any ECHO/READY also certifies a path for the SEND content,
        # because in BDopt the relayed (empty-path) SEND would have travelled
        # along the same route as the creator's ECHO.
        send_newly_delivered = False
        if mods.mbd2_single_hop_send and kind is not _SEND:
            send_newly_delivered = self._extract_send_path(
                record, creator, intermediaries, direct
            )

        # Plan the Dolev relay of this content.
        self._plan_relay(
            sender,
            slot,
            record,
            kind,
            creator,
            wire_path,
            content,
            result.stored,
            newly_delivered,
            direct,
            groups,
        )

        # Bracha phase transitions: a delivered SEND is answered by this
        # process's ECHO, ECHOs and READYs are counted towards the quorums.
        if send_newly_delivered:
            self._create_own_echo(slot, record, groups, deliveries)
        if newly_delivered:
            if kind is _SEND:
                self._create_own_echo(slot, record, groups, deliveries)
            elif kind is _ECHO:
                self._bracha_on_echo(slot, record, creator, groups, deliveries)
            elif kind is _READY:
                self._bracha_on_ready(slot, record, creator, groups, deliveries)

    def _extract_send_path(
        self,
        record: PayloadRecord,
        creator: int,
        intermediaries: int,
        direct: bool,
    ) -> bool:
        """MBD.2: feed an extracted SEND path and report new delivery."""
        send_record = record.content(_SEND, record.source, self._dpr)
        if send_record.delivered:
            return False
        if creator == record.source:
            extracted = intermediaries
            extracted_direct = direct
        else:
            extracted = intermediaries | 1 << creator
            extracted_direct = False
        result = send_record.verifier.add_path(extracted)
        newly = result.newly_satisfied or (
            extracted_direct and self.mods.md1_deliver_from_source
        )
        if newly:
            send_record.delivered = True
            if self.mods.md2_empty_path_after_delivery:
                send_record.verifier.discard_paths()
        return newly

    # ------------------------------------------------------------------
    # Dolev relaying
    # ------------------------------------------------------------------
    def _plan_relay(
        self,
        sender: int,
        slot: BroadcastSlot,
        record: PayloadRecord,
        kind: MessageType,
        creator: int,
        wire_path: Tuple[int, ...],
        content,
        path_stored: bool,
        newly_delivered: bool,
        direct: bool,
        groups: List[tuple],
    ) -> None:
        # MBD.2: SEND messages are single-hop and are never relayed.
        if kind is _SEND and self.mods.mbd2_single_hop_send:
            return

        if newly_delivered and self.mods.md2_empty_path_after_delivery:
            # MD.2: announce the delivery once, with an empty path.  The
            # original sender is *not* excluded from the announcement.
            relay_path: Tuple[int, ...] = ()
            content.relayed_empty = True
            targets = self._relay_targets(
                slot, record, kind, creator, content.neighbors_delivered, (), None
            )
        else:
            # MBD.10: a dominated path adds no information — do not relay it.
            if (
                self.mods.mbd10_ignore_superpaths
                and not path_stored
                and not direct
                and not newly_delivered
            ):
                return
            relay_path = wire_path + (sender,)
            targets = self._relay_targets(
                slot, record, kind, creator, content.neighbors_delivered, wire_path, sender
            )
        if targets:
            groups.append((targets, kind, creator, record, relay_path, None))

    def _relay_targets(
        self,
        slot: BroadcastSlot,
        record: PayloadRecord,
        kind: MessageType,
        creator: int,
        have_content: Iterable[int],
        wire_path: Tuple[int, ...],
        sender: Optional[int],
    ) -> List[int]:
        """Neighbors a content goes to: everyone it could still be news to.

        Allocation-free: instead of building the union of the exclusion
        sets per relay, each candidate neighbor is checked against the
        (C-level) memberships directly.
        """
        mods = self.mods
        pid = self.process_id
        # MD.3: skip neighbors known to have the content (empty-path senders).
        nd = have_content if mods.md3_skip_delivered_neighbors else ()
        # MBD.9: skip neighbors known to have BRB-delivered the broadcast.
        bd = slot.neighbors_bd_delivered if mods.mbd9_skip_delivered_neighbors else ()
        # MBD.8: skip ECHOs to neighbors whose READY has been delivered.
        rd = (
            record.delivered_ready_creators
            if kind is _ECHO and mods.mbd8_skip_echo_to_ready_neighbors
            else ()
        )
        return [
            q
            for q in self.neighbors
            if q != creator
            and q != pid
            and q != sender
            and q not in wire_path
            and q not in nd
            and q not in bd
            and q not in rd
        ]

    def _origination_targets(
        self, slot: BroadcastSlot, record: PayloadRecord, kind: MessageType
    ) -> List[int]:
        """Neighbors a message this process creates goes to (MBD.8/9, MBD.12)."""
        targets = self._relay_targets(slot, record, kind, self.process_id, (), (), None)
        # MBD.12: a created message goes to 2f + 1 neighbors only — with
        # MBD.11 those that hold a role for this source first.
        limit = self.config.delivery_quorum
        if self.mods.mbd12_reduced_fanout and len(targets) > limit:
            if self.mods.mbd11_role_restriction:
                source = record.source
                roles = self.config.echo_generators(source) | self.config.ready_generators(source)
                targets.sort(key=lambda q: q not in roles)  # stable: neighbor order kept
            del targets[limit:]
        return targets

    # ------------------------------------------------------------------
    # Bracha phase transitions
    # ------------------------------------------------------------------
    def _bracha_on_echo(
        self,
        slot: BroadcastSlot,
        record: PayloadRecord,
        creator: int,
        groups: List[tuple],
        deliveries: List[Command],
    ) -> None:
        if creator in record.echo_creators:
            return
        record.echo_creators.add(creator)
        echo_count = len(record.echo_creators)
        wants_ready = (
            not slot.sent_ready and echo_count >= self.config.echo_quorum
        )
        wants_echo = (
            not slot.sent_echo
            and echo_count >= self.config.echo_amplification_threshold
        )
        # When both an ECHO and a READY become possible, only the READY is
        # sent (Sec. 6.2).
        if wants_ready:
            self._create_own_ready(slot, record, groups, deliveries)
        elif wants_echo:
            self._create_own_echo(slot, record, groups, deliveries)

    def _bracha_on_ready(
        self,
        slot: BroadcastSlot,
        record: PayloadRecord,
        creator: int,
        groups: List[tuple],
        deliveries: List[Command],
    ) -> None:
        if creator not in record.ready_creators:
            record.ready_creators.add(creator)
            # A READY implies its creator's ECHO (Sec. 6.2).
            self._bracha_on_echo(slot, record, creator, groups, deliveries)
        ready_count = len(record.ready_creators)
        if (
            not slot.sent_ready
            and ready_count >= self.config.ready_amplification_threshold
        ):
            self._create_own_ready(slot, record, groups, deliveries)
        if not slot.delivered and ready_count >= self.config.delivery_quorum:
            slot.delivered = True
            deliveries.append(
                self._record_delivery(record.source, record.bid, record.payload)
            )

    def _create_own_echo(
        self,
        slot: BroadcastSlot,
        record: PayloadRecord,
        groups: List[tuple],
        deliveries: List[Command],
    ) -> None:
        if slot.sent_echo:
            return
        if (
            self.mods.mbd11_role_restriction
            and self.process_id not in self.config.echo_generators(record.source)
        ):
            return
        slot.sent_echo = True
        content = record.content(_ECHO, self.process_id, self._dpr)
        content.delivered = True
        content.relayed_empty = True
        targets = self._origination_targets(slot, record, MessageType.ECHO)
        groups.append((targets, MessageType.ECHO, self.process_id, record, (), None))
        self._bracha_on_echo(slot, record, self.process_id, groups, deliveries)

    def _create_own_ready(
        self,
        slot: BroadcastSlot,
        record: PayloadRecord,
        groups: List[tuple],
        deliveries: List[Command],
    ) -> None:
        if slot.sent_ready:
            return
        if (
            self.mods.mbd11_role_restriction
            and self.process_id not in self.config.ready_generators(record.source)
        ):
            return
        slot.sent_ready = True
        # The READY subsumes this process's ECHO (Sec. 6.2): do not send a
        # separate ECHO afterwards.
        slot.sent_echo = True
        content = record.content(_READY, self.process_id, self._dpr)
        content.delivered = True
        content.relayed_empty = True
        record.delivered_ready_creators.add(self.process_id)
        targets = self._origination_targets(slot, record, MessageType.READY)
        groups.append((targets, MessageType.READY, self.process_id, record, (), None))
        self._bracha_on_ready(slot, record, self.process_id, groups, deliveries)

    # ------------------------------------------------------------------
    # Wire construction, MBD.3/4 merging and MBD.1/5 field selection
    # ------------------------------------------------------------------
    def _finalize(self, groups: List[tuple]) -> List[Command]:
        """Turn fan-out groups into send commands — the one wire builder.

        A group is ``(dests, kind, creator, record, path, embedded_creator)``
        and yields at most two wire variants (payload announcement vs.
        local id only), each built or fetched from the record's cache once
        and shared by every destination it is byte-identical for.
        """
        if self._can_merge and len(groups) > 1:
            groups = self._merge_groups(groups)
        commands: List[Command] = []
        mods = self.mods
        mbd1 = mods.mbd1_local_payload_ids
        mbd5 = mods.mbd5_optional_fields
        pid = self.process_id
        for dests, kind, creator, record, path, embedded in groups:
            if not dests:
                continue
            local_id = None
            if mbd1:
                # MBD.1: this process's local id of the payload, allocated
                # on first use.
                local_id = record.my_local_id
                if local_id is None:
                    local_id = record.my_local_id = self._local_id_counter
                    self._local_id_counter += 1
            if embedded is not None:
                mtype = _READY_ECHO if kind is _READY else _ECHO_ECHO
                creator_field = creator
            else:
                mtype = kind
                # MBD.5: SENDs never carry a creator; a newly created
                # message's creator is implied by the authenticated link
                # (Sec. 6.3).
                if kind is _SEND or (mbd5 and creator == pid and path == ()):
                    creator_field = None
                else:
                    creator_field = creator
            wire_cache = record.wire_cache
            announced = record.announced_to
            variants = [None, None]  # payload-carrying, bare
            for dest in dests:
                # MBD.1: the payload goes to each neighbor once, with the
                # local id that stands for it afterwards.
                bare = mbd1 and dest in announced
                wire = variants[bare]
                if wire is None:
                    # The key omits what is constant per record (payload,
                    # local id) or a function of the rest (source, bid).
                    key = (mtype, creator_field, embedded, not bare, path)
                    wire = wire_cache.get(key)
                    if wire is None:
                        # MBD.5: no source/bid next to a local id, and no
                        # source on a single-hop SEND (the link names it).
                        linked = kind is _SEND and mods.mbd2_single_hop_send
                        wire = wire_cache[key] = CrossLayerMessage(
                            mtype=mtype,
                            source=None if mbd5 and (bare or linked) else record.source,
                            bid=None if mbd5 and bare else record.bid,
                            creator=creator_field,
                            embedded_creator=embedded,
                            payload=None if bare else record.payload,
                            local_payload_id=local_id,
                            path=path,
                        )
                    variants[bare] = wire
                if mbd1 and not bare:
                    announced.add(dest)
                commands.append(SendTo(dest, wire))
        return commands

    def _merge_groups(self, groups: List[tuple]) -> List[tuple]:
        """MBD.3/4: merge, per destination, two contents that go out together.

        A destination of group *i* is paired with the first later group
        that still targets it with the same payload record and path and a
        compatible kind — READY + ECHO (MBD.4) or two ECHOs of different
        creators (MBD.3); SENDs never merge.  The merged message goes out
        in the earlier group's place and the later group loses that
        destination, so group *i* splits into runs of consecutive
        destinations that share one outcome.
        """
        mods = self.mods
        mbd3 = mods.mbd3_echo_echo
        mbd4 = mods.mbd4_ready_echo
        pid = self.process_id
        merged: List[tuple] = []
        for index, group in enumerate(groups):
            dests, kind, creator, record, path, _ = group
            # Later groups this one can pair with, each with the
            # (kind, creator, embedded creator) of the merged message.
            partners = []
            for later in groups[index + 1 :]:
                later_dests, later_kind, later_creator, later_record, later_path, _ = later
                if kind is _SEND or later_kind is _SEND:
                    continue
                if later_record is not record or later_path != path:
                    continue
                if kind is _READY or later_kind is _READY:
                    if kind is later_kind or not mbd4:
                        continue
                    # READY_ECHO: the READY is the outer content.
                    first_is_outer = kind is _READY
                else:
                    if not mbd3 or creator == later_creator:
                        continue
                    # ECHO_ECHO: this process's own (newly created) ECHO is
                    # the outer content, as MBD.3 defines it; of two relayed
                    # ECHOs (see the module docstring) the later one.
                    first_is_outer = creator == pid
                if first_is_outer:
                    partners.append((later_dests, (kind, creator, later_creator)))
                else:
                    partners.append((later_dests, (later_kind, later_creator, creator)))
            if not partners:
                merged.append(group)
                continue
            plain = (kind, creator, None)
            current = run = None
            for dest in dests:
                for later_dests, outcome in partners:
                    if dest in later_dests:
                        later_dests.remove(dest)
                        break
                else:
                    outcome = plain
                if outcome is not current:
                    current = outcome
                    run = []
                    merged.append((run, outcome[0], outcome[1], record, path, outcome[2]))
                run.append(dest)
        return merged

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _slot(self, source: int, bid: int) -> BroadcastSlot:
        slot = self._slots.get((source, bid))
        if slot is None:
            slot = BroadcastSlot(source=source, bid=bid)
            self._slots[(source, bid)] = slot
        return slot

    def state_size_estimate(self) -> int:
        """Stored paths, combinations and quorum entries (memory proxy)."""
        slots = sum(slot.state_size_estimate() for slot in self._slots.values())
        pending = sum(
            len(queue)
            for queues in self._pending_local.values()
            for queue in queues.values()
        )
        mappings = sum(len(m) for m in self._neighbor_local_ids.values())
        return slots + pending + mappings


__all__ = ["CrossLayerBrachaDolev"]
