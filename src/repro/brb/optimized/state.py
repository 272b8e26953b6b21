"""State kept by the cross-layer Bracha-Dolev protocol.

The protocol tracks three levels of state:

* one :class:`BroadcastSlot` per ``(source, bid)`` pair — the Bracha-level
  flags (``sent_echo`` / ``sent_ready`` / ``delivered``) that a correct
  process sets at most once per broadcast identifier;
* one :class:`PayloadRecord` per distinct payload observed for a slot —
  quorum bookkeeping is per payload value so that an equivocating
  Byzantine source cannot split correct processes (BRB-Agreement);
* one :class:`ContentRecord` per Dolev *content* — a (SEND/ECHO/READY,
  creator) pair of a payload — holding the disjoint-path verifier and the
  per-content dissemination flags of MD.1–5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.messages import MessageType
from repro.paths.disjoint import DisjointPathVerifier

#: Identifies a Dolev content within a payload: (kind, creator).
ContentKey = Tuple[MessageType, int]


@dataclass(slots=True)
class ContentRecord:
    """Dissemination state of one (kind, creator) content of a payload."""

    verifier: DisjointPathVerifier
    delivered: bool = False
    relayed_empty: bool = False
    #: Neighbors that sent an empty path for this content (they have it).
    neighbors_delivered: Set[int] = field(default_factory=set)

    def state_size_estimate(self) -> int:
        return self.verifier.state_size_estimate() + len(self.neighbors_delivered)


@dataclass(slots=True)
class PayloadRecord:
    """Per-payload quorum and dissemination bookkeeping."""

    source: int
    bid: int
    payload: bytes
    #: Dolev contents of this payload, keyed by (kind, creator).
    contents: Dict[ContentKey, ContentRecord] = field(default_factory=dict)
    #: Creators whose ECHO has been Dolev-delivered (or implied by a READY).
    echo_creators: Set[int] = field(default_factory=set)
    #: Creators whose READY has been Dolev-delivered.
    ready_creators: Set[int] = field(default_factory=set)
    #: Local identifier chosen by this process for the payload (MBD.1).
    my_local_id: Optional[int] = None
    #: Neighbors that have been sent the payload together with our local id.
    announced_to: Set[int] = field(default_factory=set)
    #: Per neighbor, the READY creators received with an empty path (MBD.9).
    neighbor_empty_readys: Dict[int, Set[int]] = field(default_factory=dict)
    #: Creators whose READY *content* is Dolev-delivered, maintained
    #: incrementally as contents transition to delivered.  MBD.8 consults
    #: this on every ECHO relay instead of probing the contents dict per
    #: neighbor.
    delivered_ready_creators: Set[int] = field(default_factory=set)
    #: Interned wire messages, keyed by every field that varies between
    #: them (the payload bytes are fixed per record).  A fan-out of the
    #: same content to many neighbors reuses one frozen message object.
    wire_cache: Dict[Tuple, object] = field(default_factory=dict)

    def content(self, kind: MessageType, creator: int, required_paths: int) -> ContentRecord:
        """Get or create the content record for ``(kind, creator)``."""
        record = self.contents.get((kind, creator))
        if record is None:
            record = ContentRecord(verifier=DisjointPathVerifier(required_paths))
            self.contents[(kind, creator)] = record
        return record

    def state_size_estimate(self) -> int:
        contents = sum(record.state_size_estimate() for record in self.contents.values())
        quorums = len(self.echo_creators) + len(self.ready_creators)
        empties = sum(len(creators) for creators in self.neighbor_empty_readys.values())
        return contents + quorums + empties


@dataclass(slots=True)
class BroadcastSlot:
    """Per ``(source, bid)`` Bracha flags shared by all payload values."""

    source: int
    bid: int
    sent_echo: bool = False
    sent_ready: bool = False
    delivered: bool = False
    #: Payload records keyed by the payload bytes.
    payloads: Dict[bytes, PayloadRecord] = field(default_factory=dict)
    #: Neighbors that Bracha-delivered this broadcast (MBD.9).
    neighbors_bd_delivered: Set[int] = field(default_factory=set)

    def payload_record(self, payload: bytes) -> PayloadRecord:
        """Get or create the record of one payload value."""
        record = self.payloads.get(payload)
        if record is None:
            # No backref to the slot: the protocol carries the slot
            # alongside the record wherever both are needed, keeping the
            # record graph acyclic (reclaimable by reference counting).
            record = PayloadRecord(source=self.source, bid=self.bid, payload=payload)
            self.payloads[payload] = record
        return record

    def state_size_estimate(self) -> int:
        return sum(record.state_size_estimate() for record in self.payloads.values())


__all__ = [
    "ContentKey",
    "ContentRecord",
    "PayloadRecord",
    "BroadcastSlot",
]
