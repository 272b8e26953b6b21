"""Wire messages of the Bracha, Dolev and cross-layer Bracha-Dolev protocols.

Three message families are defined:

* :class:`BrachaMessage` — the SEND / ECHO / READY messages of Bracha's
  protocol (Algorithm 1).  On a fully connected network they are sent
  directly over authenticated links; in the layered Bracha-Dolev
  combination they travel as the content of a :class:`DolevMessage`.
* :class:`DolevMessage` — a Bracha message plus the path of process
  identifiers it has traversed (Algorithm 2).
* :class:`CrossLayerMessage` — the message format of the paper's
  cross-layer combination (Sec. 5 and 6), with optional fields so that the
  wire cost of MBD.1 (local payload identifiers) and MBD.5 (optional
  fields) can be accounted for precisely, and with the merged
  ECHO_ECHO / READY_ECHO types introduced by MBD.3 and MBD.4.

Every message exposes ``wire_size(sizes)`` returning the number of bytes
the message occupies on a link, computed from the per-field sizes of
Table 3 (:class:`repro.core.sizes.FieldSizes`).

Messages are values: they compare and hash by their fields, and no code
writes a field after construction.  :class:`BrachaMessage` (a dict key
with a hash memo, built once per broadcast and role) enforces that as a
frozen dataclass.  :class:`DolevMessage` and :class:`CrossLayerMessage`
are built once per fan-out or per decoded frame, where a frozen
constructor's ``object.__setattr__`` per field costs two to four times a
plain slot store, so they are plain slotted dataclasses with
``unsafe_hash=True``: immutable by convention, which
``tests/unit/test_wire_values.py`` pins by running whole cells with every
second field write turned into an error.  The one field written later is
``CrossLayerMessage._size_memo``, a cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.core.sizes import FieldSizes, PAPER_FIELD_SIZES


class MessageType(enum.IntEnum):
    """Type tag of a protocol message."""

    SEND = 1
    ECHO = 2
    READY = 3
    ECHO_ECHO = 4
    READY_ECHO = 5

    @property
    def is_merged(self) -> bool:
        """True for the merged message types introduced by MBD.3 / MBD.4."""
        return self in (MessageType.ECHO_ECHO, MessageType.READY_ECHO)


Path = Tuple[int, ...]


@dataclass(frozen=True, slots=True)
class BrachaMessage:
    """A SEND, ECHO or READY message of Bracha's protocol.

    Parameters
    ----------
    mtype:
        One of ``SEND``, ``ECHO`` or ``READY``.
    source:
        Identifier of the process that initiated the broadcast.
    bid:
        Broadcast identifier chosen by the source (repeatable broadcasts).
    payload:
        The application payload data.
    creator:
        Identifier of the process that created this ECHO/READY.  ``None``
        on a fully connected network where the authenticated link already
        identifies the creator; required when the message is disseminated
        through Dolev's protocol with MD.1–5 enabled (Sec. 5).
    """

    mtype: MessageType
    source: int
    bid: int
    payload: bytes
    creator: Optional[int] = None
    #: Lazily memoized :meth:`__hash__` (a disseminated content is looked up
    #: once per reception).  Like ``CrossLayerMessage._size_memo`` it is not a
    #: compared, shown or ``__init__`` field, so ``replace`` copies start fresh;
    #: unlike it, it must never leave the process — ``bytes`` hashes are salted.
    _hash_memo: Optional[int] = field(default=None, compare=False, repr=False, init=False)

    def __hash__(self) -> int:
        memo = self._hash_memo
        if memo is None:
            memo = hash((self.mtype, self.source, self.bid, self.payload, self.creator))
            object.__setattr__(self, "_hash_memo", memo)
        return memo

    def __reduce__(self):
        # The slots default would pickle every field, the memo included.
        return type(self), (self.mtype, self.source, self.bid, self.payload, self.creator)

    def wire_size(self, sizes: FieldSizes = PAPER_FIELD_SIZES) -> int:
        """Number of bytes this message occupies on a link."""
        total = sizes.mtype + sizes.source + sizes.bid
        total += sizes.payload_size + len(self.payload)
        if self.creator is not None:
            total += sizes.creator_id
        return total

    @property
    def broadcast_id(self) -> Tuple[int, int]:
        """The ``(source, bid)`` pair identifying the broadcast."""
        return (self.source, self.bid)

    def with_creator(self, creator: int) -> "BrachaMessage":
        """Return a copy of this message tagged with its creator."""
        return replace(self, creator=creator)


@dataclass(slots=True, unsafe_hash=True)
class DolevMessage:
    """A Bracha message and the path of intermediary processes it traversed.

    The content is always a :class:`BrachaMessage`: the SEND, ECHO or
    READY of the layered Bracha-Dolev combination, or the SEND that plain
    Dolev (:class:`repro.brb.dolev.DolevBroadcast`) floods, whose
    ``source`` and ``bid`` identify the broadcast.  The path lists the
    identifiers of the processes the content has been relayed through,
    excluding the creator of the content and the receiving process.
    """

    content: BrachaMessage
    path: Path = ()

    def wire_size(self, sizes: FieldSizes = PAPER_FIELD_SIZES) -> int:
        """Number of bytes this message occupies on a link."""
        return self.content.wire_size(sizes) + sizes.path_cost(len(self.path))

    def extended(self, relay: int) -> "DolevMessage":
        """Return a copy with ``relay`` appended to the path."""
        return DolevMessage(content=self.content, path=self.path + (relay,))

    def with_empty_path(self) -> "DolevMessage":
        """Return a copy carrying an empty path (MD.2)."""
        if not self.path:
            return self
        return DolevMessage(content=self.content, path=())


@dataclass(slots=True, unsafe_hash=True)
class CrossLayerMessage:
    """A message of the cross-layer Bracha-Dolev protocol (Sec. 5–6).

    Every field except ``mtype`` is optional; a field set to ``None`` is
    not transmitted and therefore costs no bytes.  The protocol decides
    which fields to include based on the enabled modifications:

    * MBD.1 — once a neighbor knows the payload, later messages carry only
      ``local_payload_id`` instead of ``source``/``bid``/``payload``.
    * MBD.2 — SEND messages are single-hop and carry no ``path``.
    * MBD.3 / MBD.4 — ECHO_ECHO / READY_ECHO messages carry two creator
      identifiers (``creator`` and ``embedded_creator``).
    * MBD.5 — newly created ECHO/READY messages omit the ``creator`` field
      because the authenticated link identifies the sender.
    """

    mtype: MessageType
    source: Optional[int] = None
    bid: Optional[int] = None
    creator: Optional[int] = None
    embedded_creator: Optional[int] = None
    payload: Optional[bytes] = None
    local_payload_id: Optional[int] = None
    path: Optional[Path] = None
    #: Lazily memoized :meth:`wire_size` under the paper's field sizes —
    #: wire messages are interned and re-sent many times, so the size is
    #: computed once per object.  Excluded from equality, hashing, repr
    #: and ``__init__`` (so :func:`dataclasses.replace` copies start with
    #: a fresh memo); the wire encoding never reads it.
    _size_memo: Optional[int] = field(
        default=None, compare=False, repr=False, init=False
    )

    def wire_size(self, sizes: FieldSizes = PAPER_FIELD_SIZES) -> int:
        """Number of bytes this message occupies on a link."""
        if sizes is PAPER_FIELD_SIZES:
            memo = self._size_memo
            if memo is not None:
                return memo
        total = sizes.mtype
        if self.source is not None:
            total += sizes.source
        if self.bid is not None:
            total += sizes.bid
        if self.creator is not None:
            total += sizes.creator_id
        if self.embedded_creator is not None:
            total += sizes.embedded_creator_id
        if self.payload is not None:
            total += sizes.payload_size + len(self.payload)
        if self.local_payload_id is not None:
            total += sizes.local_payload_id
        if self.path is not None:
            total += sizes.path_cost(len(self.path))
        if sizes is PAPER_FIELD_SIZES:
            self._size_memo = total
        return total

    # ------------------------------------------------------------------
    # Convenience accessors used by the protocol implementation
    # ------------------------------------------------------------------
    @property
    def has_payload(self) -> bool:
        """True when the message carries the payload data inline."""
        return self.payload is not None

    @property
    def effective_path(self) -> Path:
        """The carried path, treating an absent path as empty."""
        return self.path if self.path is not None else ()

    def with_fields(self, **changes) -> "CrossLayerMessage":
        """Return a copy of the message with the given fields replaced."""
        return replace(self, **changes)


__all__ = [
    "MessageType",
    "Path",
    "BrachaMessage",
    "DolevMessage",
    "CrossLayerMessage",
]
