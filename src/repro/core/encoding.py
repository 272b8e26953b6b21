"""Compact binary codec for the protocol messages.

The asyncio runtime (and the codec round-trip tests) use this module to
serialize messages to bytes and back.  The encoding mirrors the field
layout of Table 3: a one-byte message-kind tag, a one-byte type, a
one-byte presence bitmask for optional fields (a creator flag for the
Bracha kinds), then the present fields using fixed-width big-endian
integers.  The encoding is self-describing enough to decode without
knowing which modifications the emitting protocol had enabled.

Both directions follow *layouts*, built once per presence mask on first
use.  A cross-layer presence mask selects one of 128: a
:class:`struct.Struct` for the run of fixed-width fields in front of the
payload (all of them, when there is no payload), one for the run behind
it, and the positions that map the unpacked values back onto the
message's fields.  The path count closes the last run, and a path of
``n`` hops is one ``>{n}I`` struct, memoized for
:data:`HOP_STRUCTS_CACHED` hop counts at most — a hostile peer chooses
``n``.  So a message is packed with one call per run and unpacked with
one call per run, without a helper per field.

:func:`decode_from` reads one message in place, between two offsets of
a larger buffer: the asyncio runtime decodes every frame straight from a
connection's read buffer, where the bytes past a frame's end belong to
the next frame, so every bound is checked against that end.  Decoding is
canonical: every input :func:`encode_message` cannot have produced — a
short or long body, an unknown kind or type, a mask bit no field has, a
creator flag other than 0 or 1 — raises :class:`EncodingError`, so a
decoded message re-encodes to the very bytes it came from.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Optional, Union

from repro.core.errors import EncodingError
from repro.core.messages import (
    BrachaMessage,
    CrossLayerMessage,
    DolevMessage,
    MessageType,
)

_KIND_BRACHA = 1
# Kind 2, a Dolev envelope of raw bytes, is retired: it decodes to EncodingError.
_KIND_DOLEV_BRACHA = 3
_KIND_CROSS_LAYER = 4

_U16 = struct.Struct(">H")

# Type byte -> member (``None``: no such type), in place of the (much
# slower) ``MessageType(byte)``.
_MESSAGE_TYPES = tuple(
    MessageType(byte) if byte in MessageType._value2member_map_ else None
    for byte in range(256)
)

AnyMessage = Union[BrachaMessage, DolevMessage, CrossLayerMessage]

#: Bound of the memo of per-hop-count path structs.
HOP_STRUCTS_CACHED = 128


@lru_cache(maxsize=HOP_STRUCTS_CACHED)
def _hops(count: int) -> struct.Struct:
    """The struct of a path of ``count`` u32 hop identifiers."""
    return struct.Struct(f">{count}I")


def _bounds_error(stop: int, end: int) -> EncodingError:
    if stop > end:
        return EncodingError(f"truncated message: needs {stop} bytes, has {end}")
    return EncodingError(f"trailing bytes after message: consumed {stop} of {end}")


def _header_error(data, start: int, end: int) -> EncodingError:
    """Why ``data[start:end]`` does not open with a kind, a type and a flag byte."""
    if start >= end:
        return EncodingError("empty buffer")
    kind = data[start]
    if kind not in (_KIND_BRACHA, _KIND_DOLEV_BRACHA, _KIND_CROSS_LAYER):
        return EncodingError(f"unknown message kind tag: {kind}")
    if end - start < 3:
        return EncodingError("truncated message: no type and mask/creator bytes")
    return EncodingError(f"unknown message type byte: {data[start + 1]}")


# ----------------------------------------------------------------------
# Layouts
# ----------------------------------------------------------------------
# Every body opens with kind, type and mask (or creator flag); the head
# runs that unpack what follows skip those three bytes ("3x").
_HEADER = struct.Struct(">BBB").unpack_from

# Bracha body behind the header: source, bid, [creator], payload length —
# then the payload, then (kind 3) the path count and hops.
_BRACHA_HEADS = (struct.Struct(">3xIII"), struct.Struct(">3xIIII"))
_BRACHA_PACKS = (struct.Struct(">BBBIII"), struct.Struct(">BBBIIII"))

# Cross-layer fields in wire order, one presence bit each (bit i = field i).
_CL_FIELD_NAMES = (
    "source",
    "bid",
    "creator",
    "embedded_creator",
    "payload",
    "local_payload_id",
    "path",
)
_CL_FIELDS = attrgetter(*_CL_FIELD_NAMES)
_CL_PAYLOAD = 4
_CL_PATH = 6


def _picker(indices):
    """``itemgetter(*indices)`` that returns a tuple for any number of indices."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    if indices:
        return lambda values, index=indices[0]: (values[index],)
    return lambda values: ()


class _Layout:
    """How one cross-layer presence mask is laid out on the wire.

    The fixed-width fields travel in at most two runs, split by the
    payload: the *head* run (every field when there is no payload) and
    the *tail* run behind the payload.  A payload is announced by its u32
    length, closing the head run, and a path by its u16 hop count,
    closing the last run.

    Encoding takes the *wire values* ``(kind, type, mask, source, bid,
    creator, embedded creator, payload length, local id, hop count)``:
    ``in_head`` / ``in_tail`` pick each run's share, which
    ``pack_head`` / ``pack_tail`` pack (the head behind kind, type and
    mask).  Decoding unpacks the runs with ``unpack_head`` (from the
    start of the body, skipping its header) and ``unpack_tail`` (``None``
    without a payload), and ``fields`` picks the seven message fields
    out of ``head + tail + (payload, path, None)``.
    """

    __slots__ = (
        "in_head",
        "in_tail",
        "pack_head",
        "pack_tail",
        "unpack_head",
        "unpack_tail",
        "head_size",
        "tail_size",
        "fields",
    )

    def __init__(self, mask: int) -> None:
        present = [index for index in range(len(_CL_FIELD_NAMES)) if mask >> index & 1]
        if _CL_PAYLOAD in present:
            split = present.index(_CL_PAYLOAD) + 1
        else:
            split = len(present)
        head, tail = present[:split], present[split:]
        # A path travels as a u16 count, every other field as a u32.
        codes = {index: "H" if index == _CL_PATH else "I" for index in present}
        head_codes = "".join(codes[index] for index in head)
        tail_codes = "".join(codes[index] for index in tail)
        self.in_head = _picker((0, 1, 2) + tuple(3 + index for index in head))
        self.pack_head = struct.Struct(">BBB" + head_codes).pack
        run = struct.Struct(">3x" + head_codes)
        self.unpack_head, self.head_size = run.unpack_from, run.size
        if _CL_PAYLOAD in present:
            run = struct.Struct(">" + tail_codes)
            self.in_tail = _picker(tuple(3 + index for index in tail))
            self.pack_tail = run.pack
            self.unpack_tail, self.tail_size = run.unpack_from, run.size
        else:
            self.in_tail = self.pack_tail = self.unpack_tail = None
            self.tail_size = 0
        # Where each field sits in head + tail + (payload, path, None).
        runs = head + tail
        slots = []
        for index in range(len(_CL_FIELD_NAMES)):
            if index not in present:
                slots.append(len(runs) + 2)
            elif index == _CL_PAYLOAD:
                slots.append(len(runs))
            elif index == _CL_PATH:
                slots.append(len(runs) + 1)
            else:
                slots.append(runs.index(index))
        self.fields = itemgetter(*slots)


class _Layouts(dict):
    """Presence-mask byte -> its layout, each built on first use.

    A mask with bit 7 set has none (``None``).  At most 256 entries, one
    per byte value; a process that never touches the wire builds none.
    """

    def __missing__(self, mask: int) -> Optional[_Layout]:
        layout = _Layout(mask) if mask >> len(_CL_FIELD_NAMES) == 0 else None
        self[mask] = layout
        return layout


_CL_LAYOUTS = _Layouts()


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_message(message: AnyMessage) -> bytes:
    """Serialize a protocol message to bytes."""
    if isinstance(message, CrossLayerMessage):
        return _encode_cross_layer(message)
    if isinstance(message, BrachaMessage):
        return _encode_bracha(_KIND_BRACHA, message)
    if isinstance(message, DolevMessage) and isinstance(message.content, BrachaMessage):
        path = message.path
        try:
            count = _U16.pack(len(path))
            hops = _hops(len(path)).pack(*path)
        except struct.error as exc:
            raise EncodingError(
                f"path of {len(path)} hops does not fit a u16 count of u32 ids: {exc}"
            ) from exc
        return _encode_bracha(_KIND_DOLEV_BRACHA, message.content) + count + hops
    raise EncodingError(f"cannot encode object of type {type(message).__name__}")


def _encode_bracha(kind: int, message: BrachaMessage) -> bytes:
    payload = message.payload
    creator = message.creator
    try:
        if creator is None:
            head = _BRACHA_PACKS[0].pack(
                kind, message.mtype, 0, message.source, message.bid, len(payload)
            )
        else:
            head = _BRACHA_PACKS[1].pack(
                kind, message.mtype, 1, message.source, message.bid, creator, len(payload)
            )
    except struct.error as exc:
        raise EncodingError(f"field of {message!r} does not fit in 32 bits: {exc}") from exc
    return head + payload


def _encode_cross_layer(message: CrossLayerMessage) -> bytes:
    source, bid, creator, embedded, payload, local_id, path = _CL_FIELDS(message)
    mask = 0 if source is None else 1
    if bid is not None:
        mask |= 2
    if creator is not None:
        mask |= 4
    if embedded is not None:
        mask |= 8
    if payload is not None:
        mask |= 16
    if local_id is not None:
        mask |= 32
    if path is not None:
        mask |= 64
    layout = _CL_LAYOUTS[mask]
    values = (
        _KIND_CROSS_LAYER,
        message.mtype,
        mask,
        source,
        bid,
        creator,
        embedded,
        None if payload is None else len(payload),
        local_id,
        None if path is None else len(path),
    )
    try:
        body = layout.pack_head(*layout.in_head(values))
        if payload is not None:
            body += payload + layout.pack_tail(*layout.in_tail(values))
        if path is not None:
            body += _hops(len(path)).pack(*path)
    except struct.error as exc:
        raise EncodingError(
            f"a field of {message!r} does not fit its u32 (or u16 hop count): {exc}"
        ) from exc
    return body


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode_message(data: bytes) -> AnyMessage:
    """Deserialize a message previously produced by :func:`encode_message`.

    Raises :class:`EncodingError` for every input that function cannot
    have produced — the bytes come from a neighbor that may be Byzantine.
    """
    return decode_from(data, 0, len(data))


def decode_from(data, start: int, end: int) -> AnyMessage:
    """Decode the message held by ``data[start:end]``, without copying it.

    ``data`` is any buffer (``bytes``, a ``bytearray`` read buffer); no
    byte outside ``[start, end)`` is read.  Raises :class:`EncodingError`
    exactly where :func:`decode_message` of the slice would.
    """
    if end - start < 3:
        raise _header_error(data, start, end)
    kind, type_byte, flags = _HEADER(data, start)
    mtype = _MESSAGE_TYPES[type_byte]
    if kind == _KIND_CROSS_LAYER and mtype is not None:
        layout = _CL_LAYOUTS[flags]
        if layout is None:
            raise EncodingError(f"presence mask {flags:#04x} sets a bit no field has")
        pos = start + layout.head_size
        if pos > end:
            raise _bounds_error(pos, end)
        values = layout.unpack_head(data, start)
        if layout.unpack_tail is None:
            payload = None
        else:
            # The payload length closes the head run.
            stop = pos + values[-1]
            if stop + layout.tail_size > end:
                raise _bounds_error(stop + layout.tail_size, end)
            payload = bytes(data[pos:stop])
            values += layout.unpack_tail(data, stop)
            pos = stop + layout.tail_size
        if flags & 64:
            # The hop count closes the last run.
            count = values[-1]
            stop = pos + 4 * count
            if stop != end:
                raise _bounds_error(stop, end)
            values += (payload, _hops(count).unpack_from(data, pos), None)
        elif pos == end:
            values += (payload, None, None)
        else:
            raise _bounds_error(pos, end)
        return CrossLayerMessage(mtype, *layout.fields(values))
    # Kinds 1 and 3: a Bracha message, bare or in a Dolev envelope.
    if mtype is None or (kind != _KIND_BRACHA and kind != _KIND_DOLEV_BRACHA):
        raise _header_error(data, start, end)
    if flags > 1:
        raise EncodingError(f"creator flag {flags} is neither 0 nor 1")
    head = _BRACHA_HEADS[flags]
    pos = start + head.size
    if pos > end:
        raise _bounds_error(pos, end)
    values = head.unpack_from(data, start)
    stop = pos + values[-1]
    if stop > end:
        raise _bounds_error(stop, end)
    content = BrachaMessage(
        mtype=mtype,
        source=values[0],
        bid=values[1],
        payload=bytes(data[pos:stop]),
        creator=values[2] if flags else None,
    )
    if kind == _KIND_BRACHA:
        if stop != end:
            raise _bounds_error(stop, end)
        return content
    pos = stop + _U16.size
    if pos > end:
        raise _bounds_error(pos, end)
    (count,) = _U16.unpack_from(data, stop)
    stop = pos + 4 * count
    if stop != end:
        raise _bounds_error(stop, end)
    return DolevMessage(content=content, path=_hops(count).unpack_from(data, pos))


__all__ = ["encode_message", "decode_message", "decode_from", "AnyMessage"]
