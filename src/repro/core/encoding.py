"""Compact binary codec for the protocol messages.

The asyncio runtime (and the codec round-trip tests) use this module to
serialize messages to bytes and back.  The encoding mirrors the field
layout of Table 3: a one-byte message-kind tag, a one-byte presence
bitmask for optional fields, then the present fields using fixed-width
big-endian integers.  The encoding is self-describing enough to decode
without knowing which modifications the emitting protocol had enabled.
"""

from __future__ import annotations

import struct
from typing import Tuple, Union

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

_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")

# Type byte -> member, in place of the (much slower) ``MessageType(byte)``.
_MESSAGE_TYPES = {int(mtype): mtype for mtype in MessageType}

AnyMessage = Union[BrachaMessage, DolevMessage, CrossLayerMessage]


def _pack_u32(value: int) -> bytes:
    if value < 0 or value > 0xFFFFFFFF:
        raise EncodingError(f"value {value} does not fit in 32 bits")
    return _U32.pack(value)


def _pack_path(path: Tuple[int, ...]) -> bytes:
    count = len(path)
    try:
        return struct.pack(f">H{count}I", count, *path)
    except struct.error as exc:
        raise EncodingError(
            f"path of {count} hops does not fit a u16 count of u32 ids: {exc}"
        ) from exc


def _unpack_path(data: bytes, offset: int) -> Tuple[Tuple[int, ...], int]:
    (count,) = _U16.unpack_from(data, offset)
    offset += _U16.size
    return struct.unpack_from(f">{count}I", data, offset), offset + count * _U32.size


def _unpack_mtype(data: bytes, offset: int) -> MessageType:
    mtype = _MESSAGE_TYPES.get(data[offset])
    if mtype is None:
        raise EncodingError(f"unknown message type byte: {data[offset]}")
    return mtype


def _pack_payload(payload: bytes) -> bytes:
    return _pack_u32(len(payload)) + payload


def _unpack_payload(data: bytes, offset: int) -> Tuple[bytes, int]:
    (length,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    payload = bytes(data[offset : offset + length])
    if len(payload) != length:
        raise EncodingError("truncated payload")
    return payload, offset + length


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_message(message: AnyMessage) -> bytes:
    """Serialize a protocol message to bytes."""
    if isinstance(message, BrachaMessage):
        return bytes([_KIND_BRACHA]) + _encode_bracha(message)
    if isinstance(message, DolevMessage) and isinstance(message.content, BrachaMessage):
        return (
            bytes([_KIND_DOLEV_BRACHA])
            + _encode_bracha(message.content)
            + _pack_path(message.path)
        )
    if isinstance(message, CrossLayerMessage):
        return bytes([_KIND_CROSS_LAYER]) + _encode_cross_layer(message)
    raise EncodingError(f"cannot encode object of type {type(message).__name__}")


def _encode_bracha(message: BrachaMessage) -> bytes:
    has_creator = message.creator is not None
    parts = [
        bytes([int(message.mtype), 1 if has_creator else 0]),
        _pack_u32(message.source),
        _pack_u32(message.bid),
    ]
    if has_creator:
        parts.append(_pack_u32(message.creator))
    parts.append(_pack_payload(message.payload))
    return b"".join(parts)


_CL_SOURCE = 1 << 0
_CL_BID = 1 << 1
_CL_CREATOR = 1 << 2
_CL_EMBEDDED = 1 << 3
_CL_PAYLOAD = 1 << 4
_CL_LOCAL_ID = 1 << 5
_CL_PATH = 1 << 6


def _encode_cross_layer(message: CrossLayerMessage) -> bytes:
    mask = 0
    parts = []
    if message.source is not None:
        mask |= _CL_SOURCE
        parts.append(_pack_u32(message.source))
    if message.bid is not None:
        mask |= _CL_BID
        parts.append(_pack_u32(message.bid))
    if message.creator is not None:
        mask |= _CL_CREATOR
        parts.append(_pack_u32(message.creator))
    if message.embedded_creator is not None:
        mask |= _CL_EMBEDDED
        parts.append(_pack_u32(message.embedded_creator))
    if message.payload is not None:
        mask |= _CL_PAYLOAD
        parts.append(_pack_payload(message.payload))
    if message.local_payload_id is not None:
        mask |= _CL_LOCAL_ID
        parts.append(_pack_u32(message.local_payload_id))
    if message.path is not None:
        mask |= _CL_PATH
        parts.append(_pack_path(message.path))
    return bytes([int(message.mtype), mask]) + b"".join(parts)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode_message(data: bytes) -> AnyMessage:
    """Deserialize a message previously produced by :func:`encode_message`.

    Raises :class:`EncodingError` for every input that function cannot
    have produced — the bytes come from a neighbor that may be Byzantine.
    """
    if not data:
        raise EncodingError("empty buffer")
    kind = data[0]
    try:
        if kind == _KIND_CROSS_LAYER:
            message, offset = _decode_cross_layer(data, 1)
        elif kind == _KIND_BRACHA:
            message, offset = _decode_bracha(data, 1)
        elif kind == _KIND_DOLEV_BRACHA:
            content, offset = _decode_bracha(data, 1)
            path, offset = _unpack_path(data, offset)
            message = DolevMessage(content=content, path=path)
        else:
            raise EncodingError(f"unknown message kind tag: {kind}")
    except (struct.error, IndexError) as exc:
        raise EncodingError(f"truncated message: {exc}") from exc
    if offset != len(data):
        raise EncodingError(
            f"trailing bytes after message: consumed {offset} of {len(data)}"
        )
    return message


def _decode_bracha(data: bytes, offset: int) -> Tuple[BrachaMessage, int]:
    mtype = _unpack_mtype(data, offset)
    has_creator = bool(data[offset + 1])
    offset += 2
    (source,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    (bid,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    creator = None
    if has_creator:
        (creator,) = _U32.unpack_from(data, offset)
        offset += _U32.size
    payload, offset = _unpack_payload(data, offset)
    return (
        BrachaMessage(mtype=mtype, source=source, bid=bid, payload=payload, creator=creator),
        offset,
    )


def _decode_cross_layer(data: bytes, offset: int) -> Tuple[CrossLayerMessage, int]:
    mtype = _unpack_mtype(data, offset)
    mask = data[offset + 1]
    offset += 2
    source = bid = creator = embedded = payload = local_id = path = None
    if mask & _CL_SOURCE:
        (source,) = _U32.unpack_from(data, offset)
        offset += _U32.size
    if mask & _CL_BID:
        (bid,) = _U32.unpack_from(data, offset)
        offset += _U32.size
    if mask & _CL_CREATOR:
        (creator,) = _U32.unpack_from(data, offset)
        offset += _U32.size
    if mask & _CL_EMBEDDED:
        (embedded,) = _U32.unpack_from(data, offset)
        offset += _U32.size
    if mask & _CL_PAYLOAD:
        payload, offset = _unpack_payload(data, offset)
    if mask & _CL_LOCAL_ID:
        (local_id,) = _U32.unpack_from(data, offset)
        offset += _U32.size
    if mask & _CL_PATH:
        path, offset = _unpack_path(data, offset)
    return (
        CrossLayerMessage(
            mtype, source, bid, creator, embedded, payload, local_id, path
        ),
        offset,
    )


__all__ = ["encode_message", "decode_message", "AnyMessage"]
