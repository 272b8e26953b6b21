"""Length-prefixed frame codec shared by every asyncio wire protocol.

One frame is a big-endian ``u32`` byte count followed by that many
payload bytes.  The codec was born inside :class:`AsyncioNode` for the
node↔node protocol channels; the distributed sweep executor
(:mod:`repro.runner.distributed`) speaks the same framing for its
coordinator↔worker messages, so the extraction lives here where both
sides can import it without duplicating wire code.

The first frame of a node↔node connection is a fixed-size HELLO carrying
the dialing process identifier (:data:`HELLO`); higher-level protocols
such as the sweep wire format put their own tagged envelope inside
ordinary frames instead (see :mod:`repro.runner.wire`).

Truncation surfaces as :class:`asyncio.IncompleteReadError` from
:func:`read_frame` — a peer that dies mid-frame looks exactly like a
peer that closed the connection, and every reader already handles that.
A length prefix above :data:`MAX_FRAME_BYTES` raises :class:`FrameError`
instead of attempting a multi-gigabyte allocation on a corrupt or
hostile prefix.

There are two readers of the same format: :func:`read_frame` awaits one
frame at a time (the sweep executor's request/reply traffic), and
:func:`iter_frames` splits whatever a socket read returned into all the
frames it completes (the node↔node data path, where one read carries
many small protocol messages).
"""

from __future__ import annotations

import asyncio
import struct
from typing import Iterator

from repro.core.errors import ReproError

#: Big-endian u32 length prefix, one per frame.
LENGTH = struct.Struct(">I")

#: First frame of a node↔node connection: the dialing process id.
HELLO = struct.Struct(">I")

#: Refuse frames above this size (a corrupt length prefix otherwise
#: turns into an absurd allocation).  The largest legitimate payloads —
#: pickled :class:`~repro.scenarios.engine.ScenarioResult` snapshots with
#: full metrics — are a few megabytes at paper scale.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ReproError):
    """A frame violated the framing layer (oversized or malformed)."""


def encode_frame(payload: bytes) -> bytes:
    """``payload`` as one length-prefixed frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return LENGTH.pack(len(payload)) + payload


def _check_prefix(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame prefix announces {length} bytes, above the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )


def iter_frames(buffer: bytearray) -> Iterator[bytes]:
    """Yield the payload of every complete frame at the head of ``buffer``.

    The yielded frames are removed from ``buffer`` once the iterator is
    exhausted (or abandoned); an incomplete tail — part of a prefix or
    of a payload — stays for the caller to append the next chunk to.
    Raises :class:`FrameError` on an oversized length prefix, after
    yielding every frame in front of it; the stream cannot be
    resynchronised past such a prefix.
    """
    offset = 0
    header = LENGTH.size
    available = len(buffer)
    try:
        while available - offset >= header:
            (length,) = LENGTH.unpack_from(buffer, offset)
            _check_prefix(length)
            end = offset + header + length
            if end > available:
                break
            frame = bytes(buffer[offset + header : end])
            offset = end
            yield frame
    finally:
        del buffer[:offset]


def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Queue one frame on ``writer`` (call ``await writer.drain()`` after)."""
    writer.write(encode_frame(payload))


async def read_frame(reader: asyncio.StreamReader) -> bytes:
    """Read one frame's payload.

    Raises :class:`asyncio.IncompleteReadError` when the peer closes or
    dies mid-frame and :class:`FrameError` on an oversized length prefix.
    """
    header = await reader.readexactly(LENGTH.size)
    (length,) = LENGTH.unpack(header)
    _check_prefix(length)
    return await reader.readexactly(length)


__all__ = [
    "LENGTH",
    "HELLO",
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_frame",
    "iter_frames",
    "write_frame",
    "read_frame",
]
