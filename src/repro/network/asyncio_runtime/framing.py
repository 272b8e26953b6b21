"""Length-prefixed frame codec of the asyncio node↔node channels.

One frame is a big-endian ``u32`` byte count followed by that many
payload bytes.  The first frame of a connection is a fixed-size HELLO
carrying the dialing process identifier (:data:`HELLO`).

:func:`iter_frames` splits whatever a socket read returned into all the
frames it completes — one read carries many small protocol messages —
and leaves an incomplete tail for the next read.  A length prefix above
:data:`MAX_FRAME_BYTES` raises :class:`FrameError` instead of attempting
a multi-gigabyte allocation on a corrupt or hostile prefix.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.core.errors import ReproError

#: Big-endian u32 length prefix, one per frame.
LENGTH = struct.Struct(">I")

#: First frame of a node↔node connection: the dialing process id.
HELLO = struct.Struct(">I")

#: Refuse frames above this size (a corrupt length prefix otherwise
#: turns into an absurd allocation).  A protocol message — one payload
#: plus its header and path — stays far below it.
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
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"frame prefix announces {length} bytes, above the "
                    f"{MAX_FRAME_BYTES}-byte cap"
                )
            end = offset + header + length
            if end > available:
                break
            frame = bytes(buffer[offset + header : end])
            offset = end
            yield frame
    finally:
        del buffer[:offset]


__all__ = [
    "LENGTH",
    "HELLO",
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_frame",
    "iter_frames",
]
