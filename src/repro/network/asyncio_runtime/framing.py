"""Length-prefixed frame codec of the asyncio node↔node channels.

One frame is a big-endian ``u32`` byte count followed by that many
payload bytes.  The first frame of a connection is a fixed-size HELLO
carrying the dialing process identifier (:data:`HELLO`).

The reader side lives in the node's read loop
(:meth:`~repro.network.asyncio_runtime.node.AsyncioNode._handle_frames`):
it walks every frame a socket read completes — one read carries many
small protocol messages — and decodes each body in place in the read
buffer, leaving an incomplete tail for the next read.  A length prefix
above :data:`MAX_FRAME_BYTES` raises :class:`FrameError` there instead of
attempting a multi-gigabyte allocation on a corrupt or hostile prefix.
"""

from __future__ import annotations

import struct

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


__all__ = [
    "LENGTH",
    "HELLO",
    "MAX_FRAME_BYTES",
    "FrameError",
    "encode_frame",
]
