"""Real-socket runtime: the protocols over asyncio TCP transports.

The discrete-event simulation is used for every benchmark; this runtime
demonstrates that the very same sans-io protocol objects also run over
real TCP connections, as the paper's C++ implementation does with the
Salticidae library.  Peers connect over localhost, frame messages with a
length prefix, encode them with :mod:`repro.core.encoding`, and treat the
connection identity as the authenticated-link sender identity.
"""

from repro.network.asyncio_runtime.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    encode_frame,
)
from repro.network.asyncio_runtime.node import AsyncioNode
from repro.network.asyncio_runtime.cluster import AsyncioCluster

__all__ = [
    "AsyncioNode",
    "AsyncioCluster",
    "FrameError",
    "MAX_FRAME_BYTES",
    "encode_frame",
]
