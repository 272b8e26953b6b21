"""Host-speed gauge: a fixed kernel timed around every timed region.

The sandbox this benchmark was built on switches between a fast and a
slow regime every 10–30 s (a neighbour on the same core: the same cell
takes 165 ms or 290 ms), so raw wall times of two runs of one tree
differ by 20–30 % — more than any bound in ``BENCHMARK.json``.  The
ratio of a cell's time to the time of a fixed kernel run right before
and after it stays within a few percent across regimes.  Every bounded
host-time metric of a single-threaded region is therefore reported *at
reference speed*: wall seconds divided by ``kernel seconds / reference
seconds`` measured around that very region.  On a host where the kernel
takes its reference time the numbers are plain wall time.

Two kernels, because a regime does not slow all work alike: pure Python
(dict, heap, tuple and integer work over about a megabyte) for the
simulator, and small frames over one loopback TCP connection for the
asyncio runtime, whose time is mostly socket calls (against the Python
kernel its cells still differ by 9 % between regimes, against the socket
kernel by 4 %).  Both are the harness's own code, so no change to the
program can move them, and both are sampled between timed regions,
never inside one.
"""

from __future__ import annotations

import gc
import socket
import struct
from heapq import heappop, heappush
from time import perf_counter
from typing import Callable

#: Kernel times on the reference host: the slow regime of the sandbox.
PYTHON_REFERENCE_SECONDS = 0.020
LOOPBACK_REFERENCE_SECONDS = 0.030


def python_kernel() -> float:
    """Seconds one run of the fixed pure-Python kernel takes.

    The collector is off meanwhile: the kernel allocates, and a
    collection it triggered would cost whatever the program's live heap
    costs to traverse, which is not the host's speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        heap: list = []
        for i in range(20_000):
            key = (i * 2654435761) & 0x3FFFF
            table[key] = table.get(key, 0) + i
            heappush(heap, (key, i))
            if i & 1:
                heappop(heap)
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class LoopbackKernel:
    """4 000 length-prefixed 60-byte frames over one 127.0.0.1 connection."""

    _LENGTH = struct.Struct(">I")

    def __init__(self) -> None:
        with socket.create_server(("127.0.0.1", 0)) as server:
            self._near = socket.create_connection(server.getsockname())
            self._far, _ = server.accept()
        self._near.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def __call__(self) -> float:
        frame = self._LENGTH.pack(60) + bytes(60)
        send, receive, unpack = self._near.sendall, self._far.recv, self._LENGTH.unpack
        start = perf_counter()
        for _ in range(4_000):
            send(frame)
            (length,) = unpack(receive(4, socket.MSG_WAITALL))
            receive(length, socket.MSG_WAITALL)
        return perf_counter() - start

    def close(self) -> None:
        self._near.close()
        self._far.close()


class Gauge:
    """Samples a kernel between consecutive timed regions."""

    def __init__(self, kernel: Callable[[], float] = python_kernel,
                 reference_seconds: float = PYTHON_REFERENCE_SECONDS) -> None:
        self._kernel = kernel
        self._reference = reference_seconds
        self._last = kernel()

    def factor(self) -> float:
        """Close the region opened by the previous sample.

        Returns how many times slower than the reference host the
        machine ran during it (mean of the kernel before and after);
        the closing sample opens the next region.
        """
        before, self._last = self._last, self._kernel()
        return (before + self._last) / 2.0 / self._reference
