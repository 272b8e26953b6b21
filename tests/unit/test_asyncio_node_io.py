"""Socket-free tests of :class:`AsyncioNode`'s batched wire I/O.

The read loop is driven from an in-memory :class:`asyncio.StreamReader`
and the outbox is flushed into fake writers that record their ``write``
and ``drain`` calls, so every assertion is about bytes and call counts,
never about timing.
"""

import asyncio
import random

import pytest

from repro.core.encoding import decode_message, encode_message
from repro.core.events import SendTo
from repro.core.messages import CrossLayerMessage, MessageType
from repro.metrics.collector import MetricsCollector
from repro.network.asyncio_runtime import AsyncioCluster
from repro.network.asyncio_runtime import node as node_module
from repro.network.asyncio_runtime.framing import (
    LENGTH,
    MAX_FRAME_BYTES,
    encode_frame,
    iter_frames,
)
from repro.network.asyncio_runtime.node import AsyncioNode

PEERS = (1, 2, 3, 4)


def wire_message(index: int) -> CrossLayerMessage:
    return CrossLayerMessage(
        mtype=MessageType.ECHO,
        source=0,
        bid=index,
        payload=b"p" * (index % 7),
        path=tuple(range(index % 4)),
    )


def frame_of(message) -> bytes:
    return encode_frame(encode_message(message))


class RelayProtocol:
    """Records what it is fed and answers with a scripted command list."""

    def __init__(self, relay=lambda sender, message: [], neighbors=PEERS):
        self.process_id = 0
        self.neighbors = tuple(neighbors)
        self.relay = relay
        self.received = []

    def broadcast(self, payload, bid=0):
        return self.relay(None, payload)

    def on_message(self, sender, message):
        self.received.append((sender, message))
        return self.relay(sender, message)


class FakeWriter:
    """Stands in for a :class:`asyncio.StreamWriter`; never touches a socket."""

    def __init__(self):
        self.chunks = []
        self.drains = 0
        self.closed = False
        self.gate = None  # set to an asyncio.Event to make drain() block

    def write(self, data):
        self.chunks.append(bytes(data))

    async def drain(self):
        self.drains += 1
        if self.gate is not None:
            await self.gate.wait()

    def close(self):
        self.closed = True


def hosted(protocol, peers=PEERS, **node_kwargs):
    node = AsyncioNode(protocol, **node_kwargs)
    writers = {peer: FakeWriter() for peer in peers}
    node._writers.update(writers)
    return node, writers


def read_to_eof(node, peer, chunks):
    """Run the node's read loop for ``peer`` over ``chunks``, one read each."""

    async def scenario():
        reader = asyncio.StreamReader()
        loop = asyncio.ensure_future(node._read_loop(peer, reader))
        for chunk in chunks:
            reader.feed_data(chunk)
            # The loop wakes, consumes the chunk and blocks in read() again.
            for _ in range(3):
                await asyncio.sleep(0)
        reader.feed_eof()
        await asyncio.wait_for(loop, timeout=10)

    asyncio.run(scenario())


def frames_in(chunks) -> list:
    """Split what a fake writer was handed back into decoded messages."""
    buffer = bytearray(b"".join(chunks))
    messages = [decode_message(frame) for frame in iter_frames(buffer)]
    assert not buffer, "a writer was handed a partial frame"
    return messages


# ----------------------------------------------------------------------
# Chunk boundaries never lose, duplicate or reorder a frame
# ----------------------------------------------------------------------
class TestChunkedParse:
    MESSAGES = [wire_message(index) for index in range(500)]
    STREAM = b"".join(frame_of(message) for message in MESSAGES)

    def received(self, chunks, expected):
        protocol = RelayProtocol()
        node, _ = hosted(protocol)
        read_to_eof(node, 1, chunks)
        assert protocol.received == [(1, message) for message in expected]
        assert node.malformed_frames == 0

    def test_one_chunk(self):
        self.received([self.STREAM], self.MESSAGES)

    def test_one_byte_at_a_time(self):
        self.received(
            [self.STREAM[i : i + 1] for i in range(len(self.STREAM))], self.MESSAGES
        )

    def test_reads_smaller_than_the_stream(self, monkeypatch):
        monkeypatch.setattr(node_module, "READ_CHUNK_BYTES", 37)
        self.received([self.STREAM], self.MESSAGES)

    def test_split_at_every_offset_around_frame_boundaries(self):
        messages = self.MESSAGES[:6]
        stream = b"".join(frame_of(message) for message in messages)
        for cut in range(len(stream) + 1):
            self.received([stream[:cut], stream[cut:]], messages)

    def test_eof_inside_a_frame_drops_the_partial_tail(self):
        messages = self.MESSAGES[:3]
        stream = b"".join(frame_of(message) for message in messages)
        self.received([stream[:-2]], messages[:2])


# ----------------------------------------------------------------------
# Malformed bodies and oversized prefixes
# ----------------------------------------------------------------------
MALFORMED_BODIES = [b"\x04", b"\x04\x01", b"\x04\x63\x00", b"\x01\x09\x00"]


class TestHostileFrames:
    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_body_is_dropped_and_the_stream_goes_on(self, body):
        protocol = RelayProtocol()
        node, writers = hosted(protocol)
        good = [wire_message(1), wire_message(2)]
        read_to_eof(
            node, 1, [frame_of(good[0]) + encode_frame(body) + frame_of(good[1])]
        )
        assert protocol.received == [(1, good[0]), (1, good[1])]
        assert node.malformed_frames == 1
        assert not writers[1].closed

    def test_oversized_prefix_mid_chunk(self):
        # Frames before it are handled and flushed, nothing after it is,
        # and the link is closed.
        before = [wire_message(1), wire_message(2)]
        after = wire_message(3)
        protocol = RelayProtocol(lambda sender, message: [SendTo(2, message)])
        node, writers = hosted(protocol)
        chunk = (
            b"".join(frame_of(message) for message in before)
            + LENGTH.pack(MAX_FRAME_BYTES + 1)
            + frame_of(after)
        )
        read_to_eof(node, 1, [chunk])
        assert protocol.received == [(1, message) for message in before]
        assert frames_in(writers[2].chunks) == before
        assert writers[1].closed and 1 not in node._writers
        assert not writers[2].closed


# ----------------------------------------------------------------------
# The outbox: coalescing, one encode per object, crash mid-batch
# ----------------------------------------------------------------------
class TestOutbox:
    def test_one_write_and_one_drain_per_neighbour_per_chunk(self):
        inbound = [wire_message(index) for index in range(8)]
        protocol = RelayProtocol(
            lambda sender, message: [
                SendTo(2, message),
                SendTo(3, message.with_fields(creator=9)),
            ]
        )
        node, writers = hosted(protocol)
        read_to_eof(node, 1, [b"".join(frame_of(message) for message in inbound)])
        assert len(writers[2].chunks) == 1 and writers[2].drains == 1
        assert len(writers[3].chunks) == 1 and writers[3].drains == 1
        assert writers[2].chunks[0] == b"".join(frame_of(m) for m in inbound)
        assert frames_in(writers[3].chunks) == [
            message.with_fields(creator=9) for message in inbound
        ]
        assert writers[1].chunks == [] and writers[4].chunks == []
        assert (node.frames_sent, node.writes) == (16, 2)

    def test_two_chunks_are_two_flushes(self):
        inbound = [wire_message(index) for index in range(4)]
        protocol = RelayProtocol(lambda sender, message: [SendTo(2, message)])
        node, writers = hosted(protocol)
        read_to_eof(
            node,
            1,
            [
                b"".join(frame_of(message) for message in inbound[:3]),
                frame_of(inbound[3]),
            ],
        )
        assert [frames_in([chunk]) for chunk in writers[2].chunks] == [
            inbound[:3],
            inbound[3:],
        ]
        assert (node.frames_sent, node.writes) == (4, 2)

    def count_encodes(self, monkeypatch, commands):
        calls = []

        def counting_encode(message):
            calls.append(message)
            return encode_message(message)

        monkeypatch.setattr(node_module, "encode_message", counting_encode)
        node, writers = hosted(RelayProtocol(lambda sender, payload: commands))
        asyncio.run(node.broadcast(b"ignored"))
        return calls, writers

    def test_an_interned_message_is_encoded_once_per_batch(self, monkeypatch):
        message = wire_message(5)
        calls, writers = self.count_encodes(
            monkeypatch, [SendTo(peer, message) for peer in PEERS]
        )
        assert len(calls) == 1
        for peer in PEERS:
            assert writers[peer].chunks == [frame_of(message)]

    def test_equal_but_distinct_messages_are_encoded_separately(self, monkeypatch):
        first, second = wire_message(5), wire_message(5)
        assert first == second and first is not second
        calls, _ = self.count_encodes(
            monkeypatch, [SendTo(1, first), SendTo(2, second), SendTo(3, first)]
        )
        assert len(calls) == 2

    def test_crash_on_the_second_send_of_a_batch(self):
        # The observer runs after the frame is queued: two frames are
        # written, the rest of the batch is not, record_send saw two.
        class CountingCollector(MetricsCollector):
            __slots__ = ("sends",)

            def __init__(self):
                super().__init__()
                self.sends = 0

            def record_send(self, time, sender, dest, message):
                self.sends += 1
                return super().record_send(time, sender, dest, message)

        messages = [wire_message(index) for index in range(4)]
        collector = CountingCollector()
        protocol = RelayProtocol(
            lambda sender, payload: [
                SendTo(peer, message) for peer, message in zip(PEERS, messages)
            ]
        )
        node, writers = hosted(protocol, collector=collector)
        observed = []

        def observer(observation):
            observed.append(observation)
            if len(observed) == 2:
                node.crash()

        node.observer = observer
        asyncio.run(node.broadcast(b"ignored"))
        assert [writers[peer].chunks for peer in PEERS] == [
            [frame_of(messages[0])],
            [frame_of(messages[1])],
            [],
            [],
        ]
        assert collector.sends == 2
        assert [(o.kind, o.pid, o.dest, o.mtype, o.source, o.bid) for o in observed] == [
            ("send", 0, 1, "ECHO", 0, 0),
            ("send", 0, 2, "ECHO", 0, 1),
        ]

    def test_no_observation_is_built_without_an_observer(self, monkeypatch):
        def forbidden(**fields):
            raise AssertionError("Observation built although nobody observes")

        monkeypatch.setattr(node_module, "Observation", forbidden)
        node, writers = hosted(
            RelayProtocol(lambda sender, payload: [SendTo(1, wire_message(0))])
        )
        asyncio.run(node.broadcast(b"ignored"))
        assert len(writers[1].chunks) == 1

    def test_per_link_order_across_concurrent_flushes(self):
        # A read loop blocked in drain() must not let a later batch
        # overtake the frames it already wrote.
        protocol = RelayProtocol(lambda sender, message: [SendTo(3, message)])
        node, writers = hosted(protocol)
        first, second = wire_message(1), wire_message(2)

        async def scenario():
            writers[3].gate = asyncio.Event()
            slow = asyncio.ensure_future(node.handle_message(1, first))
            await asyncio.sleep(0)
            fast = asyncio.ensure_future(node.handle_message(2, second))
            await asyncio.sleep(0)
            writers[3].gate.set()
            await asyncio.wait_for(asyncio.gather(slow, fast), timeout=10)

        asyncio.run(scenario())
        assert frames_in(writers[3].chunks) == [first, second]


# ----------------------------------------------------------------------
# Back-pressure is per read loop
# ----------------------------------------------------------------------
class TestBackPressure:
    def test_blocked_drain_stalls_only_the_loop_that_relayed_to_it(self):
        protocol = RelayProtocol(
            lambda sender, message: [SendTo(3 if sender == 1 else 4, message)]
        )
        node, writers = hosted(protocol)
        stream = [wire_message(index) for index in range(6)]

        async def scenario():
            writers[3].gate = asyncio.Event()
            from_1, from_2 = asyncio.StreamReader(), asyncio.StreamReader()
            loops = [
                asyncio.ensure_future(node._read_loop(1, from_1)),
                asyncio.ensure_future(node._read_loop(2, from_2)),
            ]

            async def settle():
                for _ in range(5):
                    await asyncio.sleep(0)

            from_1.feed_data(frame_of(stream[0]))
            await settle()
            # Peer 1's loop now waits in drain(): its next chunk stays in
            # the reader (bounded by the stream's own limit) ...
            from_1.feed_data(frame_of(stream[1]) + frame_of(stream[2]))
            # ... while peer 2's loop keeps reading and relaying.
            from_2.feed_data(frame_of(stream[3]))
            await settle()
            from_2.feed_data(frame_of(stream[4]))
            await settle()
            assert [message for _, message in protocol.received] == [
                stream[0],
                stream[3],
                stream[4],
            ]
            assert frames_in(writers[4].chunks) == [stream[3], stream[4]]
            writers[3].gate.set()
            await settle()
            assert frames_in(writers[3].chunks) == stream[:3]
            from_1.feed_eof()
            from_2.feed_eof()
            await asyncio.wait_for(asyncio.gather(*loops), timeout=10)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Loss filters consume one RNG draw per consulted message, in order
# ----------------------------------------------------------------------
class TestLossFilterDraws:
    def test_drop_sequence_equals_a_per_send_replay_of_the_rng(self):
        probability = 0.4
        seeds = {peer: 1000 + peer for peer in PEERS}
        schedule = random.Random(7)
        sends = [(schedule.choice(PEERS), wire_message(index)) for index in range(200)]
        # Several command lists of uneven size: batching must not change
        # which draw a send consumes.
        batches = [sends[:1], sends[1:60], sends[60:61], sends[61:]]
        pending = iter(batches)
        protocol = RelayProtocol(
            lambda sender, payload: [SendTo(dest, m) for dest, m in next(pending)]
        )
        node, writers = hosted(protocol)
        for peer, seed in seeds.items():
            node.add_loss_filter(peer, probability, seed)

        async def scenario():
            for _ in batches:
                await node.broadcast(b"ignored")

        asyncio.run(scenario())
        rngs = {peer: random.Random(seed) for peer, seed in seeds.items()}
        expected = {peer: [] for peer in PEERS}
        lost = 0
        for dest, message in sends:
            if rngs[dest].random() < probability:
                lost += 1
            else:
                expected[dest].append(message)
        assert 0 < lost < len(sends)
        assert node.dropped_messages == lost
        for peer in PEERS:
            assert frames_in(writers[peer].chunks) == expected[peer]
        assert node.frames_sent == len(sends) - lost


# ----------------------------------------------------------------------
# Waits and counters
# ----------------------------------------------------------------------
class TestWaitsAndCounters:
    def test_wait_for_delivery_of_uses_the_delivered_key_set(self):
        from repro.core.events import BRBDeliver

        deliveries = [BRBDeliver(source=1, bid=bid, payload=b"x") for bid in range(3)]
        node, _ = hosted(RelayProtocol(lambda sender, payload: deliveries))

        async def scenario():
            assert not await node.wait_for_delivery_of([(1, 0)], timeout=0.01)
            await node.broadcast(b"ignored")
            assert await node.wait_for_delivery_of([(1, 0), (1, 2)], timeout=1)
            assert not await node.wait_for_delivery_of([(2, 0)], timeout=0.01)

        asyncio.run(scenario())
        assert node.deliveries == deliveries

    def test_wait_until_connected_names_the_missing_peers(self):
        from repro.core.errors import RuntimeAbort

        node, _ = hosted(RelayProtocol(), peers=(1, 2))

        async def scenario():
            await node.wait_until_connected({1, 2}, timeout=0.01)
            with pytest.raises(RuntimeAbort, match=r"\[3, 4\]"):
                await node.wait_until_connected({1, 2, 3, 4}, timeout=0.01)

        asyncio.run(scenario())

    def test_wake_replays_the_buffer_in_order_with_a_flush_per_step(self):
        protocol = RelayProtocol(lambda sender, message: [SendTo(2, message)])
        node, writers = hosted(protocol)
        buffered = [wire_message(index) for index in range(5)]

        async def scenario():
            node.hold(keep_inbound=True)
            for message in buffered:
                await node.handle_message(1, message)
            assert writers[2].chunks == []
            await node.wake()

        asyncio.run(scenario())
        assert writers[2].chunks == [frame_of(message) for message in buffered]

    def test_cluster_sums_the_node_counters(self):
        from repro.core.config import SystemConfig
        from repro.topology.generators import complete_topology

        cluster = AsyncioCluster(
            complete_topology(3),
            SystemConfig.for_system(3, 0),
            lambda pid, config, neighbors: RelayProtocol(neighbors=neighbors),
        )
        assert cluster.io_counters() == {
            "frames_sent": 0,
            "writes": 0,
            "malformed_frames": 0,
        }
        for pid, node in cluster.nodes.items():
            node.frames_sent, node.writes, node.malformed_frames = 10 * pid, pid, 1
        assert cluster.io_counters() == {
            "frames_sent": 30,
            "writes": 3,
            "malformed_frames": 3,
        }
