"""Unit tests of the sweep wire stack: framing, envelopes, payloads.

Covers the three layers the distributed executor composes:

* :mod:`repro.network.asyncio_runtime.framing` — length-prefixed frames
  (round-trip, truncation, oversized prefixes);
* :mod:`repro.scenarios.serialize` — spec/result payloads (round-trip,
  garbage, wrong-type rejection);
* :mod:`repro.runner.wire` — tagged envelopes (round-trip of every
  message kind, garbage/short/bad-magic frames, and the version-tag
  rejection an incompatible worker triggers).
"""

import asyncio
import pickle

import pytest

from repro.network.asyncio_runtime.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    LENGTH,
    encode_frame,
    iter_frames,
    read_frame,
)
from repro.runner import wire
from repro.scenarios import ScenarioSpec, TopologySpec, run_scenario
from repro.scenarios.serialize import (
    SerializationError,
    dumps_result,
    dumps_spec,
    loads_result,
    loads_spec,
)


@pytest.fixture(scope="module")
def spec():
    return ScenarioSpec(
        name="wire-test",
        topology=TopologySpec(kind="complete", n=4),
        f=0,
        seed=11,
    )


@pytest.fixture(scope="module")
def result(spec):
    return run_scenario(spec)


def read_all_frames(data: bytes):
    """Decode every frame of ``data`` through the real reader coroutine."""

    async def drain():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while True:
            try:
                frames.append(await read_frame(reader))
            except asyncio.IncompleteReadError:
                return frames

    return asyncio.run(drain())


def read_one_frame(data: bytes) -> bytes:
    async def one():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(one())


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_frames_round_trip_back_to_back(self):
        payloads = [b"", b"x", b"hello" * 100]
        stream = b"".join(encode_frame(p) for p in payloads)
        assert read_all_frames(stream) == payloads

    def test_truncated_frame_raises_incomplete_read(self):
        frame = encode_frame(b"truncate-me")
        with pytest.raises(asyncio.IncompleteReadError):
            read_one_frame(frame[:-3])

    def test_truncated_header_raises_incomplete_read(self):
        with pytest.raises(asyncio.IncompleteReadError):
            read_one_frame(LENGTH.pack(10)[:2])

    def test_oversized_prefix_is_rejected_not_allocated(self):
        header = LENGTH.pack(MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError):
            read_one_frame(header)

    def test_iter_frames_agrees_with_read_frame_and_keeps_a_partial_tail(self):
        payloads = [b"", b"x", b"hello" * 100]
        stream = b"".join(encode_frame(p) for p in payloads)
        tail = encode_frame(b"not all here yet")[:-1]
        buffer = bytearray(stream + tail)
        assert list(iter_frames(buffer)) == payloads == read_all_frames(stream)
        assert bytes(buffer) == tail
        assert list(iter_frames(buffer)) == []
        buffer += b"t"
        assert list(iter_frames(buffer)) == [b"not all here yet"]
        assert not buffer

    def test_iter_frames_yields_what_precedes_an_oversized_prefix(self):
        poison = LENGTH.pack(MAX_FRAME_BYTES + 1) + b"unreachable"
        buffer = bytearray(encode_frame(b"fine") + poison)
        frames = iter_frames(buffer)
        assert next(frames) == b"fine"
        with pytest.raises(FrameError):
            next(frames)
        assert bytes(buffer) == poison

    def test_oversized_payload_is_rejected_at_encode_time(self):
        class HugeBytes(bytes):
            def __len__(self):
                return MAX_FRAME_BYTES + 1

        with pytest.raises(FrameError):
            encode_frame(HugeBytes())


# ----------------------------------------------------------------------
# Spec / result payload serialization
# ----------------------------------------------------------------------
class TestSerialize:
    def test_spec_round_trip(self, spec):
        assert loads_spec(dumps_spec(spec)) == spec

    def test_result_round_trip(self, result):
        restored = loads_result(dumps_result(result))
        assert restored == result
        assert restored.spec == result.spec
        assert restored.metrics.total_bytes == result.metrics.total_bytes

    def test_garbage_payload_raises_serialization_error(self):
        with pytest.raises(SerializationError):
            loads_spec(b"this is not a pickle")
        with pytest.raises(SerializationError):
            loads_result(b"\x80\x04 truncated")

    def test_wrong_type_is_rejected(self, spec, result):
        with pytest.raises(SerializationError):
            loads_result(dumps_spec(spec))
        with pytest.raises(SerializationError):
            loads_spec(dumps_result(result))
        with pytest.raises(SerializationError):
            loads_spec(pickle.dumps({"not": "a spec"}))

    def test_dumps_validates_input_type(self, spec):
        with pytest.raises(SerializationError):
            dumps_spec("not a spec")
        with pytest.raises(SerializationError):
            dumps_result(spec)


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
class TestEnvelope:
    def test_control_messages_round_trip(self):
        for frame, kind in [
            (wire.encode_hello(), wire.HELLO),
            (wire.encode_welcome(), wire.WELCOME),
            (wire.encode_shutdown(), wire.SHUTDOWN),
        ]:
            decoded_kind, body = wire.decode_envelope(frame)
            assert decoded_kind == kind
            assert body == b""

    def test_task_round_trip(self, spec):
        kind, body = wire.decode_envelope(wire.encode_task(7, spec))
        assert kind == wire.TASK
        assert wire.decode_task(body) == (7, spec)

    def test_result_round_trip(self, result):
        kind, body = wire.decode_envelope(wire.encode_result(3, result))
        assert kind == wire.RESULT
        index, restored = wire.decode_result(body)
        assert index == 3
        assert restored == result

    def test_error_and_heartbeat_round_trip(self):
        kind, body = wire.decode_envelope(wire.encode_error(9, "boom ✗"))
        assert kind == wire.ERROR
        assert wire.decode_error(body) == (9, "boom ✗")
        kind, body = wire.decode_envelope(wire.encode_heartbeat(4))
        assert kind == wire.HEARTBEAT
        assert wire.decode_heartbeat(body) == 4

    def test_reject_round_trip(self):
        kind, body = wire.decode_envelope(wire.encode_reject("bad version"))
        assert kind == wire.REJECT
        assert wire.decode_reject(body) == "bad version"

    def test_garbage_frame_raises_wire_error(self):
        with pytest.raises(wire.WireError):
            wire.decode_envelope(b"GARBAGEGARBAGE")

    def test_short_frame_raises_wire_error(self):
        with pytest.raises(wire.WireError):
            wire.decode_envelope(wire.WIRE_MAGIC)  # header cut off

    def test_unknown_kind_raises_wire_error(self):
        frame = wire.WIRE_MAGIC + bytes((wire.WIRE_VERSION, 0xEE))
        with pytest.raises(wire.WireError):
            wire.decode_envelope(frame)
        with pytest.raises(wire.WireError):
            wire.encode_envelope(0xEE)

    def test_version_tag_rejects_incompatible_peer(self):
        frame = wire.WIRE_MAGIC + bytes((wire.WIRE_VERSION + 1, wire.HELLO))
        with pytest.raises(wire.WireVersionError) as excinfo:
            wire.decode_envelope(frame)
        assert excinfo.value.version == wire.WIRE_VERSION + 1
        # The version error is a WireError, so handshake code can treat
        # "broken peer" uniformly while still telling the reason apart.
        assert isinstance(excinfo.value, wire.WireError)

    def test_task_with_garbage_body_raises_wire_error(self):
        _, body = wire.decode_envelope(
            wire.encode_envelope(wire.TASK, b"\x00\x00\x00\x01not-a-pickle")
        )
        with pytest.raises(wire.WireError):
            wire.decode_task(body)

    def test_body_without_index_raises_wire_error(self):
        with pytest.raises(wire.WireError):
            wire.decode_task(b"\x01")
        with pytest.raises(wire.WireError):
            wire.decode_heartbeat(b"")

    def test_transposed_kinds_are_rejected(self, spec, result):
        # A TASK body fed to the result decoder must fail loudly, not
        # hand back a spec where a result is expected.
        _, task_body = wire.decode_envelope(wire.encode_task(1, spec))
        with pytest.raises(wire.WireError):
            wire.decode_result(task_body)
        _, result_body = wire.decode_envelope(wire.encode_result(1, result))
        with pytest.raises(wire.WireError):
            wire.decode_task(result_body)
