"""Unit tests of the byte codecs: frames and pickled payloads.

* :mod:`repro.network.asyncio_runtime.framing` — length-prefixed frames,
  read by the node's frame loop (round-trip, a partial tail kept for
  the next read, oversized prefixes and payloads);
* :mod:`repro.scenarios.serialize` — spec/result payloads (round-trip
  of every spec part the process pool pickles, garbage, wrong-type
  rejection).
"""

import json
import pickle

import pytest

from repro.core.encoding import encode_message
from repro.core.messages import CrossLayerMessage, MessageType
from repro.core.modifications import ModificationSet
from repro.network.asyncio_runtime.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    LENGTH,
    encode_frame,
)
from repro.network.asyncio_runtime.node import AsyncioNode
from repro.scenarios import (
    AdversarySpec,
    CrashAt,
    CrashWhen,
    CutLinkWhen,
    DelaySpec,
    JoinAt,
    LinkDropWindow,
    ObservationFilter,
    RewireLinkAt,
    ScenarioSpec,
    TopologySpec,
    TurnByzantineWhen,
    WorkloadSpec,
    run_scenario,
)
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


def _row(name, **fields):
    fields.setdefault("topology", TopologySpec(kind="harary", n=6, k=4))
    return ScenarioSpec(name=f"wire-{name}", f=1, seed=29, **fields)


#: One spec per part of :class:`ScenarioSpec` that rides inside the
#: pickle the process pool sends, each small enough to run in a test.
SPEC_ROWS = {
    "workload": _row(
        "workload",
        topology=TopologySpec(kind="harary", n=6, k=3),
        workload=WorkloadSpec.round_robin([0, 1], 4, interval_ms=20.0),
    ),
    "equivocator": _row(
        "equivocator",
        adversaries=(
            AdversarySpec(behaviour="equivocate", conflicting_payload=b"evil"),
        ),
    ),
    "lossy-bursty-normal": _row(
        "lossy-bursty-normal",
        protocol="bracha_dolev",
        delay=DelaySpec(
            kind="normal",
            mean_ms=20.0,
            std_ms=5.0,
            loss=0.05,
            burst_period_ms=200.0,
            burst_len_ms=20.0,
        ),
    ),
    "timed-faults": _row(
        "timed-faults",
        faults=(
            CrashAt(pid=4, time_ms=0.0),
            LinkDropWindow(u=0, v=1, start_ms=0.0, end_ms=None),
        ),
    ),
    "churn": _row(
        "churn",
        faults=(
            JoinAt(pid=4, time_ms=50.0),
            RewireLinkAt(pid=3, old_peer=5, new_peer=1, time_ms=60.0),
        ),
    ),
    "adaptive": _row(
        "adaptive",
        adaptive=(
            CrashWhen(pid=3, after=ObservationFilter(kind="send", mtype="ECHO"), count=2),
            CutLinkWhen(
                u=0, v=1, after=ObservationFilter(kind="send", pid=0), duration_ms=40.0
            ),
        ),
    ),
    "byzantine-turn": _row(
        "byzantine-turn",
        adaptive=(
            TurnByzantineWhen(
                pid=2, after=ObservationFilter(kind="deliver", pid=2), behaviour="drop"
            ),
        ),
    ),
    "rco-modifications-medium": _row(
        "rco-modifications-medium",
        topology=TopologySpec(kind="harary", n=6, k=3),
        protocol="rco_cross_layer",
        modifications=ModificationSet.latency_and_bandwidth_optimized(),
        shared_bandwidth_bps=1e6,
        workload=WorkloadSpec.causal_chain((0, 2, 4), interval_ms=200.0),
    ),
}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class Recorder:
    """A protocol that records the messages its node's frame loop decodes."""

    process_id = 0
    neighbors = (1,)

    def __init__(self):
        self.received = []

    def on_message(self, sender, message):
        self.received.append(message)
        return []


def reader():
    """A node (never started) and the protocol its frame loop feeds."""
    protocol = Recorder()
    return AsyncioNode(protocol), protocol


MESSAGES = [
    CrossLayerMessage(MessageType.READY),
    CrossLayerMessage(MessageType.ECHO, source=1, bid=2, payload=b"x", path=(3,)),
    CrossLayerMessage(MessageType.SEND, source=0, bid=0, payload=b"hello" * 100),
]
BODIES = [encode_message(message) for message in MESSAGES]


class TestFraming:
    def test_frames_round_trip_back_to_back(self):
        # An empty frame is a well-formed frame with an undecodable body.
        node, protocol = reader()
        buffer = bytearray(b"".join(encode_frame(b) for b in [b""] + BODIES))
        node._handle_frames(1, buffer)
        assert protocol.received == MESSAGES
        assert node.malformed_frames == 1
        assert not buffer

    @pytest.mark.parametrize("cut", [1, 2, 3, LENGTH.size, LENGTH.size + 5])
    def test_a_partial_tail_stays_in_the_buffer(self, cut):
        node, protocol = reader()
        frame = encode_frame(BODIES[2])
        buffer = bytearray(encode_frame(BODIES[1]) + frame[:cut])
        node._handle_frames(1, buffer)
        assert protocol.received == MESSAGES[1:2]
        assert bytes(buffer) == frame[:cut]
        node._handle_frames(1, buffer)
        assert protocol.received == MESSAGES[1:2]
        buffer += frame[cut:]
        node._handle_frames(1, buffer)
        assert protocol.received == MESSAGES[1:]
        assert not buffer

    def test_frames_fed_one_byte_at_a_time_come_out_whole(self):
        node, protocol = reader()
        stream = b"".join(encode_frame(body) for body in BODIES)
        buffer = bytearray()
        for byte in stream:
            buffer.append(byte)
            node._handle_frames(1, buffer)
        assert protocol.received == MESSAGES
        assert not buffer and node.malformed_frames == 0

    def test_a_body_is_decoded_up_to_its_frame_end_only(self):
        # Each body is read in place in the shared buffer: a body cut
        # short must not borrow the next frame's bytes to complete it.
        node, protocol = reader()
        whole = BODIES[1]
        for cut in range(len(whole)):
            buffer = bytearray(encode_frame(whole[:cut]) + encode_frame(whole))
            node._handle_frames(1, buffer)
            assert not buffer
        assert protocol.received == [MESSAGES[1]] * len(whole)
        assert node.malformed_frames == len(whole)

    def test_oversized_prefix_is_rejected_not_allocated(self):
        node, _ = reader()
        buffer = bytearray(LENGTH.pack(MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameError):
            node._handle_frames(1, buffer)

    def test_frames_in_front_of_an_oversized_prefix_are_handled(self):
        node, protocol = reader()
        poison = LENGTH.pack(MAX_FRAME_BYTES + 1) + b"unreachable"
        buffer = bytearray(encode_frame(BODIES[0]) + poison)
        with pytest.raises(FrameError):
            node._handle_frames(1, buffer)
        assert protocol.received == MESSAGES[:1]
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

    @pytest.mark.parametrize("row", sorted(SPEC_ROWS))
    def test_every_spec_part_round_trips_under_its_hash(self, row):
        spec = SPEC_ROWS[row]
        restored = loads_spec(dumps_spec(spec))
        assert restored == spec
        # The pool's workers and the result cache key cells by this hash.
        assert restored.scenario_hash() == spec.scenario_hash()

    @pytest.mark.parametrize("row", sorted(SPEC_ROWS))
    def test_result_round_trip_keeps_every_outcome(self, row):
        result = run_scenario(SPEC_ROWS[row])
        restored = loads_result(dumps_result(result))
        assert restored == result
        assert restored.outcomes == result.outcomes
        assert json.dumps(restored.summary(), sort_keys=True) == json.dumps(
            result.summary(), sort_keys=True
        )

    def test_dumps_validates_input_type(self, spec):
        with pytest.raises(SerializationError):
            dumps_spec("not a spec")
        with pytest.raises(SerializationError):
            dumps_result(spec)
