"""Unit tests of the byte codecs: frames and pickled payloads.

* :mod:`repro.network.asyncio_runtime.framing` — length-prefixed frames
  (round-trip, a partial tail kept for the next read, oversized
  prefixes and payloads);
* :mod:`repro.scenarios.serialize` — spec/result payloads (round-trip
  of every spec part the process pool pickles, garbage, wrong-type
  rejection).
"""

import json
import pickle

import pytest

from repro.core.modifications import ModificationSet
from repro.network.asyncio_runtime.framing import (
    MAX_FRAME_BYTES,
    FrameError,
    LENGTH,
    encode_frame,
    iter_frames,
)
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
class TestFraming:
    def test_frames_round_trip_back_to_back(self):
        payloads = [b"", b"x", b"hello" * 100]
        buffer = bytearray(b"".join(encode_frame(p) for p in payloads))
        assert list(iter_frames(buffer)) == payloads
        assert not buffer

    @pytest.mark.parametrize("cut", [1, 2, 3, LENGTH.size, LENGTH.size + 5])
    def test_a_partial_tail_stays_in_the_buffer(self, cut):
        frame = encode_frame(b"truncate-me")
        buffer = bytearray(encode_frame(b"whole") + frame[:cut])
        assert list(iter_frames(buffer)) == [b"whole"]
        assert bytes(buffer) == frame[:cut]
        assert list(iter_frames(buffer)) == []
        buffer += frame[cut:]
        assert list(iter_frames(buffer)) == [b"truncate-me"]
        assert not buffer

    def test_frames_fed_one_byte_at_a_time_come_out_whole(self):
        payloads = [b"", b"x", b"hello" * 100]
        stream = b"".join(encode_frame(p) for p in payloads)
        buffer = bytearray()
        frames = []
        for byte in stream:
            buffer.append(byte)
            frames.extend(iter_frames(buffer))
        assert frames == payloads
        assert not buffer

    def test_oversized_prefix_is_rejected_not_allocated(self):
        buffer = bytearray(LENGTH.pack(MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameError):
            list(iter_frames(buffer))

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
