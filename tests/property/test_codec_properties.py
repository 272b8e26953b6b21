"""Property-based tests for the binary codec and wire-size accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoding import decode_from, decode_message, encode_message
from repro.core.errors import EncodingError
from repro.core.messages import (
    BrachaMessage,
    CrossLayerMessage,
    DolevMessage,
    MessageType,
)

process_ids = st.integers(min_value=0, max_value=2 ** 16)
bids = st.integers(min_value=0, max_value=2 ** 16)
payloads = st.binary(max_size=256)
paths = st.lists(process_ids, max_size=8).map(tuple)
optional_ids = st.one_of(st.none(), process_ids)

bracha_messages = st.builds(
    BrachaMessage,
    mtype=st.sampled_from([MessageType.SEND, MessageType.ECHO, MessageType.READY]),
    source=process_ids,
    bid=bids,
    payload=payloads,
    creator=optional_ids,
)

dolev_messages = st.builds(
    DolevMessage,
    content=bracha_messages,
    path=paths,
)

cross_layer_messages = st.builds(
    CrossLayerMessage,
    mtype=st.sampled_from(list(MessageType)),
    source=optional_ids,
    bid=st.one_of(st.none(), bids),
    creator=optional_ids,
    embedded_creator=optional_ids,
    payload=st.one_of(st.none(), payloads),
    local_payload_id=st.one_of(st.none(), bids),
    path=st.one_of(st.none(), paths),
)

any_message = st.one_of(bracha_messages, dolev_messages, cross_layer_messages)


class TestCodecProperties:
    @given(message=any_message)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, message):
        assert decode_message(encode_message(message)) == message

    @given(message=any_message)
    @settings(max_examples=200, deadline=None)
    def test_encoding_is_deterministic(self, message):
        assert encode_message(message) == encode_message(message)

    @given(message=cross_layer_messages)
    @settings(max_examples=200, deadline=None)
    def test_wire_size_counts_only_present_fields(self, message):
        size = message.wire_size()
        minimum = 1  # the type tag is always counted
        assert size >= minimum
        # Removing the payload never increases the accounted size.
        without_payload = message.with_fields(payload=None)
        assert without_payload.wire_size() <= size

    @given(message=cross_layer_messages, extra=st.binary(min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_trailing_bytes_always_rejected(self, message, extra):
        with pytest.raises(EncodingError):
            decode_message(encode_message(message) + extra)


def near_misses(data: bytes):
    """Every truncation of ``data`` and every single-byte change of it."""
    for cut in range(len(data)):
        yield data[:cut]
    for index, original in enumerate(data):
        for value in range(256):
            if value != original:
                yield data[:index] + bytes([value]) + data[index + 1 :]


def assert_canonical(data: bytes):
    """``data`` is rejected with EncodingError, or is the encoding of what it decodes to."""
    try:
        message = decode_message(data)
    except EncodingError:
        return
    assert encode_message(message) == data, data.hex()


class TestCanonicalCodec:
    """Nothing decodes that the encoder would not have written byte for byte."""

    @given(data=st.binary(max_size=48))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_bytes(self, data):
        assert_canonical(data)

    @given(kind=st.sampled_from([1, 3, 4]), rest=st.binary(max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_bodies_of_every_kind(self, kind, rest):
        assert_canonical(bytes([kind]) + rest)

    @given(message=any_message)
    @settings(max_examples=40, deadline=None)
    def test_truncations_and_byte_changes_of_encodings(self, message):
        for data in near_misses(encode_message(message)):
            assert_canonical(data)

    @given(
        message=any_message,
        prefix=st.binary(max_size=6),
        suffix=st.binary(max_size=6),
        cut=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_decoding_in_place_reads_only_the_span(self, message, prefix, suffix, cut):
        # The read loop decodes frames inside one shared buffer: the bytes
        # around a span must not change the outcome of decoding it.
        data = encode_message(message)
        data = data[: max(0, len(data) - cut)]
        buffer = bytearray(prefix + data + suffix)
        try:
            expected = decode_message(data)
        except EncodingError:
            with pytest.raises(EncodingError):
                decode_from(buffer, len(prefix), len(prefix) + len(data))
        else:
            assert decode_from(buffer, len(prefix), len(prefix) + len(data)) == expected
