"""Differential property: the binary codec against its frozen parent.

``repro.core.encoding`` packs and unpacks through precomputed ``struct``
layouts and decodes in place; ``reference_codec`` is the codec before
that (one helper call per field).  On generated messages both must write
the same bytes and read every encoding back to the same message; on
truncations, extensions and single-byte changes of those encodings both
must accept and reject alike — except for the non-canonical bodies the
reference accepted although no encoder writes them, which the current
codec rejects (:func:`non_canonical`).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import EncodingError
from repro.core.messages import (
    BrachaMessage,
    CrossLayerMessage,
    DolevMessage,
    MessageType,
)
from repro.core import encoding
from tests.property import reference_codec

u32 = st.integers(min_value=0, max_value=0xFFFF_FFFF)
optional_u32 = st.one_of(st.none(), u32)
payloads = st.binary(max_size=64)
paths = st.lists(u32, max_size=6).map(tuple)
mtypes = st.sampled_from(list(MessageType))

bracha_messages = st.builds(
    BrachaMessage,
    mtype=mtypes,
    source=u32,
    bid=u32,
    payload=payloads,
    creator=optional_u32,
)
messages = st.one_of(
    bracha_messages,
    st.builds(DolevMessage, content=bracha_messages, path=paths),
    st.builds(
        CrossLayerMessage,
        mtype=mtypes,
        source=optional_u32,
        bid=optional_u32,
        creator=optional_u32,
        embedded_creator=optional_u32,
        payload=st.one_of(st.none(), payloads),
        local_payload_id=optional_u32,
        path=st.one_of(st.none(), paths),
    ),
)

#: Bodies the reference decoded although the encoder never writes them:
#: a cross-layer presence mask with bit 7 set, and a Bracha creator flag
#: other than 0 or 1 (both decoded as if the byte were canonical).
NON_CANONICAL_ACCEPTED = [
    bytes.fromhex("0402e0000000020000"),
    bytes.fromhex("040380"),
    bytes.fromhex("0101020000000300000008000000050000000178"),
    bytes.fromhex("0303ff0000000100000002000000090000000378797a0000"),
]


def non_canonical(data: bytes) -> bool:
    """Whether ``data`` holds one of the two non-canonical header bytes."""
    if len(data) < 3:
        return False
    if data[0] == 4:
        return data[2] >= 0x80
    return data[0] in (1, 3) and data[2] > 1


def outcome(codec, data: bytes):
    try:
        return codec.decode_message(data)
    except EncodingError:
        return EncodingError


def variants(data: bytes):
    """Truncations, one-byte extensions and single-byte changes of ``data``."""
    for cut in range(len(data)):
        yield data[:cut]
    for extra in (0x00, 0x01, 0xFF):
        yield data + bytes([extra])
    for index, original in enumerate(data):
        for value in range(256):
            if value != original:
                yield data[:index] + bytes([value]) + data[index + 1 :]


@pytest.mark.parametrize("data", NON_CANONICAL_ACCEPTED)
def test_listed_non_canonical_bodies(data):
    assert non_canonical(data)
    decoded = reference_codec.decode_message(data)
    assert reference_codec.encode_message(decoded) != data
    with pytest.raises(EncodingError):
        encoding.decode_message(data)


class TestAgainstReference:
    @given(message=messages)
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_and_same_decode(self, message):
        data = encoding.encode_message(message)
        assert data == reference_codec.encode_message(message)
        assert encoding.decode_message(data) == message
        assert reference_codec.decode_message(data) == message

    @given(message=messages)
    @settings(max_examples=40, deadline=None)
    def test_same_verdict_on_every_near_miss(self, message):
        for data in variants(encoding.encode_message(message)):
            ours, theirs = outcome(encoding, data), outcome(reference_codec, data)
            if ours == theirs:
                continue
            assert ours is EncodingError and non_canonical(data), data.hex()

    @given(data=st.binary(max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_same_verdict_on_arbitrary_bytes(self, data):
        ours, theirs = outcome(encoding, data), outcome(reference_codec, data)
        assert ours == theirs or (ours is EncodingError and non_canonical(data))
