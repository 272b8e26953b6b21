"""Unit tests for the binary message codec."""

import pytest

from repro.core.encoding import decode_message, encode_message
from repro.core.errors import EncodingError
from repro.core.messages import (
    BrachaMessage,
    CrossLayerMessage,
    DolevMessage,
    MessageType,
)


class TestRoundTrips:
    def test_bracha_send_roundtrip(self):
        message = BrachaMessage(MessageType.SEND, source=3, bid=8, payload=b"hello")
        assert decode_message(encode_message(message)) == message

    def test_bracha_echo_with_creator_roundtrip(self):
        message = BrachaMessage(MessageType.ECHO, 3, 8, b"hello", creator=5)
        assert decode_message(encode_message(message)) == message

    def test_dolev_raw_roundtrip(self):
        message = DolevMessage(content=b"\x00\x01\x02", path=(4, 5, 6))
        assert decode_message(encode_message(message)) == message

    def test_dolev_with_bracha_content_roundtrip(self):
        inner = BrachaMessage(MessageType.READY, 1, 2, b"xyz", creator=9)
        message = DolevMessage(content=inner, path=())
        assert decode_message(encode_message(message)) == message

    def test_cross_layer_minimal_roundtrip(self):
        message = CrossLayerMessage(mtype=MessageType.READY)
        assert decode_message(encode_message(message)) == message

    def test_cross_layer_full_roundtrip(self):
        message = CrossLayerMessage(
            mtype=MessageType.READY_ECHO,
            source=1,
            bid=2,
            creator=3,
            embedded_creator=4,
            payload=b"payload-data",
            local_payload_id=77,
            path=(9, 8, 7),
        )
        assert decode_message(encode_message(message)) == message

    def test_cross_layer_empty_payload_roundtrip(self):
        message = CrossLayerMessage(mtype=MessageType.SEND, bid=0, payload=b"")
        decoded = decode_message(encode_message(message))
        assert decoded.payload == b""
        assert decoded == message

    def test_cross_layer_empty_path_distinct_from_absent(self):
        with_path = CrossLayerMessage(mtype=MessageType.ECHO, path=())
        without_path = CrossLayerMessage(mtype=MessageType.ECHO, path=None)
        assert decode_message(encode_message(with_path)).path == ()
        assert decode_message(encode_message(without_path)).path is None

    def test_large_payload_roundtrip(self):
        message = CrossLayerMessage(
            mtype=MessageType.SEND, source=0, bid=1, payload=bytes(range(256)) * 8
        )
        assert decode_message(encode_message(message)) == message


T = MessageType

#: Encoded bytes as the wire has always carried them (recorded before the
#: codec's pack/unpack calls were batched): a codec change that moves a
#: single byte breaks interoperability with every other node.
GOLDEN_WIRE = [
    (
        BrachaMessage(T.SEND, source=3, bid=8, payload=b"hello"),
        "01010000000003000000080000000568656c6c6f",
    ),
    (
        BrachaMessage(T.ECHO, 3, 8, b"hello", creator=5),
        "0102010000000300000008000000050000000568656c6c6f",
    ),
    (BrachaMessage(T.READY, 0xFFFFFFFF, 0, b""), "010300ffffffff0000000000000000"),
    (
        DolevMessage(content=b"\x00\x01\x02", path=(4, 5, 6)),
        "02000000030001020003000000040000000500000006",
    ),
    (DolevMessage(content=b"", path=()), "02000000000000"),
    (
        DolevMessage(content=BrachaMessage(T.READY, 1, 2, b"xyz", creator=9), path=()),
        "0303010000000100000002000000090000000378797a0000",
    ),
    (
        DolevMessage(
            content=BrachaMessage(T.ECHO, 1, 2, b"xyz"), path=(7, 0xFFFFFFFF)
        ),
        "03020000000001000000020000000378797a000200000007ffffffff",
    ),
    (CrossLayerMessage(mtype=T.READY), "040300"),
    (CrossLayerMessage(mtype=T.ECHO, path=()), "0402400000"),
    (CrossLayerMessage(mtype=T.SEND, bid=0, payload=b""), "0401120000000000000000"),
    (
        CrossLayerMessage(mtype=T.ECHO, creator=4, local_payload_id=2, path=(1, 9, 3)),
        "04026400000004000000020003000000010000000900000003",
    ),
    (
        CrossLayerMessage(
            mtype=T.READY_ECHO,
            source=1,
            bid=2,
            creator=3,
            embedded_creator=4,
            payload=b"payload-data",
            local_payload_id=77,
            path=(9, 8, 7),
        ),
        "04057f000000010000000200000003000000040000000c7061796c6f61642d64617461"
        "0000004d0003000000090000000800000007",
    ),
    (
        CrossLayerMessage(
            mtype=T.ECHO_ECHO,
            source=0,
            bid=1,
            embedded_creator=6,
            payload=bytes(range(16)),
        ),
        "04041b00000000000000010000000600000010000102030405060708090a0b0c0d0e0f",
    ),
]


class TestGoldenWire:
    @pytest.mark.parametrize("message, wire", GOLDEN_WIRE)
    def test_encoded_bytes_are_pinned(self, message, wire):
        assert encode_message(message).hex() == wire

    @pytest.mark.parametrize("message, wire", GOLDEN_WIRE)
    def test_pinned_bytes_decode_to_the_message(self, message, wire):
        assert decode_message(bytes.fromhex(wire)) == message

    @pytest.mark.parametrize("mtype", list(MessageType))
    def test_decoded_type_is_the_enum_member(self, mtype):
        decoded = decode_message(encode_message(CrossLayerMessage(mtype=mtype)))
        assert decoded.mtype is mtype


class TestErrors:
    def test_empty_buffer_rejected(self):
        with pytest.raises(EncodingError):
            decode_message(b"")

    def test_unknown_kind_rejected(self):
        with pytest.raises(EncodingError):
            decode_message(bytes([250, 0, 0]))

    def test_truncated_message_rejected(self):
        encoded = encode_message(
            BrachaMessage(MessageType.SEND, source=3, bid=8, payload=b"hello")
        )
        with pytest.raises(EncodingError):
            decode_message(encoded[:-3])

    def test_trailing_garbage_rejected(self):
        encoded = encode_message(CrossLayerMessage(mtype=MessageType.READY))
        with pytest.raises(EncodingError):
            decode_message(encoded + b"\x00")

    def test_unencodable_object_rejected(self):
        with pytest.raises(EncodingError):
            encode_message("not a message")

    def test_negative_ids_rejected(self):
        message = CrossLayerMessage(mtype=MessageType.ECHO, source=-1)
        with pytest.raises(EncodingError):
            encode_message(message)

    @pytest.mark.parametrize(
        "path", [(1, -1), (1, 0x1_0000_0000), (0,) * 0x1_0000, (1, "2")]
    )
    def test_unencodable_paths_rejected(self, path):
        for message in (
            CrossLayerMessage(mtype=MessageType.ECHO, path=path),
            DolevMessage(content=b"x", path=path),
        ):
            with pytest.raises(EncodingError):
                encode_message(message)

    def test_longest_path_roundtrip(self):
        message = DolevMessage(content=b"x", path=tuple(range(0xFFFF)))
        assert decode_message(encode_message(message)) == message

    @pytest.mark.parametrize(
        "data",
        [
            # What a Byzantine neighbor can put inside a well-formed frame:
            b"\x04",  # kind tag only
            b"\x04\x01",  # no presence mask
            b"\x04\x63\x00",  # cross-layer type byte 99
            b"\x01\x09\x00",  # Bracha type byte 9
            b"\x01",
            b"\x03\x02",
            b"\x02\x00\x00",  # Dolev payload length cut short
            b"\x04\x02\x40\x00",  # path count cut short
            b"\x04\x02\x40\x00\x02\x00\x00\x00\x01",  # 2 hops announced, 1 present
            b"\x04\x01\x10\x00\x00\x00\x05abc",  # payload shorter than announced
            b"\x04\x02\x40\xff\xff",  # 65535 hops announced, none present
        ],
    )
    def test_malformed_input_raises_encoding_error_only(self, data):
        with pytest.raises(EncodingError):
            decode_message(data)

    def test_every_truncation_and_extension_of_a_valid_message_is_rejected(self):
        for message, wire in GOLDEN_WIRE:
            encoded = bytes.fromhex(wire)
            for cut in range(len(encoded)):
                with pytest.raises(EncodingError):
                    decode_message(encoded[:cut])
            with pytest.raises(EncodingError):
                decode_message(encoded + b"\x00")
