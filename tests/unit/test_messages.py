"""Unit tests for the message wire formats and Table 3 size accounting."""

import dataclasses
import os
import pickle
import subprocess
import sys

from repro.core.encoding import decode_message, encode_message
from repro.core.messages import (
    BrachaMessage,
    CrossLayerMessage,
    DolevMessage,
    MessageType,
)
from repro.core.sizes import PAPER_FIELD_SIZES, FieldSizes


class TestFieldSizes:
    def test_paper_defaults_match_table_3(self):
        sizes = PAPER_FIELD_SIZES
        assert sizes.mtype == 1
        assert sizes.source == 4
        assert sizes.bid == 4
        assert sizes.local_payload_id == 4
        assert sizes.payload_size == 4
        assert sizes.creator_id == 4
        assert sizes.embedded_creator_id == 4
        assert sizes.path_length == 2
        assert sizes.path_entry == 4

    def test_path_cost(self):
        assert PAPER_FIELD_SIZES.path_cost(0) == 2
        assert PAPER_FIELD_SIZES.path_cost(3) == 2 + 12

    def test_custom_sizes(self):
        sizes = FieldSizes(path_entry=2, path_length=1)
        assert sizes.path_cost(4) == 1 + 8


class TestBrachaMessage:
    def test_wire_size_without_creator(self):
        message = BrachaMessage(MessageType.SEND, source=1, bid=2, payload=b"abcd")
        # mtype + source + bid + payloadSize + payload
        assert message.wire_size() == 1 + 4 + 4 + 4 + 4

    def test_wire_size_with_creator(self):
        message = BrachaMessage(
            MessageType.ECHO, source=1, bid=2, payload=b"abcd", creator=3
        )
        assert message.wire_size() == 1 + 4 + 4 + 4 + 4 + 4

    def test_broadcast_id(self):
        message = BrachaMessage(MessageType.READY, source=7, bid=9, payload=b"")
        assert message.broadcast_id == (7, 9)

    def test_with_creator_returns_new_message(self):
        message = BrachaMessage(MessageType.ECHO, source=1, bid=0, payload=b"x")
        tagged = message.with_creator(5)
        assert tagged.creator == 5
        assert message.creator is None

    def test_messages_are_hashable_and_comparable(self):
        a = BrachaMessage(MessageType.ECHO, 1, 0, b"x", creator=2)
        b = BrachaMessage(MessageType.ECHO, 1, 0, b"x", creator=2)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestBrachaMessageHashMemo:
    """``__hash__`` is memoized per object and never leaves the process."""

    @staticmethod
    def _echo():
        return BrachaMessage(MessageType.ECHO, 1, 0, b"payload", creator=2)

    def test_equal_but_distinct_messages_find_each_other(self):
        stored, key = self._echo(), self._echo()
        assert stored is not key
        table = {stored: "state"}
        assert hash(stored) == hash(key) == hash(stored)  # memo hit equals first take
        assert table[key] == "state"
        assert key._hash_memo == stored._hash_memo is not None
        different = [
            dataclasses.replace(stored, **change)
            for change in (
                {"mtype": MessageType.READY}, {"source": 3}, {"bid": 1},
                {"payload": b""}, {"creator": None},
            )
        ]
        assert all(other != stored and other not in table for other in different)

    def test_copies_start_with_a_fresh_memo(self):
        message = self._echo()
        hash(message)
        tagged = message.with_creator(5)
        assert tagged._hash_memo is None and hash(tagged) != hash(message)
        assert tagged in {BrachaMessage(MessageType.ECHO, 1, 0, b"payload", creator=5)}
        for clone in (
            dataclasses.replace(message),
            pickle.loads(pickle.dumps(message)),
            decode_message(encode_message(message)),
        ):
            assert clone == message and clone._hash_memo is None

    def test_memo_is_not_a_compared_shown_or_init_field(self):
        taken, fresh = self._echo(), self._echo()
        wire, text = encode_message(fresh), repr(fresh)
        hash(taken)
        assert taken == fresh and repr(taken) == text and "memo" not in text
        assert encode_message(taken) == wire
        assert pickle.dumps(taken) == pickle.dumps(fresh)
        assert [f.name for f in dataclasses.fields(BrachaMessage) if f.init] == [
            "mtype", "source", "bid", "payload", "creator",
        ]
        # Wrapping contents hash through the memo, equal before and after.
        assert hash(DolevMessage(taken, (1,))) == hash(DolevMessage(fresh, (1,)))

    def test_memo_does_not_travel_to_a_process_with_another_hash_seed(self):
        # ``bytes`` hashes are salted per process: a memo carried by pickle
        # would make the unpickled message miss under an equal fresh key.
        message = self._echo()
        hash(message)
        script = (
            "import pickle, sys\n"
            "from repro.core.messages import BrachaMessage, MessageType\n"
            "message = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = BrachaMessage(MessageType.ECHO, 1, 0, b'payload', creator=2)\n"
            "assert hash(message) == hash(fresh) and {message: 1}[fresh] == 1\n"
            "print(hash(fresh))\n"
        )
        hashes = set()
        for seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", script],
                input=pickle.dumps(message),
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": os.pathsep.join(sys.path)},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
            )
            assert done.returncode == 0, done.stderr.decode()
            hashes.add(done.stdout.strip())
        assert len(hashes) == 2  # the two children really hashed differently


SEND_X = BrachaMessage(MessageType.SEND, 0, 0, b"x")


class TestDolevMessage:
    def test_wire_size_with_bracha_content(self):
        inner = BrachaMessage(MessageType.ECHO, 1, 0, b"abc", creator=4)
        message = DolevMessage(content=inner, path=(5,))
        assert message.wire_size() == inner.wire_size() + 2 + 4

    def test_extended_appends_relay(self):
        message = DolevMessage(content=SEND_X, path=(1,))
        assert message.extended(2).path == (1, 2)

    def test_with_empty_path(self):
        message = DolevMessage(content=SEND_X, path=(1, 2, 3))
        assert message.with_empty_path().path == ()
        empty = DolevMessage(content=SEND_X, path=())
        assert empty.with_empty_path() is empty


class TestCrossLayerMessage:
    def test_minimal_message_costs_only_mtype(self):
        message = CrossLayerMessage(mtype=MessageType.READY)
        assert message.wire_size() == 1

    def test_full_message_size(self):
        message = CrossLayerMessage(
            mtype=MessageType.READY_ECHO,
            source=1,
            bid=2,
            creator=3,
            embedded_creator=4,
            payload=b"abcdefgh",
            local_payload_id=9,
            path=(5, 6),
        )
        expected = 1 + 4 + 4 + 4 + 4 + (4 + 8) + 4 + (2 + 8)
        assert message.wire_size() == expected

    def test_empty_path_still_costs_length_prefix(self):
        with_path = CrossLayerMessage(mtype=MessageType.ECHO, path=())
        without_path = CrossLayerMessage(mtype=MessageType.ECHO, path=None)
        assert with_path.wire_size() == without_path.wire_size() + 2

    def test_payload_omission_saves_payload_bytes(self):
        payload = bytes(1024)
        with_payload = CrossLayerMessage(
            mtype=MessageType.ECHO, source=0, bid=0, payload=payload, path=()
        )
        without_payload = CrossLayerMessage(
            mtype=MessageType.ECHO, source=0, bid=0, local_payload_id=1, path=()
        )
        assert with_payload.wire_size() - without_payload.wire_size() == 1024 + 4 - 4

    def test_effective_path(self):
        assert CrossLayerMessage(mtype=MessageType.ECHO).effective_path == ()
        assert CrossLayerMessage(mtype=MessageType.ECHO, path=(1,)).effective_path == (1,)

    def test_has_payload(self):
        assert CrossLayerMessage(mtype=MessageType.SEND, payload=b"").has_payload
        assert not CrossLayerMessage(mtype=MessageType.SEND).has_payload

    def test_with_fields(self):
        message = CrossLayerMessage(mtype=MessageType.ECHO, source=1)
        updated = message.with_fields(source=None, creator=5)
        assert updated.source is None
        assert updated.creator == 5
        assert message.source == 1

    def test_merged_types_flagged(self):
        assert MessageType.ECHO_ECHO.is_merged
        assert MessageType.READY_ECHO.is_merged
        assert not MessageType.ECHO.is_merged
        assert not MessageType.SEND.is_merged
