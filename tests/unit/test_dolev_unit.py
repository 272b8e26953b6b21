"""Unit tests for the Dolev disseminator and the MD.1–5 optimizations."""

import pytest

from repro.core.config import SystemConfig
from repro.core.events import BRBDeliver
from repro.core.messages import BrachaMessage, DolevMessage, MessageType
from repro.core.modifications import ModificationSet
from repro.brb.dolev import (
    DolevBroadcast,
    DolevDisseminator,
    content_origin,
)


def content(payload=b"m", source=0, bid=0, creator=None, mtype=MessageType.SEND):
    return BrachaMessage(mtype=mtype, source=source, bid=bid, payload=payload, creator=creator)


class TestContentOrigin:
    def test_send_origin_is_source(self):
        assert content_origin(content(source=4)) == 4

    def test_echo_origin_is_creator(self):
        assert content_origin(content(creator=7, mtype=MessageType.ECHO)) == 7


class TestPlainDisseminator:
    def test_originate_delivers_locally_and_floods(self):
        d = DolevDisseminator(0, [1, 2, 3], required_paths=2)
        out, delivered = d.originate(content(source=0))
        assert delivered == [content(source=0)]
        assert {s.dest for s in out} == {1, 2, 3}
        assert all(s.message.path == () for s in out)

    def test_originate_twice_is_noop(self):
        d = DolevDisseminator(0, [1], required_paths=1)
        d.originate(content(source=0))
        out, delivered = d.originate(content(source=0))
        assert out == [] and delivered == []

    def test_relay_appends_sender_and_avoids_path_members(self):
        d = DolevDisseminator(5, [1, 2, 3], required_paths=2)
        message = DolevMessage(content=content(source=0), path=(1,))
        out, delivered = d.on_message(2, message)
        assert delivered == []
        # Relays go to neighbors not in path ∪ {sender} ∪ {origin}.
        assert {s.dest for s in out} == {3}
        assert all(s.message.path == (1, 2) for s in out)

    def test_delivery_requires_disjoint_paths(self):
        d = DolevDisseminator(5, [1, 2, 3, 4], required_paths=2)
        c = content(source=0)
        _, delivered = d.on_message(1, DolevMessage(content=c, path=(6,)))
        assert delivered == []
        _, delivered = d.on_message(1, DolevMessage(content=c, path=(7,)))
        assert delivered == []  # same last hop, paths not disjoint
        _, delivered = d.on_message(2, DolevMessage(content=c, path=(8,)))
        assert delivered == [c]
        assert d.has_delivered(c)

    def test_plain_does_not_deliver_directly_from_source(self):
        d = DolevDisseminator(5, [0, 1, 2], required_paths=2, modifications=ModificationSet.none())
        c = content(source=0)
        _, delivered = d.on_message(0, DolevMessage(content=c, path=()))
        assert delivered == []  # only one path so far

    def test_direct_path_plus_one_disjoint_path_delivers(self):
        d = DolevDisseminator(5, [0, 1, 2], required_paths=2, modifications=ModificationSet.none())
        c = content(source=0)
        d.on_message(0, DolevMessage(content=c, path=()))
        _, delivered = d.on_message(1, DolevMessage(content=c, path=(3,)))
        assert delivered == [c]


class TestOptimizedDisseminator:
    def _disseminator(self, **kwargs):
        return DolevDisseminator(
            5,
            [0, 1, 2, 3],
            required_paths=2,
            modifications=ModificationSet.dolev_optimized(),
            **kwargs,
        )

    def test_md1_direct_delivery(self):
        d = self._disseminator()
        c = content(source=0)
        _, delivered = d.on_message(0, DolevMessage(content=c, path=()))
        assert delivered == [c]

    def test_md2_relays_empty_path_after_delivery(self):
        d = self._disseminator()
        c = content(source=0)
        out, _ = d.on_message(0, DolevMessage(content=c, path=()))
        assert out and all(s.message.path == () for s in out)

    def test_md3_skips_neighbors_that_delivered(self):
        d = self._disseminator()
        c = content(source=0)
        # Neighbor 1 announces delivery (empty path); it is not the origin.
        d.on_message(1, DolevMessage(content=c, path=()))
        out, _ = d.on_message(2, DolevMessage(content=c, path=(6,)))
        assert 1 not in {s.dest for s in out}

    def test_md4_ignores_paths_through_delivered_neighbors(self):
        d = self._disseminator()
        c = content(source=0)
        d.on_message(1, DolevMessage(content=c, path=()))  # neighbor 1 delivered
        out, delivered = d.on_message(2, DolevMessage(content=c, path=(1, 6)))
        assert out == [] and delivered == []

    def test_md5_stops_relaying_after_delivery(self):
        d = self._disseminator()
        c = content(source=0)
        d.on_message(0, DolevMessage(content=c, path=()))  # delivered + empty path sent
        out, delivered = d.on_message(2, DolevMessage(content=c, path=(6,)))
        assert out == [] and delivered == []

    def test_forged_path_with_absurd_ids_dropped(self):
        d = self._disseminator()
        c = content(source=0)
        out, delivered = d.on_message(1, DolevMessage(content=c, path=(2 ** 30,)))
        assert out == [] and delivered == []

    @pytest.mark.parametrize("forged", [(-1,), (2 ** 20,), (6, -3), (7,) * 4097])
    def test_forged_path_dropped_before_mask_encoding(self, forged):
        # The guard runs ahead of every ``1 << id``: a negative identifier
        # must be dropped silently, not raise ValueError from the shift.
        for mods in (ModificationSet.dolev_optimized(), ModificationSet.none()):
            d = DolevDisseminator(5, [0, 1, 2, 3], required_paths=2, modifications=mods)
            c = content(source=0)
            assert d.on_message(1, DolevMessage(content=c, path=forged)) == ([], [])
            assert d.state_size_estimate() == 0

    def test_forged_origin_is_not_shifted_by(self):
        # A claimed creator outside the id range is never an intermediary,
        # so it must not reach ``1 << origin`` either.
        d = self._disseminator()
        c = content(source=0, creator=-7, mtype=MessageType.ECHO)
        out, delivered = d.on_message(1, DolevMessage(content=c, path=(6,)))
        assert delivered == [] and {s.message.path for s in out} == {(6, 1)}

    def test_intermediaries_exclude_origin_and_self(self):
        # (0, 6) via 1 and (5, 7) via 2 share nothing once the origin 0 and
        # the receiver 5 are removed: two disjoint paths, delivery.
        d = DolevDisseminator(5, [0, 1, 2, 3], required_paths=2)
        c = content(source=0)
        _, first = d.on_message(1, DolevMessage(content=c, path=(0, 6)))
        _, second = d.on_message(2, DolevMessage(content=c, path=(5, 7)))
        assert first == [] and second == [c]

    def test_neighbors_that_delivered_accessor(self):
        d = self._disseminator()
        c = content(source=0)
        d.on_message(1, DolevMessage(content=c, path=()))
        assert d.neighbors_that_delivered(c) == frozenset({1})
        assert d.neighbors_that_delivered(content(payload=b"other")) == frozenset()


class TestDolevBroadcastProtocol:
    def test_broadcast_delivers_locally(self):
        config = SystemConfig.for_system(5, 1)
        protocol = DolevBroadcast(0, config, [1, 2, 3])
        commands = protocol.broadcast(b"payload", bid=2)
        deliveries = [c for c in commands if isinstance(c, BRBDeliver)]
        assert deliveries == [BRBDeliver(source=0, bid=2, payload=b"payload")]
        assert protocol.delivered[(0, 2)] == b"payload"

    def test_dolev_optimized_modifications_enable_md(self):
        config = SystemConfig.for_system(5, 1)
        protocol = DolevBroadcast(
            0, config, [1, 2], modifications=ModificationSet.dolev_optimized()
        )
        assert protocol.modifications.md1_deliver_from_source
        assert protocol.modifications.md5_stop_after_delivery

    def test_non_dolev_message_ignored(self):
        config = SystemConfig.for_system(5, 1)
        protocol = DolevBroadcast(1, config, [0, 2])
        assert protocol.on_message(0, b"garbage") == []
        assert protocol.on_message(0, DolevMessage(content=b"raw", path=())) == []

    def test_duplicate_delivery_suppressed(self):
        config = SystemConfig.for_system(5, 0)
        protocol = DolevBroadcast(
            1, config, [0, 2], modifications=ModificationSet.dolev_optimized()
        )
        c = content(source=0, bid=3)
        first = protocol.on_message(0, DolevMessage(content=c, path=()))
        assert BRBDeliver(source=0, bid=3, payload=b"m") in first
        second = protocol.on_message(2, DolevMessage(content=c, path=(0,)))
        assert not any(isinstance(cmd, BRBDeliver) for cmd in second)
