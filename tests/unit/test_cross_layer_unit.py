"""White-box unit tests of the cross-layer protocol's message construction.

These tests drive a single protocol instance directly (no network) and
inspect the wire messages it produces, to check the field-level effects of
MBD.1, MBD.2, MBD.3/4, MBD.5, MBD.11 and MBD.12.
"""

from repro.brb.optimized import protocol as protocol_module
from repro.core.config import SystemConfig
from repro.core.events import sends
from repro.core.messages import CrossLayerMessage, MessageType
from repro.core.modifications import ModificationSet
from repro.brb.optimized import CrossLayerBrachaDolev


def make_protocol(pid=0, n=7, f=1, neighbors=(1, 2, 3), mods=None):
    config = SystemConfig.for_system(n, f)
    return CrossLayerBrachaDolev(
        pid,
        config,
        list(neighbors),
        modifications=mods if mods is not None else ModificationSet.dolev_optimized(),
    )


def echo_from(creator, payload=b"m", source=0, bid=0, path=()):
    return CrossLayerMessage(
        mtype=MessageType.ECHO,
        source=source,
        bid=bid,
        creator=creator,
        payload=payload,
        path=path,
    )


def ready_from(creator, payload=b"m", source=0, bid=0, path=()):
    return CrossLayerMessage(
        mtype=MessageType.READY,
        source=source,
        bid=bid,
        creator=creator,
        payload=payload,
        path=path,
    )


MERGING = ModificationSet.dolev_optimized().with_enabled(
    "mbd3_echo_echo", "mbd4_ready_echo"
)


def group(protocol, dests, kind, creator, path=()):
    """A fan-out group as the protocol's handlers hand it to ``_finalize``."""
    record = protocol._slot(0, 0).payload_record(b"m")
    return (list(dests), kind, creator, record, path, None)


def wire_summary(commands):
    return [
        (c.dest, c.message.mtype.name, c.message.creator, c.message.embedded_creator)
        for c in sends(commands)
    ]


class TestBroadcastWireFormat:
    def test_bdopt_send_carries_payload_and_path(self):
        protocol = make_protocol()
        commands = protocol.broadcast(b"payload", bid=4)
        send_messages = [c.message for c in sends(commands) if c.message.mtype == MessageType.SEND]
        assert len(send_messages) == 3
        for message in send_messages:
            assert message.payload == b"payload"
            assert message.bid == 4
            assert message.path == ()

    def test_source_also_sends_its_own_echo(self):
        protocol = make_protocol()
        commands = protocol.broadcast(b"payload")
        echo_messages = [c.message for c in sends(commands) if c.message.mtype == MessageType.ECHO]
        assert len(echo_messages) == 3

    def test_mbd2_send_has_no_path_field(self):
        mods = ModificationSet.dolev_optimized().with_enabled("mbd2_single_hop_send")
        protocol = make_protocol(mods=mods)
        commands = protocol.broadcast(b"payload")
        send_messages = [c.message for c in sends(commands) if c.message.mtype == MessageType.SEND]
        assert send_messages and all(m.path is None for m in send_messages)

    def test_mbd12_limits_fanout_to_two_f_plus_one(self):
        mods = ModificationSet.dolev_optimized().with_enabled("mbd12_reduced_fanout")
        protocol = make_protocol(n=10, f=1, neighbors=(1, 2, 3, 4, 5, 6), mods=mods)
        commands = protocol.broadcast(b"payload")
        send_dests = {c.dest for c in sends(commands) if c.message.mtype == MessageType.SEND}
        assert len(send_dests) == 3  # 2f + 1

    def test_mbd11_non_generator_does_not_echo(self):
        mods = ModificationSet.dolev_optimized().with_enabled("mbd11_role_restriction")
        config = SystemConfig.for_system(10, 1)
        # Pick a process that is not an echo generator for source 0.
        non_generator = next(
            p for p in config.processes if p not in config.echo_generators(0) and p != 0
        )
        protocol = CrossLayerBrachaDolev(
            non_generator, config, [p for p in range(10) if p != non_generator][:5],
            modifications=mods,
        )
        send = CrossLayerMessage(
            mtype=MessageType.SEND, source=0, bid=0, payload=b"m", path=()
        )
        commands = protocol.on_message(0, send) if 0 in protocol.neighbors else []
        echoes = [c for c in sends(commands) if c.message.mtype == MessageType.ECHO]
        assert echoes == []


class TestMBD1LocalIds:
    def test_payload_sent_once_per_neighbor(self):
        mods = ModificationSet.bdopt_with_mbd1()
        protocol = make_protocol(pid=5, n=7, f=1, neighbors=(1, 2, 3), mods=mods)
        # Receive the SEND directly from the source... process 5 is not a
        # neighbor of 0 here, so feed an ECHO carrying the payload instead.
        first = protocol.on_message(1, echo_from(1, path=()))
        second = protocol.on_message(2, echo_from(2, path=()))
        outgoing = [c.message for c in sends(first) + sends(second)]
        with_payload = [m for m in outgoing if m.payload is not None]
        without_payload = [m for m in outgoing if m.payload is None]
        # Each neighbor receives the payload at most once.
        dests_with_payload = [c.dest for c in sends(first) + sends(second) if c.message.payload is not None]
        assert len(dests_with_payload) == len(set(dests_with_payload))
        # Later messages rely on the local payload id.
        assert all(m.local_payload_id is not None for m in without_payload)
        assert all(m.local_payload_id is not None for m in with_payload)

    def test_message_with_unknown_local_id_is_queued(self):
        mods = ModificationSet.bdopt_with_mbd1()
        protocol = make_protocol(pid=5, n=7, f=1, neighbors=(1, 2, 3), mods=mods)
        orphan = CrossLayerMessage(
            mtype=MessageType.ECHO, creator=1, local_payload_id=9, path=()
        )
        assert protocol.on_message(1, orphan) == []
        # Once neighbor 1 reveals the mapping, the queued echo is processed too.
        reveal = CrossLayerMessage(
            mtype=MessageType.ECHO,
            source=0,
            bid=0,
            creator=2,
            payload=b"m",
            local_payload_id=9,
            path=(2,),
        )
        commands = protocol.on_message(1, reveal)
        assert commands  # both the revealed echo and the queued echo are handled

    def test_unknown_local_ids_are_capped_per_neighbor(self):
        cap = protocol_module._MAX_PENDING_LOCAL_IDS_PER_NEIGHBOR
        protocol = make_protocol(
            pid=5, neighbors=(1, 2, 3), mods=ModificationSet.bdopt_with_mbd1()
        )
        for local_id in range(100_000):
            orphan = CrossLayerMessage(
                mtype=MessageType.ECHO, creator=1, local_payload_id=local_id, path=()
            )
            assert protocol.on_message(1, orphan) == []
        assert protocol.state_size_estimate() == cap
        # The cap is per sender: neighbor 1 only starved its own link.
        orphan = CrossLayerMessage(
            mtype=MessageType.ECHO, creator=2, local_payload_id=7, path=()
        )
        protocol.on_message(2, orphan)
        assert protocol.state_size_estimate() == cap + 1

    def test_announcement_unblocks_its_queue_after_the_cap_was_hit(self):
        cap = protocol_module._MAX_PENDING_LOCAL_IDS_PER_NEIGHBOR
        protocol = make_protocol(
            pid=5, neighbors=(1, 2, 3), mods=ModificationSet.bdopt_with_mbd1()
        )
        for local_id in range(2 * cap):
            orphan = CrossLayerMessage(
                mtype=MessageType.ECHO, creator=1, local_payload_id=local_id, path=()
            )
            protocol.on_message(1, orphan)
        reveal = CrossLayerMessage(
            mtype=MessageType.ECHO,
            source=0,
            bid=0,
            creator=2,
            payload=b"m",
            local_payload_id=9,
            path=(2,),
        )
        assert protocol.on_message(1, reveal)
        record = protocol._slots[(0, 0)].payloads[b"m"]
        # Both the revealed ECHO and the one queued on id 9 were handled ...
        assert (MessageType.ECHO, 2) in record.contents
        assert record.contents[(MessageType.ECHO, 1)].delivered
        # ... and the freed slot takes a new unknown id, a dropped one stays dropped.
        assert len(protocol._pending_local[1]) == cap - 1
        fresh = CrossLayerMessage(
            mtype=MessageType.ECHO, creator=1, local_payload_id=10 * cap, path=()
        )
        protocol.on_message(1, fresh)
        protocol.on_message(1, fresh)
        assert protocol._pending_local[1][10 * cap] == [fresh, fresh]
        assert 2 * cap - 1 not in protocol._pending_local[1]

    def test_without_mbd1_every_message_carries_payload(self):
        protocol = make_protocol(mods=ModificationSet.dolev_optimized())
        commands = protocol.on_message(1, echo_from(1, path=()))
        assert all(c.message.payload is not None for c in sends(commands))


class TestMBD5OptionalFields:
    def test_newly_created_echo_omits_creator(self):
        mods = ModificationSet.dolev_optimized().with_enabled("mbd5_optional_fields")
        protocol = make_protocol(pid=2, n=7, f=1, neighbors=(0, 1, 3), mods=mods)
        send = CrossLayerMessage(
            mtype=MessageType.SEND, source=0, bid=0, payload=b"m", path=()
        )
        commands = protocol.on_message(0, send)
        own_echoes = [
            c.message
            for c in sends(commands)
            if c.message.mtype == MessageType.ECHO and c.message.path == ()
        ]
        assert own_echoes and all(m.creator is None for m in own_echoes)

    def test_relayed_echo_keeps_creator(self):
        mods = ModificationSet.dolev_optimized().with_enabled("mbd5_optional_fields")
        protocol = make_protocol(pid=2, n=7, f=2, neighbors=(0, 1, 3), mods=mods)
        commands = protocol.on_message(1, echo_from(4, path=(5,)))
        relayed = [c.message for c in sends(commands) if c.message.mtype == MessageType.ECHO]
        assert relayed and all(m.creator == 4 for m in relayed)

    def test_creator_defaults_to_sender_on_reception(self):
        # A message without a creator field is attributed to the link sender.
        protocol = make_protocol(pid=2, n=4, f=1, neighbors=(0, 1, 3))
        anonymous_echo = CrossLayerMessage(
            mtype=MessageType.ECHO, source=0, bid=0, payload=b"m", path=()
        )
        protocol.on_message(1, anonymous_echo)
        slot = protocol._slots[(0, 0)]
        record = slot.payloads[b"m"]
        assert 1 in record.echo_creators


class TestMergedMessages:
    def test_ready_echo_created_when_delivery_triggers_ready(self):
        mods = ModificationSet.dolev_optimized().with_enabled(
            "mbd3_echo_echo", "mbd4_ready_echo"
        )
        # n=4, f=1 -> echo quorum 3.  The process first echoes the source's
        # SEND, then receives two foreign echoes; the third echo completes
        # the quorum, so its (empty-path) relay and the newly created READY
        # are merged into one READY_ECHO message.
        protocol = make_protocol(pid=3, n=4, f=1, neighbors=(0, 1, 2), mods=mods)
        send = CrossLayerMessage(
            mtype=MessageType.SEND, source=0, bid=0, payload=b"m", path=()
        )
        protocol.on_message(0, send)
        protocol.on_message(1, echo_from(1, path=()))
        commands = protocol.on_message(2, echo_from(2, path=()))
        merged = [c.message for c in sends(commands) if c.message.mtype == MessageType.READY_ECHO]
        assert merged
        assert all(m.creator == 3 and m.embedded_creator == 2 for m in merged)

    def test_amplification_cascade_produces_merged_messages(self):
        mods = ModificationSet.dolev_optimized().with_enabled(
            "mbd3_echo_echo", "mbd4_ready_echo"
        )
        # Without the SEND, the f+1-th echo triggers echo amplification which
        # immediately cascades into a READY; the relayed echo is merged with
        # one of the created messages (MBD.3 or MBD.4).
        protocol = make_protocol(pid=3, n=4, f=1, neighbors=(0, 1, 2), mods=mods)
        protocol.on_message(0, echo_from(0, path=()))
        commands = protocol.on_message(1, echo_from(1, path=()))
        assert any(c.message.mtype.is_merged for c in sends(commands))

    def test_merged_message_decomposition_counts_both_contents(self):
        protocol = make_protocol(pid=3, n=7, f=1, neighbors=(0, 1, 2))
        merged = CrossLayerMessage(
            mtype=MessageType.READY_ECHO,
            source=0,
            bid=0,
            creator=4,
            embedded_creator=5,
            payload=b"m",
            path=(6,),
        )
        protocol.on_message(1, merged)
        record = protocol._slots[(0, 0)].payloads[b"m"]
        assert (MessageType.READY, 4) in record.contents
        assert (MessageType.ECHO, 5) in record.contents

    def test_echo_echo_decomposition(self):
        protocol = make_protocol(pid=3, n=7, f=1, neighbors=(0, 1, 2))
        merged = CrossLayerMessage(
            mtype=MessageType.ECHO_ECHO,
            source=0,
            bid=0,
            creator=4,
            embedded_creator=5,
            payload=b"m",
            path=(),
        )
        protocol.on_message(1, merged)
        record = protocol._slots[(0, 0)].payloads[b"m"]
        assert (MessageType.ECHO, 4) in record.contents
        assert (MessageType.ECHO, 5) in record.contents

    def test_no_merging_when_disabled(self):
        protocol = make_protocol(pid=3, n=4, f=1, neighbors=(0, 1, 2))
        protocol.on_message(0, echo_from(0, path=()))
        protocol.on_message(1, echo_from(1, path=()))
        commands = protocol.on_message(2, echo_from(2, path=()))
        assert all(
            not c.message.mtype.is_merged for c in sends(commands)
        )


    def test_only_the_common_destinations_merge(self):
        # MBD.8/9/12 give two groups different destination lists: the
        # intersection merges in the first group's place, the rest goes
        # out plain — first group in neighbor order, then what is left of
        # the second.
        protocol = make_protocol(pid=3, neighbors=(0, 1, 2, 4, 5), mods=MERGING)
        commands = protocol._finalize(
            [
                group(protocol, (0, 2, 4, 5), MessageType.ECHO, 1),
                group(protocol, (2, 5, 1), MessageType.READY, 3),
            ]
        )
        assert wire_summary(commands) == [
            (0, "ECHO", 1, None),
            (2, "READY_ECHO", 3, 1),
            (4, "ECHO", 1, None),
            (5, "READY_ECHO", 3, 1),
            (1, "READY", 3, None),
        ]

    def test_three_groups_consume_each_destination_at_most_once(self):
        protocol = make_protocol(pid=3, neighbors=(0, 1, 2, 4, 5), mods=MERGING)
        commands = protocol._finalize(
            [
                group(protocol, (0, 4), MessageType.ECHO, 1),
                group(protocol, (0, 4), MessageType.READY, 3),
                group(protocol, (0, 4), MessageType.ECHO, 2),
            ]
        )
        assert wire_summary(commands) == [
            (0, "READY_ECHO", 3, 1),
            (4, "READY_ECHO", 3, 1),
            (0, "ECHO", 2, None),
            (4, "ECHO", 2, None),
        ]
        # Where the own READY does not go, the two relayed announcements
        # pair up instead (the later one outside); a destination the
        # first group took from a later one is not offered again.
        commands = protocol._finalize(
            [
                group(protocol, (0, 4), MessageType.ECHO, 1),
                group(protocol, (0,), MessageType.READY, 3),
                group(protocol, (0, 4), MessageType.ECHO, 2),
            ]
        )
        assert wire_summary(commands) == [
            (0, "READY_ECHO", 3, 1),
            (4, "ECHO_ECHO", 2, 1),
            (0, "ECHO", 2, None),
        ]

    def test_own_echo_is_the_outer_content_of_an_echo_echo(self):
        protocol = make_protocol(pid=3, neighbors=(0, 1, 2), mods=MERGING)
        for groups in (
            [group(protocol, (0,), MessageType.ECHO, 3), group(protocol, (0,), MessageType.ECHO, 1)],
            [group(protocol, (0,), MessageType.ECHO, 1), group(protocol, (0,), MessageType.ECHO, 3)],
        ):
            assert wire_summary(protocol._finalize(groups)) == [(0, "ECHO_ECHO", 3, 1)]

    def test_what_never_merges(self):
        bdopt = ModificationSet.dolev_optimized()
        echo_1, echo_2, ready_3, ready_4 = (
            ((0,), MessageType.ECHO, 1),
            ((0,), MessageType.ECHO, 2),
            ((0,), MessageType.READY, 3),
            ((0,), MessageType.READY, 4),
        )

        def kinds(mods, *specs):
            protocol = make_protocol(pid=3, neighbors=(0, 1, 2), mods=mods)
            commands = protocol._finalize([group(protocol, *spec) for spec in specs])
            return [c.message.mtype.name for c in sends(commands)]

        # MBD.3 alone never builds READY_ECHO, MBD.4 alone never ECHO_ECHO.
        mbd3 = bdopt.with_enabled("mbd3_echo_echo")
        mbd4 = bdopt.with_enabled("mbd4_ready_echo")
        assert kinds(mbd3, echo_1, ready_3) == ["ECHO", "READY"]
        assert kinds(mbd3, echo_1, echo_2) == ["ECHO_ECHO"]
        assert kinds(mbd4, echo_1, echo_2) == ["ECHO", "ECHO"]
        assert kinds(mbd4, echo_1, ready_3) == ["READY_ECHO"]
        # Two ECHOs of one creator, two READYs, a SEND, different paths.
        assert kinds(MERGING, echo_1, echo_1) == ["ECHO", "ECHO"]
        assert kinds(MERGING, ready_3, ready_4) == ["READY", "READY"]
        assert kinds(MERGING, ((0,), MessageType.SEND, 0), echo_1) == ["SEND", "ECHO"]
        assert kinds(MERGING, ((0,), MessageType.ECHO, 1, (5,)), ready_3) == [
            "ECHO",
            "READY",
        ]

    def test_merged_message_has_a_bare_and_a_payload_variant_under_mbd1(self):
        protocol = make_protocol(
            pid=3,
            neighbors=(0, 1, 2, 4, 5),
            mods=MERGING.with_enabled("mbd1_local_payload_ids"),
        )
        record = protocol._slot(0, 0).payload_record(b"m")
        record.announced_to.update((0, 4))
        commands = protocol._finalize(
            [
                group(protocol, (0, 2, 4, 5), MessageType.ECHO, 1),
                group(protocol, (0, 2, 4, 5), MessageType.READY, 3),
            ]
        )
        to_0, to_2, to_4, to_5 = (c.message for c in sends(commands))
        assert [c.dest for c in sends(commands)] == [0, 2, 4, 5]
        assert to_0 is to_4 and to_2 is to_5
        assert to_0.payload is None and to_2.payload == b"m"
        assert to_0.local_payload_id == to_2.local_payload_id == record.my_local_id
        for message in (to_0, to_2):
            assert message.mtype is MessageType.READY_ECHO
            assert (message.creator, message.embedded_creator) == (3, 1)
        assert len(record.wire_cache) == 2
        assert record.announced_to == {0, 2, 4, 5}


class TestRobustness:
    def test_garbage_message_ignored(self):
        protocol = make_protocol()
        assert protocol.on_message(1, "garbage") == []
        assert protocol.on_message(1, CrossLayerMessage(mtype=MessageType.ECHO)) == []

    def test_unknown_source_ignored(self):
        protocol = make_protocol()
        message = CrossLayerMessage(
            mtype=MessageType.SEND, source=99, bid=0, payload=b"m", path=()
        )
        assert protocol.on_message(1, message) == []

    def test_forged_path_with_unknown_ids_ignored(self):
        protocol = make_protocol(pid=2, n=7, f=1, neighbors=(0, 1, 3))
        message = echo_from(4, path=(77,))
        assert sends(protocol.on_message(1, message)) == ()

    def test_untyped_and_incomplete_merged_messages_ignored(self):
        protocol = make_protocol(pid=3, neighbors=(0, 1, 2))
        fields = dict(source=0, bid=0, creator=4, payload=b"m", path=())
        for message in (
            CrossLayerMessage(mtype=2, **fields),  # a plain int, not the enum
            CrossLayerMessage(mtype=5, embedded_creator=5, **fields),
            CrossLayerMessage(mtype=MessageType.ECHO_ECHO, **fields),
            CrossLayerMessage(mtype=MessageType.READY_ECHO, **fields),
        ):
            assert protocol.on_message(1, message) == []
        assert protocol._slots[(0, 0)].payloads[b"m"].contents == {}

    def test_forged_outer_creator_also_drops_the_embedded_content(self):
        # The embedded ECHO travelled through the outer creator, so its
        # path contains the forged id.
        protocol = make_protocol(pid=3, neighbors=(0, 1, 2))
        merged = CrossLayerMessage(
            mtype=MessageType.READY_ECHO,
            source=0,
            bid=0,
            creator=99,
            embedded_creator=5,
            payload=b"m",
            path=(),
        )
        assert protocol.on_message(1, merged) == []
        assert protocol._slots[(0, 0)].payloads[b"m"].contents == {}

    def test_duplicate_broadcast_is_idempotent(self):
        protocol = make_protocol()
        first = protocol.broadcast(b"m", bid=1)
        second = protocol.broadcast(b"m", bid=1)
        assert first and second == []

    def test_state_size_estimate_grows_with_traffic(self):
        protocol = make_protocol(pid=2, n=7, f=2, neighbors=(0, 1, 3))
        baseline = protocol.state_size_estimate()
        protocol.on_message(1, echo_from(4, path=(5,)))
        protocol.on_message(3, echo_from(4, path=(6,)))
        assert protocol.state_size_estimate() > baseline
