"""Unit tests for the Byzantine behaviour library."""

import pytest

from repro.core.config import SystemConfig
from repro.core.events import BRBDeliver, SendTo, sends
from repro.core.messages import (
    BrachaMessage,
    CrossLayerMessage,
    DolevMessage,
    MessageType,
)
from repro.core.modifications import ModificationSet
from repro.brb.optimized import CrossLayerBrachaDolev
from repro.network.adversary import (
    BEHAVIOUR_NAMES,
    CrashingProcess,
    EmptyPayloadRelay,
    EquivocatingSource,
    LimitedBroadcastRelay,
    MessageDroppingRelay,
    MuteProcess,
    PathForgingRelay,
    PathTruncatingRelay,
    SenderRewritingRelay,
    build_behaviour,
)


def correct_protocol(pid=1, n=7, f=1, neighbors=(0, 2, 3)):
    config = SystemConfig.for_system(n, f)
    return CrossLayerBrachaDolev(
        pid, config, list(neighbors), modifications=ModificationSet.dolev_optimized()
    )


def sample_echo(path=()):
    return CrossLayerMessage(
        mtype=MessageType.ECHO, source=0, bid=0, creator=0, payload=b"m", path=path
    )


def dolev_send(path):
    return DolevMessage(content=BrachaMessage(MessageType.SEND, 0, 0, b"x"), path=path)


class _StaticInner:
    """A fake correct protocol replying with a fixed command batch."""

    def __init__(self, pid=1, neighbors=(0, 2, 3, 4), commands=()):
        self.process_id = pid
        self.neighbors = tuple(neighbors)
        self._commands = list(commands)

    def on_start(self):
        return []

    def broadcast(self, payload, bid=0):
        return list(self._commands)

    def on_message(self, sender, message):
        return list(self._commands)


class TestMuteProcess:
    def test_never_sends(self):
        mute = MuteProcess(1, [0, 2])
        assert mute.broadcast(b"x") == []
        assert mute.on_message(0, sample_echo()) == []
        assert mute.on_start() == []
        assert mute.state_size_estimate() == 0


class TestCrashingProcess:
    def test_behaves_correctly_before_crash(self):
        crashing = CrashingProcess(correct_protocol(), crash_after=100)
        assert not crashing.crashed
        assert crashing.on_message(0, sample_echo())  # forwards/relays something

    def test_stops_after_crash_point(self):
        crashing = CrashingProcess(correct_protocol(), crash_after=1)
        crashing.on_message(0, sample_echo())
        assert crashing.crashed
        assert crashing.on_message(0, sample_echo(path=(5,))) == []
        assert crashing.broadcast(b"x") == []

    def test_negative_crash_point_rejected(self):
        with pytest.raises(ValueError):
            CrashingProcess(correct_protocol(), crash_after=-1)

    def test_crash_mid_message_ships_floor_half_prefix(self):
        # Regression: the crash branch used to read
        # ``max(0, len(commands) // 2)`` — the ``max`` guard was dead
        # (a floor-halved length is never negative).  Pin the intended
        # semantics: the crashing process gets exactly the first
        # ``floor(n / 2)`` of its outgoing sends onto the wire, each
        # destination of a fan-out counted as one send.
        for total in (1, 2, 3, 4, 5):
            batch = [SendTo((d,), sample_echo()) for d in range(total)]
            crashing = CrashingProcess(_StaticInner(commands=batch), crash_after=1)
            out = crashing.on_message(0, sample_echo())
            assert out == batch[: total // 2]
            assert crashing.crashed
        # One command naming 5 neighbours: exactly the first 2 go out.
        message = sample_echo()
        batch = [SendTo((0, 2, 3, 4, 5), message)]
        crashing = CrashingProcess(_StaticInner(commands=batch), crash_after=1)
        assert crashing.on_message(0, sample_echo()) == [SendTo((0, 2), message)]
        # A delivery counts as one, as it always did.
        delivery = BRBDeliver(0, 0, b"m")
        batch = [SendTo((0, 2), message), delivery, SendTo((3, 4, 5), message)]
        crashing = CrashingProcess(_StaticInner(commands=batch), crash_after=1)
        assert crashing.on_message(0, sample_echo()) == [SendTo((0, 2), message), delivery]


class TestMessageDroppingRelay:
    def test_drop_probability_validated(self):
        with pytest.raises(ValueError):
            MessageDroppingRelay(correct_protocol(), drop_probability=1.5)

    def test_drop_all(self):
        dropper = MessageDroppingRelay(correct_protocol(), drop_probability=1.0)
        assert sends(dropper.on_message(0, sample_echo())) == ()
        assert dropper.dropped > 0

    def test_drop_none_is_transparent(self):
        inner = correct_protocol()
        reference = correct_protocol()
        dropper = MessageDroppingRelay(inner, drop_probability=0.0)
        assert len(sends(dropper.on_message(0, sample_echo()))) == len(
            sends(reference.on_message(0, sample_echo()))
        )


class TestPathForgingRelay:
    def test_paths_are_rewritten(self):
        config = SystemConfig.for_system(7, 1)
        forger = PathForgingRelay(correct_protocol(), config, seed=3)
        commands = sends(forger.on_message(0, sample_echo(path=(4, 5))))
        assert commands
        assert forger.forged > 0
        for _, message in commands:
            if isinstance(message, CrossLayerMessage) and message.path is not None:
                assert all(config.is_process(p) for p in message.path)

    def test_dolev_messages_also_forged(self):
        class _Passthrough:
            process_id = 1
            neighbors = (0, 2)

            def on_message(self, sender, message):
                return [SendTo((2,), message)]

            def on_start(self):
                return []

            def broadcast(self, payload, bid=0):
                return []

        config = SystemConfig.for_system(5, 1)
        forger = PathForgingRelay(_Passthrough(), config, seed=1)
        message = dolev_send(path=(3, 4))
        out = sends(forger.on_message(0, message))
        assert out and isinstance(out[0][1], DolevMessage)


class TestEquivocatingSource:
    def test_sends_conflicting_payloads(self):
        source = EquivocatingSource(0, [1, 2, 3, 4], family="cross_layer")
        commands = sends(source.broadcast(b"value-a", bid=0))
        payloads = {m.payload for _, m in commands}
        assert len(commands) == 4
        assert len(payloads) == 2

    def test_explicit_conflicting_payload(self):
        source = EquivocatingSource(
            0, [1, 2], family="bracha", conflicting_payload=b"evil"
        )
        commands = sends(source.broadcast(b"good", bid=0))
        assert {m.payload for _, m in commands} == {b"good", b"evil"}

    def test_bracha_dolev_family_wraps_in_dolev_message(self):
        source = EquivocatingSource(0, [1, 2], family="bracha_dolev")
        commands = sends(source.broadcast(b"x", bid=0))
        assert all(isinstance(m, DolevMessage) for _, m in commands)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            EquivocatingSource(0, [1], family="unknown")

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, 7])
    def test_both_payloads_on_the_wire_for_every_degree(self, degree):
        # Regression: the old split left some degrees sending only one
        # payload, so the equivocator degenerated to a correct (or
        # merely wrong-value) source and agreement was never stressed.
        # Every degree >= 2 — odd degrees included — must put BOTH
        # payloads on the wire, ceil(n/2) genuine and floor(n/2)
        # conflicting.
        neighbors = list(range(1, degree + 1))
        source = EquivocatingSource(
            0, neighbors, family="cross_layer", conflicting_payload=b"evil"
        )
        commands = sends(source.broadcast(b"good", bid=0))
        assert len(commands) == degree
        payloads = [m.payload for _, m in commands]
        assert payloads.count(b"good") == (degree + 1) // 2
        assert payloads.count(b"evil") == degree // 2

    def test_single_neighbor_deterministically_gets_genuine_payload(self):
        source = EquivocatingSource(0, [1], family="cross_layer")
        commands = sends(source.broadcast(b"good", bid=0))
        assert [(d, m.payload) for d, m in commands] == [(1, b"good")]

    def test_seeded_conflicting_payload_is_deterministic_per_seed(self):
        payload = b"genuine"

        def other(seed):
            source = EquivocatingSource(0, [1, 2], family="bracha", seed=seed)
            commands = sends(source.broadcast(payload, bid=0))
            (conflicting,) = {m.payload for _, m in commands} - {payload}
            return conflicting

        assert other(5) == other(5)  # same seed, same lie
        assert other(5) != other(6)  # different seeds, different lies
        assert other(5) != payload
        # Seed 0 keeps the historical derivation (reversed payload).
        assert other(0) == bytes(reversed(payload))


class TestPathTruncatingRelay:
    def test_paths_are_truncated_to_a_proper_prefix(self):
        batch = [SendTo((2,), sample_echo(path=(3, 4, 5)))]
        relay = PathTruncatingRelay(_StaticInner(commands=batch), seed=1)
        commands = sends(relay.on_message(0, sample_echo()))
        assert commands and relay.truncated > 0
        for _, message in commands:
            path = message.path
            assert len(path) < 3
            assert path == (3, 4, 5)[: len(path)]

    def test_dolev_messages_also_truncated(self):
        batch = [SendTo((2,), dolev_send(path=(3, 4)))]
        relay = PathTruncatingRelay(_StaticInner(commands=batch), seed=1)
        out = sends(relay.on_message(0, dolev_send(path=(3,))))
        assert out and isinstance(out[0][1], DolevMessage)
        assert len(out[0][1].path) < 2

    def test_empty_paths_are_left_alone(self):
        batch = [SendTo((2,), sample_echo(path=()))]
        relay = PathTruncatingRelay(_StaticInner(commands=batch), seed=1)
        out = sends(relay.on_message(0, sample_echo()))
        assert out[0][1].path == ()
        assert relay.truncated == 0

    def test_same_seed_same_mutations(self):
        batch = [SendTo((2,), sample_echo(path=(3, 4, 5, 6)))]
        runs = []
        for _ in range(2):
            relay = PathTruncatingRelay(_StaticInner(commands=batch), seed=9)
            runs.append(
                [
                    m.path
                    for _, m in sends(relay.on_message(0, sample_echo()))
                ]
                + [
                    m.path
                    for _, m in sends(relay.on_message(0, sample_echo()))
                ]
            )
        assert runs[0] == runs[1]


class TestSenderRewritingRelay:
    def _bracha(self, source=0):
        return BrachaMessage(
            mtype=MessageType.ECHO, source=source, bid=0, payload=b"m"
        )

    def test_bracha_source_is_rewritten(self):
        config = SystemConfig.for_system(7, 1)
        batch = [SendTo((2,), self._bracha(source=0))]
        relay = SenderRewritingRelay(_StaticInner(commands=batch), config, seed=3)
        commands = sends(relay.on_message(0, self._bracha()))
        assert commands and relay.rewritten > 0
        for _, message in commands:
            assert message.source != 0
            assert config.is_process(message.source)

    def test_dolev_wrapped_bracha_source_is_rewritten(self):
        config = SystemConfig.for_system(7, 1)
        batch = [
            SendTo((2,), DolevMessage(content=self._bracha(), path=(4,)))
        ]
        relay = SenderRewritingRelay(_StaticInner(commands=batch), config, seed=3)
        commands = sends(relay.on_message(0, self._bracha()))
        assert commands[0][1].content.source != 0
        assert commands[0][1].path == (4,)  # the route itself is untouched

    def test_cross_layer_source_is_rewritten(self):
        config = SystemConfig.for_system(7, 1)
        batch = [SendTo((2,), sample_echo(path=(4,)))]
        relay = SenderRewritingRelay(_StaticInner(commands=batch), config, seed=3)
        commands = sends(relay.on_message(0, sample_echo()))
        assert commands[0][1].source != 0

    def test_same_seed_same_fake_sources(self):
        config = SystemConfig.for_system(7, 1)
        batch = [SendTo((2,), self._bracha())]

        def run():
            relay = SenderRewritingRelay(
                _StaticInner(commands=batch), config, seed=5
            )
            return [
                sends(relay.on_message(0, self._bracha()))[0][1].source
                for _ in range(4)
            ]

        assert run() == run()


class TestEmptyPayloadRelay:
    def test_cross_layer_payload_is_emptied(self):
        batch = [SendTo((2,), sample_echo())]
        relay = EmptyPayloadRelay(_StaticInner(commands=batch))
        commands = sends(relay.on_message(0, sample_echo()))
        assert commands[0][1].payload == b""
        assert relay.emptied > 0

    def test_bracha_inside_dolev_is_emptied(self):
        inner_message = BrachaMessage(
            mtype=MessageType.SEND, source=0, bid=0, payload=b"m"
        )
        batch = [
            SendTo((2,), DolevMessage(content=inner_message, path=(3,)))
        ]
        relay = EmptyPayloadRelay(_StaticInner(commands=batch))
        commands = sends(relay.on_message(0, sample_echo()))
        assert commands[0][1].content.payload == b""
        assert commands[0][1].path == (3,)

    def test_already_empty_payload_is_left_alone(self):
        message = CrossLayerMessage(
            mtype=MessageType.ECHO, source=0, bid=0, creator=0, payload=b"", path=()
        )
        batch = [SendTo((2,), message)]
        relay = EmptyPayloadRelay(_StaticInner(commands=batch))
        commands = sends(relay.on_message(0, sample_echo()))
        assert commands[0][1] is message
        assert relay.emptied == 0


class TestLimitedBroadcastRelay:
    def test_targets_are_a_nonempty_strict_subset(self):
        relay = LimitedBroadcastRelay(
            _StaticInner(neighbors=(0, 2, 3, 4)), seed=7
        )
        assert relay.targets
        assert relay.targets < set(relay.neighbors)

    def test_sends_outside_the_subset_are_suppressed(self):
        neighbors = (0, 2, 3, 4)
        batch = [SendTo((d,), sample_echo()) for d in neighbors]
        relay = LimitedBroadcastRelay(
            _StaticInner(neighbors=neighbors, commands=batch), seed=7
        )
        commands = sends(relay.on_message(0, sample_echo()))
        assert {d for d, _ in commands} == set(relay.targets)
        assert relay.suppressed == len(neighbors) - len(relay.targets) > 0

    def test_a_fan_out_stays_one_command_over_the_kept_targets(self):
        neighbors = (0, 2, 3, 4)
        message = sample_echo()
        relay = LimitedBroadcastRelay(
            _StaticInner(neighbors=neighbors, commands=[SendTo(neighbors, message)]), seed=7
        )
        kept = tuple(d for d in neighbors if d in relay.targets)
        assert relay.on_message(0, sample_echo()) == [SendTo(kept, message)]


class TestRelayCommands:
    def test_a_rewritten_message_per_destination_is_a_command_each(self):
        batch = [SendTo((2, 3), sample_echo(path=(3, 4, 5)))]
        relay = PathTruncatingRelay(_StaticInner(commands=batch), seed=1)
        commands = relay.on_message(0, sample_echo())
        assert [c.dests for c in commands] == [(2,), (3,)]
        assert commands[0].message is not commands[1].message

    def test_outgoing_is_asked_once_per_destination_in_order(self):
        asked = []

        class Recording(MessageDroppingRelay):
            def _outgoing(self, dest, message):
                asked.append(dest)
                return super()._outgoing(dest, message)

        message = sample_echo()
        batch = [SendTo((2, 0), message), SendTo((4, 3), message)]
        # Seed 37 drops the second draw only: destination 0.
        relay = Recording(_StaticInner(commands=batch), drop_probability=0.5, seed=37)
        commands = relay.on_message(0, sample_echo())
        assert asked == [2, 0, 4, 3] and relay.dropped == 1
        assert commands == [SendTo((2,), message), SendTo((4, 3), message)]

    def test_single_neighbor_is_kept(self):
        relay = LimitedBroadcastRelay(_StaticInner(neighbors=(0,)), seed=7)
        assert relay.targets == {0}

    def test_same_seed_same_subset(self):
        subsets = {
            LimitedBroadcastRelay(
                _StaticInner(neighbors=(0, 2, 3, 4, 5)), seed=11
            ).targets
            for _ in range(3)
        }
        assert len(subsets) == 1


class TestBuildBehaviour:
    EXPECTED_TYPES = {
        "mute": MuteProcess,
        "drop": MessageDroppingRelay,
        "forge": PathForgingRelay,
        "equivocate": EquivocatingSource,
        "alter_sender": SenderRewritingRelay,
        "send_empty": EmptyPayloadRelay,
        "limited_broadcast": LimitedBroadcastRelay,
        "truncate_path": PathTruncatingRelay,
    }

    def test_every_registered_name_constructs(self):
        config = SystemConfig.for_system(7, 1)
        assert set(BEHAVIOUR_NAMES) == set(self.EXPECTED_TYPES)
        for name in BEHAVIOUR_NAMES:
            behaviour = build_behaviour(
                name,
                1,
                (0, 2, 3),
                system=config,
                inner_factory=correct_protocol,
                seed=4,
            )
            assert isinstance(behaviour, self.EXPECTED_TYPES[name])

    def test_equivocate_threads_payload_and_seed(self):
        # Regression: build_behaviour used to drop conflicting_payload
        # (and never passed seed) for "equivocate", so a pinned second
        # payload silently fell back to the derived one.
        config = SystemConfig.for_system(7, 1)
        behaviour = build_behaviour(
            "equivocate",
            0,
            (1, 2),
            system=config,
            inner_factory=correct_protocol,
            family="bracha",
            seed=9,
            conflicting_payload=b"evil",
        )
        assert isinstance(behaviour, EquivocatingSource)
        assert behaviour.conflicting_payload == b"evil"
        assert behaviour.seed == 9
        commands = sends(behaviour.broadcast(b"good", bid=0))
        assert {m.payload for _, m in commands} == {b"good", b"evil"}

    def test_unknown_behaviour_rejected(self):
        config = SystemConfig.for_system(7, 1)
        with pytest.raises(ValueError):
            build_behaviour(
                "gossip",
                1,
                (0, 2),
                system=config,
                inner_factory=correct_protocol,
            )
