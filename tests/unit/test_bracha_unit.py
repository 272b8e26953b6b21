"""Unit tests for Bracha's protocol: quorum state machine and message flow."""

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.events import BRBDeliver, sends
from repro.core.messages import BrachaMessage, MessageType
from repro.brb.bracha import BrachaBroadcast, BrachaQuorumState


def make_state(n=7, f=2):
    return BrachaQuorumState(config=SystemConfig.for_system(n, f))


class TestQuorumState:
    def test_send_triggers_single_echo(self):
        state = make_state()
        actions = state.on_send(b"m")
        assert [a.kind for a in actions] == ["echo"]
        assert state.on_send(b"m") == []

    def test_echo_quorum_triggers_ready(self):
        state = make_state(n=7, f=2)  # echo quorum = 5
        for sender in range(4):
            assert state.on_echo(sender, b"m") == []
        actions = state.on_echo(4, b"m")
        assert [a.kind for a in actions] == ["ready"]

    def test_duplicate_echo_not_counted(self):
        state = make_state(n=7, f=2)
        for _ in range(10):
            state.on_echo(0, b"m")
        assert state.echo_count(b"m") == 1

    def test_no_echo_amplification(self):
        # Algorithm 1 has no f+1 ECHOs => own ECHO rule (the cross-layer
        # protocol's MBD.2 amplification lives in that protocol alone).
        state = make_state(n=7, f=2)
        state.on_echo(0, b"m")
        state.on_echo(1, b"m")
        actions = state.on_echo(2, b"m")  # f+1 = 3 echoes
        assert actions == []

    def test_ready_amplification(self):
        state = make_state(n=7, f=2)
        state.on_ready(0, b"m")
        state.on_ready(1, b"m")
        actions = state.on_ready(2, b"m")  # f+1 = 3 readys
        assert [a.kind for a in actions] == ["ready"]

    def test_delivery_after_two_f_plus_one_readys(self):
        state = make_state(n=7, f=2)
        kinds = []
        for sender in range(5):
            kinds.extend(a.kind for a in state.on_ready(sender, b"m"))
        assert "deliver" in kinds
        assert kinds.count("deliver") == 1
        # Further readys never deliver twice.
        assert state.on_ready(6, b"m") == []

    def test_quorums_are_per_value(self):
        state = make_state(n=7, f=2)
        for sender in range(3):
            state.on_echo(sender, b"a")
        for sender in range(3, 6):
            state.on_echo(sender, b"b")
        # Neither value reached the echo quorum of 5.
        assert not state.sent_ready
        assert state.echo_count(b"a") == 3
        assert state.echo_count(b"b") == 3

    def test_single_ready_per_broadcast_even_for_other_value(self):
        state = make_state(n=7, f=2)
        for sender in range(5):
            state.on_echo(sender, b"a")
        assert state.sent_ready
        # A quorum for a second value does not produce a second ready.
        for sender in range(5):
            assert all(a.kind != "ready" for a in state.on_echo(sender, b"b"))


class TestBrachaBroadcast:
    def _protocols(self, n=4, f=1):
        config = SystemConfig.for_system(n, f)
        return config, {
            pid: BrachaBroadcast(pid, config, [p for p in range(n) if p != pid])
            for pid in range(n)
        }

    def test_resilience_enforced(self):
        config = SystemConfig.for_system(6, 2)
        with pytest.raises(ConfigurationError):
            BrachaBroadcast(0, config, [1, 2, 3, 4, 5])

    def test_broadcast_sends_send_and_echo_to_everyone(self):
        _, protocols = self._protocols()
        commands = protocols[0].broadcast(b"m", bid=3)
        send_messages = [c.message for c in sends(commands)]
        assert sum(1 for m in send_messages if m.mtype == MessageType.SEND) == 3
        assert sum(1 for m in send_messages if m.mtype == MessageType.ECHO) == 3

    def test_send_from_wrong_sender_ignored(self):
        _, protocols = self._protocols()
        forged = BrachaMessage(MessageType.SEND, source=2, bid=0, payload=b"m")
        assert protocols[1].on_message(3, forged) == []

    def test_send_from_unknown_source_ignored(self):
        _, protocols = self._protocols()
        forged = BrachaMessage(MessageType.SEND, source=77, bid=0, payload=b"m")
        assert protocols[1].on_message(2, forged) == []

    def test_non_bracha_message_ignored(self):
        _, protocols = self._protocols()
        assert protocols[1].on_message(0, "garbage") == []

    def test_full_exchange_delivers(self):
        _, protocols = self._protocols(n=4, f=1)
        # Simulate the full message exchange synchronously.
        inboxes = {pid: [] for pid in protocols}
        for command in protocols[0].broadcast(b"m"):
            inboxes[command.dest].append((0, command.message))
        delivered = set()
        # Iterate a few rounds of synchronous delivery.
        for _ in range(6):
            new_inboxes = {pid: [] for pid in protocols}
            for pid, inbox in inboxes.items():
                for sender, message in inbox:
                    for command in protocols[pid].on_message(sender, message):
                        if isinstance(command, BRBDeliver):
                            delivered.add(pid)
                        else:
                            new_inboxes[command.dest].append((pid, command.message))
            inboxes = new_inboxes
        assert delivered == {0, 1, 2, 3}
        assert all(p.delivered[(0, 0)] == b"m" for p in protocols.values())

    def test_state_size_estimate(self):
        _, protocols = self._protocols()
        protocols[1].on_message(0, BrachaMessage(MessageType.ECHO, 0, 0, b"m"))
        assert protocols[1].state_size_estimate() >= 1
