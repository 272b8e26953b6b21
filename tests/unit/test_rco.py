"""White-box unit tests of the causal-order broadcast wrapper.

These tests drive :class:`CausalOrderBroadcast` directly against a stub
inner protocol (no network), checking the envelope codec, the vector
clock stamping rule and the pending-set delivery rule, then run the
wrapper end to end through the scenario engine.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.events import BRBDeliver, SendTo
from repro.core.protocol import BroadcastProtocol
from repro.rco import (
    RCO_PROTOCOLS,
    CausalOrderBroadcast,
    decode_rco_envelope,
    encode_rco_envelope,
)
from repro.runner.configs import protocol_factory, protocol_family
from repro.scenarios import ScenarioSpec, TopologySpec, WorkloadSpec, run_scenario
from repro.scenarios.oracle import check_result

N = 4


class StubInner(BroadcastProtocol):
    """Inner BRB stand-in: broadcasts are recorded, deliveries injected.

    ``on_message`` treats the message itself as a ``(source, bid,
    payload)`` delivery instruction, so a test can hand the wrapper any
    BRB-delivery sequence it likes.
    """

    def __init__(self, process_id, config, neighbors):
        super().__init__(process_id, config, neighbors)
        self.broadcasts = []

    def broadcast(self, payload, bid=0):
        self.broadcasts.append((bid, payload))
        return [SendTo(self.neighbors[:1], (bid, payload))]

    def on_message(self, sender, message):
        source, bid, payload = message
        if self.has_delivered(source, bid):
            return []
        return [self._record_delivery(source, bid, payload)]


def make_rco(pid=0, n=N, f=1, neighbors=None):
    config = SystemConfig.for_system(n, f)
    neighbors = list(neighbors or (p for p in range(n) if p != pid))
    inner = StubInner(pid, config, neighbors)
    return CausalOrderBroadcast(pid, config, neighbors, inner=inner)


def inject(rco, source, bid, clock, payload=b"m"):
    """Feed one enveloped BRB delivery through the wrapper."""
    envelope = encode_rco_envelope(clock, payload)
    return rco.on_message(1, (source, bid, envelope))


def delivered_keys(commands):
    return [(c.source, c.bid) for c in commands if isinstance(c, BRBDeliver)]


class TestEnvelopeCodec:
    def test_roundtrip(self):
        clock = (0, 3, 1, 2)
        decoded = decode_rco_envelope(encode_rco_envelope(clock, b"payload"), N)
        assert decoded == (clock, b"payload")

    def test_empty_payload_roundtrips(self):
        assert decode_rco_envelope(encode_rco_envelope((0,) * N, b""), N) == (
            (0,) * N,
            b"",
        )

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"RCO",
            b"XXX1\x00\x00\x00\x04" + b"\x00" * 16,
            b"RCO1\x00\x00\x00\x04" + b"\x00" * 15,  # truncated clock
            encode_rco_envelope((0, 0, 0), b"m"),  # clock length != n
        ],
    )
    def test_malformed_is_rejected(self, data):
        assert decode_rco_envelope(data, N) is None


class TestClockStamping:
    def test_own_entry_counts_sends_not_deliveries(self):
        rco = make_rco(pid=0)
        rco.broadcast(b"first", bid=0)
        rco.broadcast(b"second", bid=1)
        stamps = [
            decode_rco_envelope(payload, N)[0]
            for _, payload in rco.inner.broadcasts
        ]
        # Neither broadcast has been BRB-delivered back yet, so the own
        # entry must advance by send count alone.
        assert stamps == [(0, 0, 0, 0), (1, 0, 0, 0)]

    def test_other_entries_count_rco_deliveries(self):
        rco = make_rco(pid=0)
        inject(rco, source=2, bid=0, clock=(0, 0, 0, 0))
        rco.broadcast(b"reply", bid=0)
        (_, payload) = rco.inner.broadcasts[-1]
        stamp, _ = decode_rco_envelope(payload, N)
        assert stamp == (0, 0, 1, 0)


class TestPendingSetRule:
    def test_out_of_order_delivery_is_held_back(self):
        rco = make_rco(pid=0)
        # Second message from source 2 arrives first: W[2]=1 > V[2]=0.
        held = inject(rco, 2, 1, (0, 0, 1, 0), b"late")
        assert delivered_keys(held) == []
        assert (2, 1) in rco.pending
        # Its predecessor unblocks both, in causal order.
        released = inject(rco, 2, 0, (0, 0, 0, 0), b"early")
        assert delivered_keys(released) == [(2, 0), (2, 1)]
        assert rco.pending == {}
        assert rco.delivered[(2, 0)] == b"early"
        assert rco.delivered[(2, 1)] == b"late"

    def test_cross_source_dependency_is_respected(self):
        rco = make_rco(pid=0)
        # Source 3's message depends on having delivered source 1's.
        held = inject(rco, 3, 0, (0, 1, 0, 0))
        assert delivered_keys(held) == []
        released = inject(rco, 1, 0, (0, 0, 0, 0))
        assert delivered_keys(released) == [(1, 0), (3, 0)]

    def test_independent_messages_release_in_key_order(self):
        rco = make_rco(pid=0)
        assert delivered_keys(inject(rco, 3, 0, (0, 0, 0, 0))) == [(3, 0)]
        rco2 = make_rco(pid=0)
        # Both deliverable at once: drain ties break on (source, bid).
        rco2.pending[(3, 0)] = ((0, 0, 0, 0), b"m")
        rco2.pending[(1, 0)] = ((0, 0, 0, 0), b"m")
        assert delivered_keys(rco2._drain()) == [(1, 0), (3, 0)]

    def test_malformed_envelope_is_discarded(self):
        rco = make_rco(pid=0)
        commands = rco.on_message(1, (2, 0, b"not an envelope"))
        assert delivered_keys(commands) == []
        assert rco.pending == {}
        assert rco.delivered == {}

    def test_delivered_payload_is_the_application_payload(self):
        rco = make_rco(pid=0)
        (command,) = inject(rco, 1, 0, (0, 0, 0, 0), b"app bytes")
        assert isinstance(command, BRBDeliver)
        assert command.payload == b"app bytes"

    def test_non_deliver_commands_pass_through(self):
        rco = make_rco(pid=0)
        commands = rco.broadcast(b"m", bid=0)
        assert any(isinstance(c, SendTo) for c in commands)


class TestConstruction:
    def test_sparse_process_ids_are_rejected(self):
        config = SystemConfig.from_processes((0, 2, 4, 6), f=1)
        inner = StubInner(0, config, [2, 4, 6])
        with pytest.raises(ConfigurationError, match="dense process ids"):
            CausalOrderBroadcast(0, config, [2, 4, 6], inner=inner)

    def test_inner_process_id_must_match(self):
        config = SystemConfig.for_system(N, 1)
        inner = StubInner(1, config, [0, 2, 3])
        with pytest.raises(ConfigurationError, match="belongs to process"):
            CausalOrderBroadcast(0, config, [1, 2, 3], inner=inner)


class TestRunnerWiring:
    def test_rco_names_resolve_to_inner_family(self):
        for name, inner in RCO_PROTOCOLS.items():
            assert protocol_family(name) == protocol_family(inner)

    def test_factory_builds_the_wrapper(self):
        build = protocol_factory("rco_cross_layer", None)
        config = SystemConfig.for_system(N, 1)
        protocol = build(0, config, [1, 2, 3])
        assert isinstance(protocol, CausalOrderBroadcast)
        assert protocol.inner.process_id == 0

    def test_scenario_run_is_oracle_green(self):
        spec = ScenarioSpec(
            name="rco-unit",
            topology=TopologySpec(kind="harary", n=6, k=3),
            protocol="rco_cross_layer",
            f=1,
            seed=3,
            workload=WorkloadSpec.causal_chain((0, 2, 4), interval_ms=200.0),
        )
        result = run_scenario(spec)
        assert check_result(result) == []
        assert all(outcome.all_correct_delivered for outcome in result.outcomes)
