"""One fan-out is one ``SendTo``: a protocol names all of its targets at once.

Every protocol computes the set of neighbours a message goes to once; the
command it emits carries that set, in neighbour order, next to one message
object.  The cross-layer protocol splits a fan-out only where MBD.1 gives
two destinations different wire variants.
"""

import pytest

from repro.brb.bracha import BrachaBroadcast
from repro.brb.bracha_dolev import BrachaDolevBroadcast
from repro.brb.optimized import CrossLayerBrachaDolev
from repro.core.config import SystemConfig
from repro.core.events import SendTo, sends
from repro.core.messages import BrachaMessage, CrossLayerMessage, DolevMessage, MessageType
from repro.network.simulation.network import SimulatedNetwork
from repro.network.simulation.scheduler import EventScheduler, _Flight
from repro.runner.configs import modification_set_for
from repro.scenarios import DelaySpec, ScenarioSpec, TopologySpec, run_scenario

CONFIG = SystemConfig.for_system(7, 1)
NEIGHBORS = (1, 2, 4, 5, 6)


def build(protocol, configuration=None):
    if protocol == "bracha":
        # Bracha alone assumes a fully connected network.
        return BrachaBroadcast(0, CONFIG, (1, 2, 3, 4, 5, 6))
    mods = modification_set_for(configuration)
    if protocol == "bracha_dolev":
        return BrachaDolevBroadcast(0, CONFIG, NEIGHBORS, modifications=mods)
    return CrossLayerBrachaDolev(0, CONFIG, NEIGHBORS, modifications=mods)


STACKS = [
    ("bracha", None),
    ("bracha_dolev", "bd"),
    ("bracha_dolev", "lat_bdw"),
    ("cross_layer", "bd"),
    ("cross_layer", "lat_bdw"),
]


def send_commands(commands):
    return [c for c in commands if isinstance(c, SendTo)]


@pytest.mark.parametrize("protocol, configuration", STACKS)
def test_a_broadcast_is_one_command_per_message(protocol, configuration):
    instance = build(protocol, configuration)
    commands = send_commands(instance.broadcast(b"m"))
    # The source's SEND and its own ECHO, each to every neighbour.
    assert [getattr(c.message, "content", c.message).mtype for c in commands] == [
        MessageType.SEND,
        MessageType.ECHO,
    ]
    assert [c.dests for c in commands] == [instance.neighbors] * 2


@pytest.mark.parametrize(
    "protocol, configuration", [stack for stack in STACKS if stack[0] != "bracha"]
)
def test_a_relay_names_every_target_in_neighbour_order(protocol, configuration):
    instance = build(protocol, configuration)
    if protocol == "bracha_dolev":
        message = DolevMessage(
            content=BrachaMessage(MessageType.SEND, source=3, bid=0, payload=b"m"),
            path=(2,),
        )
    else:
        message = CrossLayerMessage(
            mtype=MessageType.ECHO, source=3, bid=0, creator=3, payload=b"m", path=(2,)
        )
    (command,) = instance.on_message(1, message)
    # Not back along the path (2, then the sender 1), nor to the origin 3.
    assert command.dests == (4, 5, 6)
    assert command.message.path == (2, 1)


def test_bracha_relays_its_quorum_messages_as_one_command_each():
    instance = build("bracha")
    commands = instance.on_message(3, BrachaMessage(MessageType.SEND, 3, 0, b"m"))
    assert commands == [SendTo(instance.neighbors, BrachaMessage(MessageType.ECHO, 3, 0, b"m"))]


class TestMBD1Runs:
    def _finalize(self, announced):
        protocol = CrossLayerBrachaDolev(
            3, CONFIG, (0, 1, 2, 4, 5, 6), modifications=modification_set_for("mbd1")
        )
        record = protocol._slot(0, 0).payload_record(b"m")
        record.announced_to.update(announced)
        group = ([0, 1, 2, 4, 5, 6], MessageType.ECHO, 1, record, (), None)
        return protocol._finalize([group]), record

    def test_a_mixed_announced_set_yields_runs_in_neighbour_order(self):
        commands, record = self._finalize({0, 1, 5})
        assert [c.dests for c in commands] == [(0, 1), (2, 4), (5,), (6,)]
        assert [c.message.payload for c in commands] == [None, b"m", None, b"m"]
        assert all(a.message is not b.message for a, b in zip(commands, commands[1:]))
        # Runs of one variant share the message object.
        assert commands[0].message is commands[2].message
        assert commands[1].message is commands[3].message
        assert [d for d, _ in sends(commands)] == [0, 1, 2, 4, 5, 6]
        assert record.announced_to == {0, 1, 2, 4, 5, 6}

    @pytest.mark.parametrize("announced", [set(), {0, 1, 2, 4, 5, 6}])
    def test_a_uniform_announced_set_is_one_command(self, announced):
        commands, _ = self._finalize(announced)
        assert [c.dests for c in commands] == [(0, 1, 2, 4, 5, 6)]


@pytest.mark.parametrize("protocol, configuration", [("cross_layer", "all"), ("bracha_dolev", "bdopt")])
def test_a_fixed_delay_flight_holds_the_very_tuple_its_command_carried(
    monkeypatch, protocol, configuration
):
    """No copy of a fan-out's destinations between the protocol and the scheduler."""
    carried, flown = [], []
    execute = SimulatedNetwork._execute_commands
    insert = EventScheduler._insert

    def record_commands(self, pid, commands):
        commands = list(commands)
        carried.extend(c.dests for c in commands if isinstance(c, SendTo))
        execute(self, pid, commands)

    def record_flights(self, time, entry):
        if type(entry) is _Flight:
            flown.append(entry.dests)
        insert(self, time, entry)

    monkeypatch.setattr(SimulatedNetwork, "_execute_commands", record_commands)
    monkeypatch.setattr(EventScheduler, "_insert", record_flights)
    result = run_scenario(
        ScenarioSpec(
            name=f"fan-out-uncopied-{protocol}",
            topology=TopologySpec("random_regular", n=10, k=5, min_connectivity=5),
            delay=DelaySpec("fixed", mean_ms=50.0),
            protocol=protocol,
            modifications=modification_set_for(configuration),
            f=2,
            seed=7,
        )
    )
    assert result.all_correct_delivered
    # ``carried`` keeps every tuple alive, so no two of them share an id.
    carried_ids = {id(dests) for dests in carried}
    assert len(flown) == len(carried) > 0
    assert all(id(dests) in carried_ids for dests in flown)
