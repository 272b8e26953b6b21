"""Wire values are written once: messages and ``SendTo`` are immutable by convention.

``CrossLayerMessage``, ``DolevMessage`` and ``SendTo`` are plain slotted
dataclasses (``unsafe_hash=True``), not frozen ones, so nothing but
convention stops a write to a field after construction.  The guard below
turns every second write to a field — all but ``CrossLayerMessage``'s
``_size_memo`` cache — into an error and runs whole cells under it: every
protocol family, every Byzantine behaviour, both runtimes.  A message a
runtime or an adversary changed in place would corrupt every other copy
of a fan-out, which shares the one object.
"""

import dataclasses
import pickle

import pytest

from repro.core.events import SendTo
from repro.core.messages import BrachaMessage, CrossLayerMessage, DolevMessage, MessageType
from repro.network.adversary import BEHAVIOUR_NAMES
from repro.runner.configs import modification_set_for
from repro.scenarios import (
    AdversarySpec,
    AsyncioBackend,
    DelaySpec,
    ScenarioSpec,
    TopologySpec,
    run_scenario,
)

GUARDED = (CrossLayerMessage, DolevMessage, SendTo)
#: The one field written after construction: a cache of ``wire_size``.
REWRITABLE = "_size_memo"

NORMAL = DelaySpec("normal", mean_ms=50.0, std_ms=50.0)
RANDOM_REGULAR = TopologySpec("random_regular", n=10, k=5, min_connectivity=5)
STACKS = {
    "cross_layer-all": ("cross_layer", "all"),
    "cross_layer-lat_bdw": ("cross_layer", "lat_bdw"),
    "bracha_dolev-bdopt": ("bracha_dolev", "bdopt"),
    "dolev": ("dolev", "bdopt"),
}


class SecondWrite(AssertionError):
    pass


@pytest.fixture
def guard(monkeypatch):
    """Install the write-once guard; yields ``{class name: writes}`` and the offences."""
    writes = {cls.__name__: 0 for cls in GUARDED}
    offences = []

    def write_once(self, name, value):
        if name != REWRITABLE:
            try:
                object.__getattribute__(self, name)
            except AttributeError:
                pass  # an unset slot: the constructor's one write
            else:
                # Recorded as well as raised: a runtime that catches the
                # error (the asyncio reader drops a frame it cannot
                # handle) must not hide it.
                offences.append(f"{type(self).__name__}.{name}")
                raise SecondWrite(f"{type(self).__name__}.{name} written twice")
        writes[type(self).__name__] += 1
        object.__setattr__(self, name, value)

    for cls in GUARDED:
        monkeypatch.setattr(cls, "__setattr__", write_once)
    yield writes, offences
    assert offences == []


def _cell(protocol, configuration, behaviour, **overrides):
    fields = dict(
        name=f"wire-values-{protocol}-{configuration}-{behaviour}",
        topology=RANDOM_REGULAR,
        delay=NORMAL,
        protocol=protocol,
        modifications=modification_set_for(configuration),
        f=2,
        payload_size=32,
        seed=7,
        # Equivocation acts at the source only, so it takes one slot.
        adversaries=(AdversarySpec(behaviour=behaviour, count=1 if behaviour == "equivocate" else 2),),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def test_the_guard_rejects_a_second_write(guard):
    writes, offences = guard
    message = CrossLayerMessage(mtype=MessageType.ECHO, source=1, bid=0, path=())
    command = SendTo((1, 2), message)
    assert writes == {"CrossLayerMessage": 9, "DolevMessage": 0, "SendTo": 2}
    with pytest.raises(SecondWrite):
        message.path = (3,)
    with pytest.raises(SecondWrite):
        command.dests = (4,)
    # The memo is a cache, written once per object on first use.
    assert message.wire_size() == message._size_memo is not None
    assert offences == ["CrossLayerMessage.path", "SendTo.dests"]
    offences.clear()


@pytest.mark.parametrize("behaviour", BEHAVIOUR_NAMES)
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_no_wire_value_is_written_twice_in_a_cell(guard, stack, behaviour):
    writes, _ = guard
    result = run_scenario(_cell(*STACKS[stack], behaviour))
    assert result.message_count > 0
    message_class = "CrossLayerMessage" if stack.startswith("cross_layer") else "DolevMessage"
    assert writes[message_class] > 0 and writes["SendTo"] > 0


def test_no_wire_value_is_written_twice_under_bracha(guard):
    writes, _ = guard
    spec = _cell(
        "bracha", "bd", "equivocate", topology=TopologySpec("complete", n=7), f=1
    )
    result = run_scenario(spec)
    assert result.message_count > 0 and writes["SendTo"] > 0


@pytest.mark.slow
def test_no_wire_value_is_written_twice_on_asyncio(guard):
    writes, _ = guard
    spec = ScenarioSpec(
        name="wire-values-asyncio",
        topology=TopologySpec("harary", n=6, k=4),
        protocol="cross_layer",
        modifications=modification_set_for("lat_bdw"),
        f=1,
        seed=3,
        backend="asyncio",
    )
    result = run_scenario(spec, AsyncioBackend(delivery_timeout_s=10.0, connect_timeout_s=10.0))
    assert result.all_correct_delivered
    # Every decoded frame is one constructed CrossLayerMessage.
    assert writes["CrossLayerMessage"] > 0 and writes["SendTo"] > 0


class TestValueSemantics:
    VALUES = {
        "cross_layer": lambda: CrossLayerMessage(
            mtype=MessageType.READY, source=2, bid=1, creator=4, payload=b"m", path=(5, 6)
        ),
        "dolev": lambda: DolevMessage(
            content=BrachaMessage(MessageType.ECHO, 2, 1, b"m", creator=4), path=(5,)
        ),
        "send_to": lambda: SendTo((1, 2, 3), BrachaMessage(MessageType.SEND, 2, 1, b"m")),
    }

    @pytest.mark.parametrize("kind", sorted(VALUES))
    def test_equal_fields_are_equal_objects_with_equal_hashes(self, kind):
        one, two = self.VALUES[kind](), self.VALUES[kind]()
        assert one is not two and one == two and hash(one) == hash(two)
        assert len({one, two}) == 1
        assert pickle.loads(pickle.dumps(one)) == one

    def test_a_different_field_is_a_different_value(self):
        one = self.VALUES["cross_layer"]()
        other = dataclasses.replace(one, path=(5,))
        assert one != other and {one: 1}.get(other) is None

    def test_the_size_memo_is_not_part_of_the_value(self):
        one, two = self.VALUES["cross_layer"](), self.VALUES["cross_layer"]()
        one.wire_size()
        assert one._size_memo is not None and two._size_memo is None
        assert one == two and hash(one) == hash(two)
        assert "_size_memo" not in repr(one)

    def test_with_fields_leaves_the_original_and_its_memo_untouched(self):
        original = self.VALUES["cross_layer"]()
        size = original.wire_size()
        copy = original.with_fields(payload=None, local_payload_id=7)
        assert copy._size_memo is None and copy.wire_size() != size
        assert original.payload == b"m" and original.local_payload_id is None
        assert original._size_memo == size == original.wire_size()
        assert copy == CrossLayerMessage(
            mtype=MessageType.READY, source=2, bid=1, creator=4, local_payload_id=7, path=(5, 6)
        )
