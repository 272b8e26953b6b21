"""Differential property: the Dolev reception handler against its frozen parent.

``DolevDisseminator`` drops an MD.5 reception before validating its path,
allocating a state or resolving the origin, and plans relays without the
set copies; ``reference_dolev.ReferenceDisseminator`` is the handler
before that.  Both are driven with the same receptions and must return
the same ``(sends, delivered)`` every call — destination order and relay
paths included — and hold the same observable state at the end.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.brb.dolev import DolevDisseminator
from repro.core.messages import BrachaMessage, DolevMessage, MessageType
from repro.core.modifications import ModificationSet
from tests.property.reference_dolev import ReferenceDisseminator

HOST = 0
PAYLOAD = b"payload"
CONTENTS = (
    BrachaMessage(MessageType.SEND, source=1, bid=0, payload=PAYLOAD),
    BrachaMessage(MessageType.SEND, source=HOST, bid=0, payload=PAYLOAD),
    BrachaMessage(MessageType.ECHO, source=1, bid=0, payload=PAYLOAD, creator=3),
    BrachaMessage(MessageType.READY, source=1, bid=0, payload=PAYLOAD, creator=9),
)
MOD_FIELDS = (
    "md1_deliver_from_source",
    "md2_empty_path_after_delivery",
    "md3_skip_delivered_neighbors",
    "md4_ignore_paths_with_delivered",
    "md5_stop_after_delivery",
    "mbd10_ignore_superpaths",
)

# Identifiers 0..7 cover the host, every origin but one and the neighbors,
# so drawn paths contain the origin, the host and delivered neighbors.
valid_paths = st.lists(st.integers(0, 7), max_size=4).map(tuple)
forged_paths = st.one_of(
    st.lists(st.sampled_from((-1, -(2 ** 40), 2 ** 20, 2 ** 62, 3)), min_size=1, max_size=3)
    .filter(lambda ids: any(i < 0 or i >= 2 ** 20 for i in ids))
    .map(tuple),
    st.just(tuple(range(1, 8)) * 600),  # 4200 hops of valid identifiers
)
paths = st.one_of(st.just(()), valid_paths, valid_paths, forged_paths)
receptions = st.tuples(st.integers(1, 7), st.integers(0, len(CONTENTS) - 1), paths)
#: A step is a reception, or ``None, content`` for a local origination.
steps = st.one_of(receptions, receptions, receptions,
                  st.tuples(st.none(), st.integers(0, len(CONTENTS) - 1), st.just(())))
modification_sets = st.tuples(*[st.booleans()] * len(MOD_FIELDS)).map(
    lambda flags: ModificationSet(**dict(zip(MOD_FIELDS, flags)))
)


def _pair(mods, neighbors, required):
    return tuple(
        cls(HOST, neighbors, required, mods)
        for cls in (DolevDisseminator, ReferenceDisseminator)
    )


def _drive(new, old, sequence):
    for sender, index, path in sequence:
        content = CONTENTS[index]
        if sender is None:
            got, expected = new.originate(content), old.originate(content)
        else:
            message = DolevMessage(content=content, path=path)
            got, expected = new.on_message(sender, message), old.on_message(sender, message)
        assert (list(got[0]), list(got[1])) == expected, (sender, content, path[:8])
    assert set(new._contents) == set(old._contents)
    for content in CONTENTS:
        assert new.has_delivered(content) == old.has_delivered(content)
        assert new.neighbors_that_delivered(content) == old.neighbors_that_delivered(content)
    assert new.state_size_estimate() == old.state_size_estimate()


class TestHandlerMatchesFrozenParent:
    @given(
        mods=modification_sets,
        neighbors=st.frozensets(st.integers(1, 7), min_size=1),
        required=st.integers(1, 3),
        sequence=st.lists(steps, max_size=40),
        repeats=st.integers(1, 2),
    )
    @settings(max_examples=400, deadline=None)
    def test_equal_returns_and_state(self, mods, neighbors, required, sequence, repeats):
        _drive(*_pair(mods, neighbors, required), sequence * repeats)

    @pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=len(MOD_FIELDS))))
    def test_every_modification_subset_on_one_scripted_run(self, flags):
        # Deterministic cover of all 64 subsets: delivery through disjoint
        # paths, then every kind of reception after it.
        mods = ModificationSet(**dict(zip(MOD_FIELDS, flags)))
        sequence = [
            (2, 0, (4,)), (3, 0, (5, 6)), (2, 0, (4,)), (1, 0, ()), (5, 0, (1, 7)),
            (6, 0, (-1,)), (6, 0, ()), (7, 0, (6, 2)), (7, 0, (2 ** 20,)), (3, 2, (3,)),
            (3, 2, ()), (None, 1, ()), (4, 1, (2,)), (4, 1, ()),
            (2, 3, (1,)), (6, 3, (7,)), (6, 3, (7, 0, 6)),
        ]
        _drive(*_pair(mods, (1, 2, 3, 4, 5, 6, 7), 2), sequence)

    def test_forged_reception_allocates_nothing_and_touches_nothing(self):
        new, _ = _pair(ModificationSet.dolev_optimized(), (1, 2, 3), 2)
        for path in ((-1,), (2 ** 20,), (1,) * 4097):
            assert new.on_message(1, DolevMessage(CONTENTS[0], path)) == ([], [])
        assert not new._contents
        # After MD.5 a forged path is dropped by the flag, before validation:
        # same empty return, and only an empty path records its sender.
        new.on_message(1, DolevMessage(CONTENTS[0], ()))
        assert new.has_delivered(CONTENTS[0]) and new._contents[CONTENTS[0]].done
        assert new.on_message(2, DolevMessage(CONTENTS[0], (-1,))) == ([], [])
        assert new.neighbors_that_delivered(CONTENTS[0]) == {1}
        assert new.on_message(3, DolevMessage(CONTENTS[0], ())) == ([], [])
        assert new.neighbors_that_delivered(CONTENTS[0]) == {1, 3}
