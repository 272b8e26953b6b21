"""Flights change what a run costs, never what it computes.

Under fixed link delays the simulator schedules a whole fan-out as one
*flight* (see ``repro/network/simulation/network.py``).  There is no
switch to turn that off — but an installed ``network.observer`` closes
every flight after a single send, which is exactly the per-send schedule
the simulator used before flights existed.  So every cell below runs
twice, with and without a no-op observer, and the two runs must agree on
everything a run produces: the frozen :class:`RunMetrics`, the order and
times of every reception and every BRB delivery, the per-process state
sizes and the scheduler's event count.
"""

import hashlib

import pytest

from repro.metrics.collector import message_type_name
from repro.network.adversary import BEHAVIOUR_NAMES
from repro.runner.configs import modification_set_for
from repro.scenarios import AdversarySpec, DelaySpec, ScenarioSpec, TopologySpec
from repro.scenarios.engine import build_network
from repro.scenarios.spec import WorkloadSpec

PAPER_CONFIGURATIONS = ("bdopt", "lat", "bdw", "lat_bdw", "all")


def _paper_cell(configuration, k, payload_size):
    return ScenarioSpec(
        name=f"flights-{configuration}-k{k}",
        topology=TopologySpec("random_regular", n=31, k=k, min_connectivity=9),
        delay=DelaySpec("fixed", mean_ms=50.0),
        protocol="cross_layer",
        modifications=modification_set_for(configuration),
        f=4,
        payload_size=payload_size,
        seed=1001,
    )


def _small_cell(name, **overrides):
    fields = dict(
        name=f"flights-{name}",
        topology=TopologySpec("random_regular", n=10, k=5, min_connectivity=5),
        delay=DelaySpec("fixed", mean_ms=50.0),
        protocol="cross_layer",
        modifications=modification_set_for("lat_bdw"),
        f=2,
        payload_size=16,
        seed=77,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


CELLS = {
    **{
        f"{configuration}-k{k}": _paper_cell(configuration, k, payload_size)
        for k, payload_size in ((10, 16), (24, 1024))
        for configuration in PAPER_CONFIGURATIONS
    },
    "bracha_dolev": _small_cell(
        "bracha-dolev", protocol="bracha_dolev", modifications=modification_set_for("bdopt")
    ),
    "workload": _small_cell(
        "workload", workload=WorkloadSpec.round_robin(range(10), 12, interval_ms=20.0)
    ),
    **{
        f"byzantine-{behaviour}": _small_cell(
            behaviour,
            # Equivocation only acts at the source, so there is one.
            adversaries=(
                AdversarySpec(behaviour=behaviour, count=1 if behaviour == "equivocate" else 2),
            ),
        )
        for behaviour in BEHAVIOUR_NAMES
    },
}


class _Tap:
    """Stands in for a protocol instance and digests what it receives."""

    def __init__(self, inner, pid, network, digest):
        self._inner = inner
        self._pid = pid
        self._network = network
        self._digest = digest

    def on_message(self, sender, message):
        self._digest.update(
            repr((self._network.now, self._pid, sender, message_type_name(message))).encode()
        )
        return self._inner.on_message(sender, message)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _story(spec, *, per_send):
    network, _ = build_network(spec)
    receptions = hashlib.sha256()
    for pid, protocol in list(network.protocols.items()):
        network.replace_protocol(pid, _Tap(protocol, pid, network, receptions))
    deliveries = []
    network.on_deliver = lambda pid, event, time: deliveries.append(
        (time, pid, event.source, event.bid)
    )
    if per_send:
        network.observer = lambda observation: None
    for broadcast in spec.broadcasts():
        network.broadcast_at(
            broadcast.source,
            spec.payload_for(broadcast),
            broadcast.bid,
            broadcast.start_time_ms,
        )
    metrics = network.run(max_events=spec.max_events)
    return {
        "metrics": metrics,
        "delivery_order": list(metrics.delivery_times.items()),
        "deliveries": deliveries,
        "receptions": receptions.hexdigest(),
        "state_sizes": sorted(metrics.state_sizes.items()),
        "executed_events": network.scheduler.executed_events,
        "dropped_messages": network.dropped_messages,
    }


@pytest.mark.parametrize("label", sorted(CELLS))
def test_flights_equal_the_per_send_schedule(label):
    spec = CELLS[label]
    flights = _story(spec, per_send=False)
    per_send = _story(spec, per_send=True)
    assert flights["deliveries"], "the cell delivered nothing: it proves nothing"
    assert flights["executed_events"] >= flights["metrics"].message_count > 0
    for key in flights:
        assert flights[key] == per_send[key], key
