"""Pinned wire traces of the cross-layer protocol: every send, in order.

``golden/cross_layer_wire_trace.json`` holds, for a fixed set of cells,
``(send count, SHA-256 over every send, messages_by_type)`` where one send
contributes ``repr((time, sender, dest)) + encode_message(message)`` in the
order the simulator put it on the link.  The other goldens pin totals;
this one pins emission *order and bytes* — which destination of a fan-out
got the merged ECHO_ECHO / READY_ECHO (MBD.3/4), which got the payload
and which the bare local id (MBD.1), which fields MBD.5 dropped.

The file was recorded once, from the protocol as it stood before its
reception and wire-construction forks were folded into one path each, and
has no regenerate path on purpose: if a cell fails, the protocol put a
different byte on the wire.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.encoding import encode_message
from repro.core.modifications import ModificationSet
from repro.metrics.collector import MetricsCollector
from repro.network.simulation.network import SimulatedNetwork
from repro.scenarios import AdversarySpec, DelaySpec, ScenarioSpec, TopologySpec
from repro.scenarios.engine import build_protocols, place_byzantine

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "cross_layer_wire_trace.json").read_text()
)

_BDOPT = ModificationSet.dolev_optimized()

MODIFICATIONS = {
    "dolev_optimized": _BDOPT,
    "bdopt_with_mbd1": ModificationSet.bdopt_with_mbd1(),
    "mbd3_only": _BDOPT.with_enabled("mbd3_echo_echo"),
    "single_mbd4": ModificationSet.single_mbd(4),
    "mbd3_mbd4_no_mbd1": _BDOPT.with_enabled("mbd3_echo_echo", "mbd4_ready_echo"),
    "latency_and_bandwidth_optimized": ModificationSet.latency_and_bandwidth_optimized(),
    "all_enabled": ModificationSet.all_enabled(),
}

ADVERSARIES = {
    "none": (),
    "forge": (AdversarySpec(behaviour="forge", count=1),),
    "equivocate": (AdversarySpec(behaviour="equivocate", count=1),),
}


class HashingCollector(MetricsCollector):
    """Feeds every send into a digest (the network calls a subclass per send)."""

    def __init__(self):
        super().__init__()
        self.digest = hashlib.sha256()

    def record_send(self, time, sender, dest, message):
        self.digest.update(repr((time, sender, dest)).encode())
        self.digest.update(encode_message(message))
        return super().record_send(time, sender, dest, message)


def wire_trace(spec):
    topology = spec.topology.build(spec.seed)
    protocols = build_protocols(spec, topology, place_byzantine(spec, topology))
    collector = HashingCollector()
    network = SimulatedNetwork(
        topology,
        protocols,
        delay_model=spec.delay.build(),
        seed=spec.seed,
        collector=collector,
    )
    for broadcast in spec.broadcasts():
        network.broadcast_at(
            broadcast.source,
            spec.payload_for(broadcast),
            broadcast.bid,
            broadcast.start_time_ms,
        )
    metrics = network.run(max_events=spec.max_events)
    return [
        metrics.message_count,
        collector.digest.hexdigest(),
        dict(sorted(metrics.messages_by_type.items())),
    ]


#: (n, k, f, seed): a small graph where every cell is cheap and a larger one
#: where merged messages meet longer paths and more MBD.8/9/12 exclusions.
GRAPHS = ((10, 5, 2, 11), (16, 7, 2, 5))


def _cells():
    cells = {}
    for n, k, f, seed in GRAPHS:
        for modifications, mods in MODIFICATIONS.items():
            for delay in ("fixed", "normal"):
                for adversary, adversaries in ADVERSARIES.items():
                    key = f"n={n} k={k} f={f} seed={seed} {modifications} {delay} {adversary}"
                    cells[key] = ScenarioSpec(
                        name="wire-trace",
                        topology=TopologySpec(
                            kind="random_regular",
                            n=n,
                            k=k,
                            min_connectivity=2 * f + 1,
                        ),
                        delay=DelaySpec(kind=delay, mean_ms=50.0, std_ms=50.0),
                        protocol="cross_layer",
                        modifications=mods,
                        f=f,
                        payload_size=16,
                        seed=seed,
                        adversaries=adversaries,
                    )
    return cells


CELLS = _cells()


def test_every_golden_cell_is_spelled_out():
    assert sorted(GOLDEN["cells"]) == sorted(CELLS)


@pytest.mark.parametrize("key", sorted(CELLS))
def test_every_send_goes_out_in_the_recorded_order_with_the_recorded_bytes(key):
    assert wire_trace(CELLS[key]) == GOLDEN["cells"][key]
