"""Integration tests: the layered Bracha-Dolev combination (BD and BDopt)."""

import pytest

from repro.core.config import SystemConfig
from repro.core.modifications import ModificationSet
from repro.brb.bracha_dolev import BrachaDolevBroadcast
from repro.network.adversary import EquivocatingSource, MuteProcess
from repro.runner.configs import modification_set_for
from repro.topology.generators import harary_topology, random_regular_topology

from tests.conftest import run_broadcast


def layered_builder(mods):
    def build(pid, config, neighbors):
        return BrachaDolevBroadcast(pid, config, neighbors, modifications=mods)

    return build


class TestLayeredCombination:
    @pytest.mark.parametrize(
        "mods",
        [ModificationSet.none(), ModificationSet.dolev_optimized()],
        ids=["bd", "bdopt"],
    )
    def test_brb_delivery_on_partially_connected_graph(self, mods):
        config = SystemConfig.for_system(7, 1)
        topo = harary_topology(7, 4)
        metrics, _ = run_broadcast(topo, config, layered_builder(mods))
        delivered = metrics.deliveries_for((0, 0))
        assert set(delivered) == set(range(7))
        assert set(delivered.values()) == {b"test-payload"}

    def test_bdopt_uses_fewer_messages_than_bd(self):
        config = SystemConfig.for_system(7, 1)
        topo = harary_topology(7, 4)
        bd, _ = run_broadcast(topo, config, layered_builder(ModificationSet.none()))
        bdopt, _ = run_broadcast(
            topo, config, layered_builder(ModificationSet.dolev_optimized())
        )
        assert bdopt.message_count < bd.message_count
        assert bdopt.total_bytes < bd.total_bytes

    def test_named_configurations(self):
        config = SystemConfig.for_system(7, 1)
        bd = layered_builder(modification_set_for("bd"))(0, config, [1, 2, 3])
        bdopt = layered_builder(modification_set_for("bdopt"))(0, config, [1, 2, 3])
        assert not bd.modifications.md1_deliver_from_source
        assert bdopt.modifications.md1_deliver_from_source

    def test_mute_byzantine_processes_tolerated(self):
        config = SystemConfig.for_system(10, 2)
        topo = random_regular_topology(10, 5, seed=2)
        mute = [4, 9]
        byzantine = {pid: MuteProcess(pid, sorted(topo.neighbors(pid))) for pid in mute}
        metrics, _ = run_broadcast(
            topo,
            config,
            layered_builder(ModificationSet.dolev_optimized()),
            byzantine=byzantine,
        )
        delivered = metrics.deliveries_for((0, 0))
        assert set(delivered) >= set(topo.nodes) - set(mute)

    def test_equivocating_source_cannot_split_correct_processes(self):
        config = SystemConfig.for_system(7, 1)
        topo = harary_topology(7, 4)
        byzantine = {
            0: EquivocatingSource(0, sorted(topo.neighbors(0)), family="bracha_dolev")
        }
        metrics, _ = run_broadcast(
            topo,
            config,
            layered_builder(ModificationSet.dolev_optimized()),
            byzantine=byzantine,
            source=0,
        )
        payloads = set(metrics.deliveries_for((0, 0)).values())
        assert len(payloads) <= 1

    def test_non_source_broadcasts_also_work(self):
        config = SystemConfig.for_system(7, 1)
        topo = harary_topology(7, 4)
        metrics, _ = run_broadcast(
            topo,
            config,
            layered_builder(ModificationSet.dolev_optimized()),
            source=5,
            payload=b"from-five",
        )
        delivered = metrics.deliveries_for((5, 0))
        assert set(delivered) == set(range(7))
        assert set(delivered.values()) == {b"from-five"}
