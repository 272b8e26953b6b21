"""Integration tests for paper-point scenarios, configurations and metric trends.

Ported from the deleted ``run_experiment`` engine onto ``run_scenario``.
Three legacy tests were dropped because a remaining test checks the same
behaviour on the surviving code:

* ``test_too_many_byzantine_rejected`` →
  ``tests/unit/test_scenarios.py::TestScenarioSpec::test_too_many_adversaries_rejected``;
* ``test_payload_size_respected`` →
  ``tests/unit/test_scenarios.py::TestScenarioSpec::test_payload_is_deterministic_and_sized``;
* ``test_sweep_produces_points_for_every_grid_entry`` (the deleted
  ``sweep``/``SweepPoint``) →
  ``tests/unit/test_scenarios.py::TestGrid::test_expand_grid_row_major``
  and ``::test_seed_cells``.
"""

import pytest

from repro.core.modifications import ModificationSet
from repro.metrics.report import relative_variation_percent
from repro.runner.configs import PROTOCOL_CONFIGURATIONS, modification_set_for, protocol_factory
from repro.scenarios import (
    AdversarySpec,
    DelaySpec,
    ScenarioSpec,
    TopologySpec,
    run_scenario,
    seed_cells,
)


def paper_point(n, k, f, **fields):
    """One Sec. 7.1 measurement: k-regular graph, 50 ms delays, 1 Gb/s medium."""
    fields.setdefault(
        "topology",
        TopologySpec(kind="random_regular", n=n, k=k, min_connectivity=min(k, 2 * f + 1)),
    )
    return ScenarioSpec(f=f, shared_bandwidth_bps=1e9, **fields)


class TestRunner:
    def test_basic_run_delivers_everywhere(self):
        result = run_scenario(paper_point(10, 5, 2, payload_size=64))
        assert result.all_correct_delivered
        assert result.latency_ms is not None and result.latency_ms > 0
        assert result.total_bytes > 0

    def test_deterministic_for_seed(self):
        spec = paper_point(10, 5, 2, seed=42)
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert a.total_bytes == b.total_bytes
        assert a.latency_ms == b.latency_ms

    def test_different_seeds_vary_topology(self):
        results = [run_scenario(cell) for cell in seed_cells(paper_point(12, 5, 2), 3)]
        assert len({r.total_bytes for r in results}) >= 2

    def test_byzantine_mute_processes(self):
        spec = paper_point(
            10, 5, 2, adversaries=(AdversarySpec(behaviour="mute", count=2),)
        )
        result = run_scenario(spec)
        assert len(result.correct_processes) == 8
        assert result.all_correct_delivered

    def test_asynchronous_setting(self):
        spec = paper_point(
            8, 5, 1, delay=DelaySpec(kind="normal", mean_ms=50.0, std_ms=50.0), seed=5
        )
        assert run_scenario(spec).all_correct_delivered

    def test_bracha_family_on_a_complete_graph(self):
        spec = paper_point(
            7, 4, 2, protocol="bracha", topology=TopologySpec(kind="complete", n=7)
        )
        assert run_scenario(spec).all_correct_delivered

    def test_state_size_metric_exposed(self):
        assert run_scenario(paper_point(8, 5, 1)).metrics.peak_state_size > 0


class TestConfigurations:
    def test_named_configurations_cover_all_single_modifications(self):
        for index in range(2, 13):
            assert f"mbd{index}" in PROTOCOL_CONFIGURATIONS

    def test_modification_set_for_names(self):
        assert modification_set_for("BDopt") == ModificationSet.dolev_optimized()
        assert modification_set_for("mbd7") == ModificationSet.single_mbd(7)
        assert modification_set_for("lat & bdw") == (
            ModificationSet.latency_and_bandwidth_optimized()
        )
        assert modification_set_for("bd") == ModificationSet.none()
        assert modification_set_for("all") == ModificationSet.all_enabled()

    def test_modification_set_for_unknown_name(self):
        with pytest.raises(ValueError):
            modification_set_for("nonsense")

    def test_protocol_factory_unknown_family(self):
        with pytest.raises(ValueError):
            protocol_factory("unknown-family")


class TestTrends:
    """Coarse-grained checks that the headline effects of the paper hold."""

    @staticmethod
    def _pair(reference_mods, candidate_mods, seed):
        return tuple(
            run_scenario(
                paper_point(12, 7, 2, payload_size=1024, seed=seed, modifications=mods)
            )
            for mods in (reference_mods, candidate_mods)
        )

    def test_mbd1_reduces_network_consumption_by_more_than_90_percent(self):
        reference, candidate = self._pair(
            ModificationSet.dolev_optimized(), ModificationSet.bdopt_with_mbd1(), seed=2
        )
        reduction = 1 - candidate.total_bytes / reference.total_bytes
        assert reduction > 0.90

    def test_bandwidth_configuration_reduces_bytes_beyond_mbd1(self):
        reference, candidate = self._pair(
            ModificationSet.bdopt_with_mbd1(), ModificationSet.bandwidth_optimized(), seed=3
        )
        assert candidate.total_bytes < reference.total_bytes

    def test_mbd11_reduces_messages(self):
        reference, candidate = self._pair(
            ModificationSet.bdopt_with_mbd1(), ModificationSet.single_mbd(11), seed=4
        )
        assert candidate.message_count < reference.message_count

    def test_paired_variation_of_mbd7_reports_byte_savings(self):
        # Candidate and reference on the same two topologies and seeds.
        mean_bytes = []
        for mods in (ModificationSet.bdopt_with_mbd1(), ModificationSet.single_mbd(7)):
            base = paper_point(10, 5, 2, payload_size=1024, modifications=mods)
            runs = [run_scenario(cell).total_bytes for cell in seed_cells(base, 2)]
            mean_bytes.append(sum(runs) / len(runs))
        reference, candidate = mean_bytes
        # MBD.7 should not cost bytes
        assert relative_variation_percent(candidate, reference) < 5.0
