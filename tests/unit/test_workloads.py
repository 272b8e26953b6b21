"""Unit tests for multi-broadcast workloads.

Covers the declarative layer (generators, validation, normalization and
hashing of :class:`WorkloadSpec`), the engine layer (per-broadcast
outcomes, throughput aggregates, the Byzantine-wins crash precedence in
``freeze_result``) and the backend plumbing (simulation scheduling via
``broadcast_at``, the asyncio backend's pure workload planner, wire
serialization).  The multi-broadcast simulation runs here are small and
fast on purpose: they are the tier-1 workload smoke tests.
"""

import pytest

from repro.core.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.scenarios import (
    AsyncioBackend,
    BroadcastSpec,
    CrashAt,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    expand_grid,
    loads_result,
    loads_spec,
    dumps_result,
    dumps_spec,
    run_scenario,
    verdict_of,
)
from repro.scenarios.engine import freeze_result
from repro.scenarios.oracle import check_result


def harary_spec(**kwargs):
    defaults = dict(
        name="workload-test",
        topology=TopologySpec(kind="harary", n=6, k=3),
        f=1,
        seed=5,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestWorkloadSpec:
    def test_repeated_generator(self):
        workload = WorkloadSpec.repeated(3, 4, interval_ms=25.0, start_ms=10.0)
        assert [b.source for b in workload.broadcasts] == [3, 3, 3, 3]
        assert [b.bid for b in workload.broadcasts] == [0, 1, 2, 3]
        assert [b.start_time_ms for b in workload.broadcasts] == [10.0, 35.0, 60.0, 85.0]
        assert [b.payload_seed for b in workload.broadcasts] == [0, 1, 2, 3]

    def test_round_robin_generator(self):
        workload = WorkloadSpec.round_robin([1, 4], 5, interval_ms=20.0)
        assert [b.source for b in workload.broadcasts] == [1, 4, 1, 4, 1]
        # Per-source identifiers increase monotonically.
        assert [b.bid for b in workload.broadcasts] == [0, 0, 1, 1, 2]
        assert [b.start_time_ms for b in workload.broadcasts] == [
            0.0,
            20.0,
            40.0,
            60.0,
            80.0,
        ]

    def test_invalid_workloads_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(broadcasts=())
        with pytest.raises(ConfigurationError):
            WorkloadSpec(broadcasts=(BroadcastSpec(0, 0), BroadcastSpec(0, 0)))
        with pytest.raises(ConfigurationError):
            BroadcastSpec(start_time_ms=-1.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec.repeated(0, 0, interval_ms=10.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec.repeated(0, 3, interval_ms=-1.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec.round_robin([], 3)
        with pytest.raises(ConfigurationError):
            WorkloadSpec.round_robin([1, 1], 3)

    def test_schedule_is_sorted_by_start_source_bid(self):
        workload = WorkloadSpec(
            broadcasts=(
                BroadcastSpec(source=2, bid=0, start_time_ms=50.0),
                BroadcastSpec(source=0, bid=1, start_time_ms=0.0),
                BroadcastSpec(source=0, bid=0, start_time_ms=50.0),
            )
        )
        assert [b.key for b in workload.schedule()] == [(0, 1), (0, 0), (2, 0)]

    def test_trivial_workload_normalizes_to_legacy_spec(self):
        legacy = harary_spec(source=2, bid=7)
        workload_form = harary_spec(workload=WorkloadSpec.single(2, 7))
        assert workload_form.workload is None
        assert workload_form.source == 2 and workload_form.bid == 7
        assert workload_form == legacy
        assert workload_form.scenario_hash() == legacy.scenario_hash()

    def test_non_trivial_workload_changes_the_hash(self):
        legacy = harary_spec()
        repeated = harary_spec(workload=WorkloadSpec.repeated(0, 3, interval_ms=40.0))
        delayed = harary_spec(
            workload=WorkloadSpec(broadcasts=(BroadcastSpec(start_time_ms=10.0),))
        )
        seeded = harary_spec(
            workload=WorkloadSpec(broadcasts=(BroadcastSpec(payload_seed=9),))
        )
        hashes = {
            legacy.scenario_hash(),
            repeated.scenario_hash(),
            delayed.scenario_hash(),
            seeded.scenario_hash(),
        }
        assert len(hashes) == 4

    def test_workload_is_a_grid_axis(self):
        base = harary_spec()
        cells = expand_grid(
            base,
            {
                "workload": [None, WorkloadSpec.repeated(0, 3, interval_ms=40.0)],
                "seed": [5, 6],
            },
        )
        assert len(cells) == 4
        assert len({cell.scenario_hash() for cell in cells}) == 4

    def test_payload_for_is_deterministic_and_sized(self):
        spec = harary_spec(payload_size=33)
        classic = BroadcastSpec(payload_seed=0)
        seeded = BroadcastSpec(bid=1, payload_seed=4)
        assert spec.payload_for(classic) == spec.payload()
        assert len(spec.payload_for(seeded)) == 33
        assert spec.payload_for(seeded) == spec.payload_for(seeded)
        assert spec.payload_for(seeded) != spec.payload_for(classic)

    def test_broadcasts_defaults_to_source_bid(self):
        spec = harary_spec(source=3, bid=2)
        assert spec.broadcasts() == (BroadcastSpec(source=3, bid=2),)

    def test_workload_source_must_be_a_process(self):
        spec = harary_spec(
            workload=WorkloadSpec(broadcasts=(BroadcastSpec(source=77, bid=1),))
        )
        with pytest.raises(ConfigurationError):
            run_scenario(spec)


class TestCausalChain:
    def test_chain_links_name_their_successor(self):
        workload = WorkloadSpec.causal_chain((0, 2, 4), interval_ms=40.0)
        assert [b.source for b in workload.broadcasts] == [0, 2, 4]
        assert [b.successor for b in workload.broadcasts] == [2, 4, None]
        assert [b.start_time_ms for b in workload.broadcasts] == [0.0, 40.0, 80.0]
        assert [b.payload_seed for b in workload.broadcasts] == [0, 1, 2]

    def test_repeat_visits_take_the_next_per_source_bid(self):
        workload = WorkloadSpec.causal_chain((0, 2, 0, 2), interval_ms=10.0)
        assert [b.key for b in workload.broadcasts] == [
            (0, 0),
            (2, 0),
            (0, 1),
            (2, 1),
        ]

    def test_invalid_chains_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.causal_chain((0,))
        with pytest.raises(ConfigurationError):
            WorkloadSpec.causal_chain((0, 1), interval_ms=-1.0)
        with pytest.raises(ConfigurationError):
            BroadcastSpec(successor=-1)

    def test_single_broadcast_with_successor_is_not_trivial(self):
        # A successor makes the broadcast causally meaningful, so the
        # spec must keep its workload instead of normalizing to legacy.
        workload = WorkloadSpec(broadcasts=(BroadcastSpec(successor=3),))
        spec = harary_spec(workload=workload)
        assert spec.workload is not None

    def test_successor_default_keeps_legacy_hashes(self):
        # Hash suppression: a workload written before the successor
        # field existed hashes identically to one using the default.
        plain = harary_spec(workload=WorkloadSpec.repeated(0, 3, interval_ms=40.0))
        assert all(b.successor is None for b in plain.workload.broadcasts)
        chained = harary_spec(
            workload=WorkloadSpec.causal_chain((0, 1, 2), interval_ms=40.0)
        )
        assert plain.scenario_hash() != chained.scenario_hash()

    def test_chain_is_a_grid_axis_and_round_trips_the_wire(self):
        spec = harary_spec(
            workload=WorkloadSpec.causal_chain((0, 1), interval_ms=30.0)
        )
        assert loads_spec(dumps_spec(spec)) == spec
        cells = expand_grid(
            harary_spec(),
            {"workload": [None, spec.workload], "protocol": ["cross_layer", "rco_cross_layer"]},
        )
        assert len({cell.scenario_hash() for cell in cells}) == 4


class TestMultiBroadcastEngine:
    @pytest.mark.parametrize("protocol", ["cross_layer", "bracha_dolev", "dolev"])
    def test_repeated_workload_delivers_every_broadcast(self, protocol):
        """Tier-1 workload smoke test (simulation backend, fast).

        Plain ``dolev`` included: it must record each delivery under the
        bid its SEND carries."""
        spec = harary_spec(
            protocol=protocol, workload=WorkloadSpec.repeated(0, 4, interval_ms=40.0)
        )
        result = run_scenario(spec)
        assert check_result(result) == []
        assert result.broadcast_count == 4
        assert result.delivered_broadcast_count == 4
        assert result.all_correct_delivered
        assert result.agreement_holds and result.validity_holds
        assert [outcome.key for outcome in result.outcomes] == [
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 3),
        ]
        assert all(outcome.latency_ms is not None for outcome in result.outcomes)
        assert result.throughput_dps is not None and result.throughput_dps > 0
        distribution = result.latency_distribution()
        assert distribution["count"] == 4
        assert distribution["min_ms"] <= distribution["mean_ms"] <= distribution["max_ms"]
        assert "workload" in result.summary()

    def test_round_robin_sources_each_deliver(self):
        spec = harary_spec(workload=WorkloadSpec.round_robin([0, 1, 2], 6, 25.0))
        result = run_scenario(spec)
        assert result.delivered_broadcast_count == 6
        assert {outcome.source for outcome in result.outcomes} == {0, 1, 2}
        # Distinct payload seeds produce distinct payloads per broadcast.
        assert len({outcome.payload_hex for outcome in result.outcomes}) == 6

    def test_single_broadcast_workload_equals_legacy_result(self):
        legacy = harary_spec()
        workload_form = harary_spec(workload=WorkloadSpec.single())
        assert run_scenario(workload_form) == run_scenario(legacy)

    def test_delayed_broadcast_starts_at_its_time(self):
        spec = harary_spec(
            workload=WorkloadSpec(
                broadcasts=(BroadcastSpec(source=0, bid=0, start_time_ms=120.0),)
            )
        )
        result = run_scenario(spec)
        (outcome,) = result.outcomes
        assert outcome.all_correct_delivered
        # Deliveries happen after the broadcast started; latency is
        # measured from the start time, not from scenario time 0.
        assert all(entry[0] >= 120.0 for entry in outcome.delivery_trace)
        assert outcome.latency_ms == pytest.approx(
            max(entry[0] for entry in outcome.delivery_trace) - 120.0
        )

    def test_source_crashed_before_late_broadcast_never_sends(self):
        spec = harary_spec(
            faults=(CrashAt(pid=0, time_ms=10.0),),
            workload=WorkloadSpec(
                broadcasts=(
                    BroadcastSpec(source=0, bid=0, start_time_ms=100.0),
                    BroadcastSpec(source=1, bid=0, start_time_ms=0.0),
                )
            ),
        )
        result = run_scenario(spec)
        by_key = {outcome.key: outcome for outcome in result.outcomes}
        assert by_key[(0, 0)].delivered_processes == ()
        assert not by_key[(0, 0)].all_correct_delivered
        assert by_key[(1, 0)].all_correct_delivered
        assert result.delivered_broadcast_count == 1

    def test_verdict_carries_per_broadcast_projections(self):
        spec = harary_spec(workload=WorkloadSpec.repeated(0, 3, interval_ms=30.0))
        verdict = verdict_of(run_scenario(spec), "full")
        assert len(verdict.broadcasts) == 3
        assert all(b.all_correct_delivered for b in verdict.broadcasts)
        assert [(b.source, b.bid) for b in verdict.broadcasts] == [
            (0, 0),
            (0, 1),
            (0, 2),
        ]

    def test_workload_spec_and_result_round_trip_the_wire(self):
        spec = harary_spec(workload=WorkloadSpec.round_robin([0, 1], 4, 20.0))
        assert loads_spec(dumps_spec(spec)) == spec
        result = run_scenario(spec)
        restored = loads_result(dumps_result(result))
        assert restored == result
        assert restored.outcomes == result.outcomes


class TestFreezeResultPrecedence:
    def _freeze(self, spec, byzantine):
        topology = spec.topology.build(spec.seed)
        return freeze_result(
            spec,
            topology=topology,
            byzantine=byzantine,
            metrics=MetricsCollector().snapshot(),
            dropped_messages=0,
        )

    def test_byzantine_wins_over_crash(self):
        """Regression: a CrashAt on a Byzantine pid must not list it twice."""
        spec = harary_spec(faults=(CrashAt(pid=2, time_ms=50.0),))
        result = self._freeze(spec, byzantine={2: "mute"})
        assert result.byzantine == ((2, "mute"),)
        assert result.crashed == ()
        assert 2 not in result.correct_processes

    def test_disjoint_byzantine_and_crashed_both_reported(self):
        spec = harary_spec(faults=(CrashAt(pid=3, time_ms=0.0),))
        result = self._freeze(spec, byzantine={1: "forge"})
        assert result.byzantine == ((1, "forge"),)
        assert result.crashed == (3,)
        assert set(result.correct_processes).isdisjoint({1, 3})

    def test_all_processes_faulty_has_undefined_latency(self):
        """With no correct process the latency is None, not 0.0."""
        spec = ScenarioSpec(
            name="all-faulty",
            topology=TopologySpec(kind="complete", n=3),
            f=0,
            faults=tuple(CrashAt(pid=pid, time_ms=0.0) for pid in range(3)),
        )
        result = run_scenario(spec)
        assert result.correct_processes == ()
        assert result.latency_ms is None
        (outcome,) = result.outcomes
        assert outcome.latency_ms is None


class TestStartTimeFactor:
    def test_latency_is_measured_in_the_timestamp_domain(self):
        """Asyncio timestamps are wall-clock ms while start times are
        simulated ms; the factor maps the start into the wall domain
        (here time_scale=1e-4, so 100 simulated ms = 10 wall ms)."""
        from repro.scenarios.engine import freeze_broadcast_outcome

        collector = MetricsCollector()
        collector.record_delivery(15.0, 1, 0, 0, b"x")
        collector.record_delivery(12.0, 2, 0, 0, b"x")
        outcome = freeze_broadcast_outcome(
            BroadcastSpec(source=0, bid=0, start_time_ms=100.0),
            payload=b"x",
            metrics=collector.snapshot(),
            byzantine={},
            correct=(1, 2),
            start_time_factor=1e-4 * 1000.0,
        )
        assert outcome.latency_ms == pytest.approx(5.0)
        # The nominal start time stays in simulated ms for reporting.
        assert outcome.start_time_ms == 100.0


class TestAsyncioWorkloadPlanner:
    def test_plan_workload_scales_start_times(self):
        backend = AsyncioBackend(time_scale=2e-3)
        spec = harary_spec(workload=WorkloadSpec.repeated(0, 3, interval_ms=50.0))
        plan = backend.plan_workload(spec)
        assert [s.at_s for s in plan] == [0.0, 0.1, 0.2]
        assert [s.broadcast.bid for s in plan] == [0, 1, 2]
        assert [s.payload for s in plan] == [
            spec.payload_for(b) for b in spec.broadcasts()
        ]

    def test_plan_workload_defaults_to_the_single_broadcast(self):
        backend = AsyncioBackend()
        spec = harary_spec(source=2, bid=5)
        (scheduled,) = backend.plan_workload(spec)
        assert scheduled.broadcast.key == (2, 5)
        assert scheduled.at_s == 0.0
        assert scheduled.payload == spec.payload()
