"""Unit tests for the churn support layer around the fault events.

The simulator semantics live in ``test_fault_events.py``; this file
covers everything the churn faults plug into: the hash-suppression
contract of the extended :class:`AdversarySpec`, the JSON corpus codec
(churn events and bytes payloads), the connectivity-under-churn
analysis helper, and the fuzz sampler / shrinker integration.
"""

from itertools import islice

import pytest

from repro.core.errors import TopologyError
from repro.fuzz.sample import stream_fuzz_specs
from repro.scenarios import (
    AdversarySpec,
    DelaySpec,
    JoinAt,
    LeaveAt,
    RewireLinkAt,
    ScenarioSpec,
    SpecJSONError,
    TopologySpec,
    loads_spec_json,
    dumps_spec_json,
    spec_from_jsonable,
    spec_to_jsonable,
)
from repro.scenarios.reduce import reduction_candidates
from repro.topology.analysis import connectivity_under_churn
from repro.topology.generators import harary_topology, ring_topology


def ring_spec(n=6, **kwargs):
    defaults = dict(
        topology=TopologySpec(kind="ring", n=n),
        delay=DelaySpec(kind="fixed", mean_ms=10.0),
        f=0,
        seed=1,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestHashSuppression:
    def test_default_conflicting_payload_is_suppressed(self):
        # The field was appended after the hash freeze: at its default it
        # must be absent from the JSON form the hash is taken of, so every
        # pre-existing scenario hash (goldens, cache slots, corpus keys)
        # is unchanged.
        document = spec_to_jsonable(AdversarySpec(behaviour="equivocate"))
        assert "conflicting_payload" not in document

    def test_pinned_conflicting_payload_changes_the_hash(self):
        base = ring_spec(f=1, adversaries=(AdversarySpec(behaviour="equivocate"),))
        pinned = ring_spec(
            f=1,
            adversaries=(
                AdversarySpec(behaviour="equivocate", conflicting_payload=b"evil"),
            ),
        )
        assert base.scenario_hash() != pinned.scenario_hash()

    def test_non_equivocate_payload_rejected(self):
        with pytest.raises(Exception):
            AdversarySpec(behaviour="mute", conflicting_payload=b"evil")


class TestChurnSpecJSON:
    def test_churn_faults_round_trip(self):
        spec = ring_spec(
            faults=(
                JoinAt(pid=3, time_ms=20.0),
                LeaveAt(pid=4, time_ms=40.0),
                RewireLinkAt(pid=1, old_peer=2, new_peer=4, time_ms=10.0),
            )
        )
        assert loads_spec_json(dumps_spec_json(spec)) == spec

    def test_bytes_payload_round_trips(self):
        spec = ring_spec(
            f=1,
            adversaries=(
                AdversarySpec(
                    behaviour="equivocate", conflicting_payload=b"\x00\xffevil"
                ),
            ),
        )
        restored = loads_spec_json(dumps_spec_json(spec))
        assert restored == spec
        assert restored.adversaries[0].conflicting_payload == b"\x00\xffevil"

    def test_bytes_are_plain_hex(self):
        jsonable = spec_to_jsonable(
            AdversarySpec(behaviour="equivocate", conflicting_payload=b"\x01\x02")
        )
        assert jsonable["conflicting_payload"] == "0102"

    @pytest.mark.parametrize("value", ["not-hex", "012", 12, ["01"]])
    def test_malformed_hex_in_a_bytes_field_rejected(self, value):
        document = {
            "__type__": "AdversarySpec",
            "behaviour": "equivocate",
            "conflicting_payload": value,
        }
        with pytest.raises(SpecJSONError, match="conflicting_payload is not hex"):
            spec_from_jsonable(document)

    def test_hex_in_a_str_field_stays_a_str(self):
        spec = ring_spec(name="0102")
        restored = loads_spec_json(dumps_spec_json(spec))
        assert restored.name == "0102"
        assert restored == spec


class TestConnectivityUnderChurn:
    def test_no_churn_reports_the_static_connectivity(self):
        report = connectivity_under_churn(ring_topology(6), (), f=0)
        assert report.required == 1
        assert len(report.snapshots) == 1
        assert report.snapshots[0].connectivity == 2
        assert report.held

    def test_leave_below_the_bound_is_flagged(self):
        # Harary H(3, 7) is exactly 3-connected = 2f+1 for f=1; one
        # departure drops a vertex and the bound no longer holds.
        topology = harary_topology(7, 3)
        report = connectivity_under_churn(
            topology, (LeaveAt(pid=4, time_ms=10.0),), f=1
        )
        assert report.required == 3
        assert report.snapshots[0].meets_bound
        assert not report.snapshots[-1].meets_bound
        assert not report.held

    def test_pending_joiner_is_not_an_initial_member(self):
        topology = ring_topology(6)
        report = connectivity_under_churn(
            topology, (JoinAt(pid=3, time_ms=50.0),), f=0
        )
        # Initial graph: the ring minus the pending joiner is a line
        # (1-connected); after the join the full ring is back.
        assert report.snapshots[0].connectivity == 1
        assert report.snapshots[-1].connectivity == 2
        assert report.held

    def test_events_apply_in_time_order(self):
        topology = ring_topology(6)
        report = connectivity_under_churn(
            topology,
            (LeaveAt(pid=4, time_ms=30.0), LeaveAt(pid=1, time_ms=10.0)),
            f=0,
        )
        assert [s.event for s in report.snapshots[1:]] == [
            "leave(1)",
            "leave(4)",
        ]

    def test_non_churn_faults_are_ignored(self):
        from repro.scenarios import CrashAt

        report = connectivity_under_churn(
            ring_topology(6), (CrashAt(pid=3, time_ms=0.0),), f=0
        )
        assert len(report.snapshots) == 1

    def test_negative_f_rejected(self):
        with pytest.raises(TopologyError):
            connectivity_under_churn(ring_topology(6), (), f=-1)


class TestFuzzChurnIntegration:
    def test_sampler_emits_extended_behaviours_and_churn(self):
        specs = list(
            islice(
                stream_fuzz_specs(
                    seed=3, behaviour_fraction=1.0, churn_fraction=1.0
                ),
                48,
            )
        )
        extended = {
            adversary.behaviour
            for spec in specs
            for adversary in spec.adversaries
            if adversary.behaviour
            in ("alter_sender", "send_empty", "limited_broadcast", "truncate_path")
        }
        churned = [
            fault
            for spec in specs
            for fault in spec.faults
            if isinstance(fault, (JoinAt, LeaveAt, RewireLinkAt))
        ]
        assert len(extended) >= 2  # the decoration draws across the taxonomy
        assert churned
        assert all(fault.pid != 0 for fault in churned)  # never the source

    def test_sampler_stream_is_deterministic(self):
        def hashes():
            return [
                spec.scenario_hash()
                for spec in islice(
                    stream_fuzz_specs(
                        seed=5, behaviour_fraction=0.5, churn_fraction=0.5
                    ),
                    32,
                )
            ]

        assert hashes() == hashes()

    def test_shrinker_offers_to_drop_churn_faults(self):
        spec = ring_spec(
            faults=(
                JoinAt(pid=3, time_ms=20.0),
                RewireLinkAt(pid=1, old_peer=2, new_peer=4, time_ms=10.0),
            )
        )
        candidates = list(reduction_candidates(spec))
        fault_sets = [candidate.faults for _, candidate in candidates]
        assert (spec.faults[1],) in fault_sets  # JoinAt dropped
        assert (spec.faults[0],) in fault_sets  # RewireLinkAt dropped

    def test_shrinker_remaps_churn_pids_when_shrinking_topology(self):
        # _referenced_pids must see old_peer/new_peer, or a topology
        # shrink could orphan a rewire endpoint.
        spec = ring_spec(
            n=8,
            faults=(RewireLinkAt(pid=1, old_peer=2, new_peer=6, time_ms=10.0),),
        )
        for _, candidate in reduction_candidates(spec):
            n = candidate.topology.n
            for fault in candidate.faults:
                if isinstance(fault, RewireLinkAt):
                    assert fault.pid < n
                    assert fault.old_peer < n
                    assert fault.new_peer < n
