"""Cross-backend conformance: simulation and asyncio agree on verdicts.

The same declarative :class:`ScenarioSpec` is executed on the
discrete-event simulator and on the asyncio TCP runtime (real localhost
sockets), and the delivery/safety verdicts — who is correct, who
delivered what, and whether totality/agreement/validity hold — must be
identical.  Timings are intentionally excluded: the simulator's clock is
virtual, the runtime's is the wall.

These tests open dozens of real sockets per scenario and are marked
``slow``; the dedicated CI job runs them under a hard pytest timeout so
a hung socket fails fast instead of stalling the runner.
"""

import typing

import pytest

from repro.scenarios import (
    AdversarySpec,
    AsyncioBackend,
    CrashAt,
    CrashWhen,
    CutLinkWhen,
    DelayedStart,
    FaultEvent,
    JoinAt,
    LeaveAt,
    LinkDropWindow,
    ObservationFilter,
    RewireLinkAt,
    ScenarioSpec,
    TopologySpec,
    TurnByzantineWhen,
    WorkloadSpec,
    conformance_mode_for,
    expand_grid,
    run_conformance,
)
from repro.scenarios.faults import ACCOUNTING_FLAGS, ADAPTIVE_FAULT_TYPES
from repro.runner.parallel import SweepExecutor

pytestmark = pytest.mark.slow

#: Short timeouts: every scenario below delivers within a second on
#: localhost, and a conformance failure should not wait out 20 s.
FAST_ASYNCIO = AsyncioBackend(delivery_timeout_s=10.0, connect_timeout_s=10.0)


def assert_conforms(spec: ScenarioSpec) -> None:
    report = run_conformance(spec, overrides={"asyncio": FAST_ASYNCIO})
    assert report.agree, f"backends disagree on {spec.name}: {report.mismatches()}"
    # The two backends must occupy distinct cache slots.
    hashes = dict(report.scenario_hashes)
    assert hashes["simulation"] != hashes["asyncio"]


ECHO_SENT = ObservationFilter(kind="send", mtype="ECHO")
DELIVERED_AT_2 = ObservationFilter(kind="deliver", pid=2)
SENT_BY_0 = ObservationFilter(kind="send", pid=0)


def _fault_row(seed, topology=TopologySpec(kind="harary", n=6, k=4), **faults):
    (fault,) = faults.get("faults") or faults["adaptive"]
    return ScenarioSpec(
        name=f"conformance-{type(fault).__name__}",
        topology=topology,
        f=1,
        seed=seed,
        **faults,
    )


#: The conformance parametrisation: one row per fault class of the
#: table in ``repro.scenarios.faults``.  ``TestFaultTable`` fails when a
#: class has no row, so a new fault cannot land on one runtime only.
FAULT_ROWS = {
    type((spec.faults or spec.adaptive)[0]): spec
    for spec in (
        _fault_row(5, faults=(CrashAt(pid=4, time_ms=0.0),)),
        _fault_row(
            7,
            TopologySpec(kind="harary", n=5, k=3),
            faults=(DelayedStart(pid=2, time_ms=100.0),),
        ),
        # k=4 with one dead link still leaves 2f+1 disjoint paths, so
        # both backends must report full delivery.
        _fault_row(9, faults=(LinkDropWindow(u=0, v=1, start_ms=0.0, end_ms=None),)),
        # Churn: which in-flight copies a graph edit catches is a timing
        # property, so ``auto`` compares safety-only verdicts — delivery
        # sets may differ, forged/split deliveries may not.
        _fault_row(29, faults=(JoinAt(pid=4, time_ms=50.0),)),
        _fault_row(29, faults=(LeaveAt(pid=4, time_ms=50.0),)),
        _fault_row(
            29, faults=(RewireLinkAt(pid=4, old_peer=5, new_peer=1, time_ms=50.0),)
        ),
        # Adaptive: when a trigger fires is a timing property too.
        _fault_row(31, adaptive=(CrashWhen(pid=3, after=ECHO_SENT, count=2),)),
        _fault_row(
            31,
            adaptive=(TurnByzantineWhen(pid=2, after=DELIVERED_AT_2, behaviour="drop"),),
        ),
        _fault_row(
            31, adaptive=(CutLinkWhen(u=0, v=1, after=SENT_BY_0, duration_ms=40.0),)
        ),
    )
}


class TestFaultTable:
    """Every fault class is one complete row, on both runtimes."""

    ALL_FAULT_TYPES = typing.get_args(FaultEvent) + ADAPTIVE_FAULT_TYPES

    @pytest.mark.parametrize("fault_type", ALL_FAULT_TYPES, ids=lambda t: t.__name__)
    def test_row_is_complete(self, fault_type):
        assert callable(vars(fault_type).get("apply")), "no apply"
        for flag in ACCOUNTING_FLAGS:
            assert type(vars(fault_type).get(flag)) is bool, f"{flag} not declared"
        assert fault_type in FAULT_ROWS, "no cross-backend conformance row"

    def test_no_row_without_a_fault_class(self):
        assert set(FAULT_ROWS) == set(self.ALL_FAULT_TYPES)

    @pytest.mark.parametrize("fault_type", FAULT_ROWS, ids=lambda t: t.__name__)
    def test_fault_conforms(self, fault_type):
        assert_conforms(FAULT_ROWS[fault_type])


class TestBackendConformance:
    def test_no_fault_small_topology(self):
        assert_conforms(
            ScenarioSpec(
                name="conformance-no-fault",
                topology=TopologySpec(kind="harary", n=5, k=3),
                f=1,
                seed=3,
            )
        )

    def test_mute_adversary_variant(self):
        assert_conforms(
            ScenarioSpec(
                name="conformance-mute",
                topology=TopologySpec(kind="harary", n=6, k=4),
                f=1,
                seed=11,
                adversaries=(
                    AdversarySpec(behaviour="mute", count=1, placement="random"),
                ),
            )
        )

    def test_bracha_on_complete_topology(self):
        assert_conforms(
            ScenarioSpec(
                name="conformance-bracha",
                topology=TopologySpec(kind="complete", n=4),
                protocol="bracha",
                f=1,
                seed=13,
            )
        )


class TestWorkloadConformance:
    """Multi-broadcast workloads: per-broadcast verdicts must agree.

    The verdict projection carries one :class:`BroadcastVerdict` per
    workload broadcast, so any backend that drops, reorders or
    mis-accounts a single broadcast of the schedule fails here even if
    the aggregate predicates happen to match.
    """

    def test_repeated_workload(self):
        spec = ScenarioSpec(
            name="conformance-workload-repeated",
            topology=TopologySpec(kind="harary", n=5, k=3),
            f=1,
            seed=17,
            workload=WorkloadSpec.repeated(0, 3, interval_ms=30.0),
        )
        report = run_conformance(spec, overrides={"asyncio": FAST_ASYNCIO})
        assert report.agree, f"backends disagree: {report.mismatches()}"
        for _, verdict in report.verdicts:
            assert len(verdict.broadcasts) == 3
            assert all(b.all_correct_delivered for b in verdict.broadcasts)

    def test_round_robin_workload_with_crash(self):
        spec = ScenarioSpec(
            name="conformance-workload-round-robin",
            topology=TopologySpec(kind="harary", n=6, k=4),
            f=1,
            seed=19,
            faults=(CrashAt(pid=5, time_ms=0.0),),
            workload=WorkloadSpec.round_robin([0, 2], 4, interval_ms=25.0),
        )
        report = run_conformance(spec, overrides={"asyncio": FAST_ASYNCIO})
        assert report.agree, f"backends disagree: {report.mismatches()}"
        verdict = dict(report.verdicts)["simulation"]
        assert [(b.source, b.bid) for b in verdict.broadcasts] == [
            (0, 0),
            (0, 1),
            (2, 0),
            (2, 1),
        ]


class TestRCOConformance:
    """The causal wrapper's verdicts agree across backends.

    The causal-order field of the safety verdict rides along, so a
    backend that delivered out of causal order would fail conformance,
    not just the oracle.
    """

    def test_causal_chain_conforms(self):
        assert_conforms(
            ScenarioSpec(
                name="conformance-rco-chain",
                topology=TopologySpec(kind="harary", n=5, k=3),
                protocol="rco_cross_layer",
                f=1,
                seed=13,
                workload=WorkloadSpec.causal_chain((0, 2, 4), interval_ms=250.0),
            )
        )

    def test_rco_with_delayed_start_conforms(self):
        assert_conforms(
            ScenarioSpec(
                name="conformance-rco-delayed",
                topology=TopologySpec(kind="harary", n=5, k=3),
                protocol="rco_cross_layer",
                f=1,
                seed=17,
                faults=(DelayedStart(pid=3, time_ms=120.0),),
                workload=WorkloadSpec.causal_chain((0, 2), interval_ms=300.0),
            )
        )


class TestChurnConformance:
    def test_churn_specs_resolve_to_safety_mode(self):
        spec = FAULT_ROWS[LeaveAt]
        assert spec.has_churn
        assert conformance_mode_for(spec) == "safety"


class TestSweepWithBackendAxis:
    def test_executor_runs_mixed_backend_cells_and_caches_per_backend(self, tmp_path):
        base = ScenarioSpec(
            name="mixed-backend-sweep",
            topology=TopologySpec(kind="harary", n=5, k=3),
            f=1,
            seed=2,
        )
        cells = expand_grid(base, {"backend": ["simulation", "asyncio"], "seed": [2, 3]})
        executor = SweepExecutor(workers=1, cache_dir=tmp_path)

        results = executor.run(cells)
        assert [r.spec.backend for r in results] == [
            "simulation",
            "simulation",
            "asyncio",
            "asyncio",
        ]
        assert all(r.all_correct_delivered for r in results)

        # Every cell — including the asyncio ones — is served from the
        # cache on a re-run, because the hash keys include the backend.
        rerun = executor.run(cells)
        assert executor.cache_hits == len(cells)
        assert rerun == results
